import numpy as np
import pytest

import radscat.resonance
from radscat import JostPair, PhysicalScale, make_shell


@pytest.fixture(scope="session")
def scale():
    return PhysicalScale(kappa=1.0)


@pytest.fixture(scope="session")
def shell(scale):
    return make_shell(8.0, 1.0, 2.0, scale)


@pytest.fixture(scope="session")
def free(scale):
    return make_shell(0.0, 1.0, 2.0, scale)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def double_zero_jost(monkeypatch):
    """The finder's ``jost`` replaced by a stub whose Jplus = (k - z0)^2 has a
    double zero at z0 = 2.3 - 0.4i.  No Jost function of a real potential has
    one off the axes, so only a stub reaches the unresolved-cluster path."""
    z0 = 2.3 - 0.4j
    monkeypatch.setattr(radscat.resonance, "jost",
                        lambda pot, scale, k: JostPair(k, (k - z0) ** 2, 1.0))
