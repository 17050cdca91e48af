import numpy as np
import pytest

import radscat.resonance
from radscat import PhysicalScale, make_shell


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
    """The finder's scaled Jplus (``_jplus``) replaced by a stub whose
    Jplus = (k - z0)^2, with L = 0, has a double zero at z0 = 2.3 - 0.4i.  No
    Jost function of a real potential has one off the axes, so only a stub
    reaches the unresolved-cluster path."""
    z0 = 2.3 - 0.4j
    monkeypatch.setattr(radscat.resonance, "_jplus",
                        lambda pot, scale, k: ((k - z0) ** 2, 0.0))


@pytest.fixture
def branch_cut_jost(monkeypatch):
    """The finder's scaled Jplus replaced by sqrt(k - z0), with L = 0, whose
    branch cut runs from z0 = 2.3 - 0.4i to Re k = -inf: every padded contour
    around a region that holds z0 crosses it, so phase tracking never settles."""
    z0 = 2.3 - 0.4j
    monkeypatch.setattr(radscat.resonance, "_jplus",
                        lambda pot, scale, k: (np.sqrt(k - z0), 0.0))
