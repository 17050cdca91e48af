"""The k-batched propagation against the scalar solve and the oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radscat import (
    NORMALIZATION,
    Family,
    GridSpec,
    PhysicalScale,
    PoleError,
    Potential,
    classify_eigensolution,
    check_symmetry,
    jost,
    s_matrix,
    shell_jost_plus_grid,
    sqrt_branch,
)


def assert_matches_scalar(pot, scale, ks, rtol=1e-12):
    batch = jost(pot, scale, np.asarray(ks, dtype=complex))
    for i, k in enumerate(ks):
        one = jost(pot, scale, k)
        ref = max(abs(one.j_plus), abs(one.j_minus))
        assert abs(batch.j_plus[i] - one.j_plus) <= rtol * ref, k
        assert abs(batch.j_minus[i] - one.j_minus) <= rtol * ref, k


#: a small pool of heights so that equal adjacent and zero heights are common
HEIGHTS = st.sampled_from([0.0, 0.0, 3.0, 7.5, -4.0, 12.0, 25.0])


@st.composite
def potentials(draw):
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.1, 0.6), min_size=n, max_size=n))
    heights = draw(st.lists(HEIGHTS, min_size=n, max_size=n))
    return Potential(tuple(np.cumsum(widths)), tuple(heights))


KS = st.lists(
    st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False)
    .filter(lambda k: abs(k) > 1e-3),
    min_size=1, max_size=12)


class TestBatchedJost:
    @settings(max_examples=80, deadline=None)
    @given(pot=potentials(), ks=KS, below=st.lists(st.floats(0.05, 0.95), max_size=3))
    def test_equals_scalar_jost(self, pot, ks, below):
        scale = PhysicalScale(1.0)
        # real k under a positive innermost height, where sin(q0 r) starts
        # on the other side of the cut
        v0 = pot.heights[0]
        if v0 > 0:
            ks = ks + [u * math.sqrt(v0) for u in below]
        assert_matches_scalar(pot, scale, ks)

    def test_matches_closed_form_shell(self, scale, rng):
        ks = 3 * (rng.normal(size=200) + 1j * rng.normal(size=200))
        ks = ks[np.abs(ks) > 0.3]
        pot = Potential((1.0, 2.0), (0.0, 8.0))
        got = jost(pot, scale, ks).j_plus
        want = shell_jost_plus_grid(8.0, 1.0, 2.0, scale.kappa, ks)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("pot, ks", [
        # q = 0 in the middle layer at k = 3, in the innermost layer at k = 2
        (Potential((1.0, 2.0, 2.5), (4.0, 9.0, 1.0)), [3.0, 2.0, 1.0, 2.5 - 0.3j]),
        # equal heights at the energy: two adjacent linear-basis layers
        (Potential((0.5, 1.0, 1.5), (9.0, 9.0, 2.0)), [3.0, 3.0 + 1e-3j, 1.5]),
        # a linear layer after a free one and before the free exterior
        (Potential((0.7, 1.4), (0.0, 16.0)), [4.0, -4.0, 4.0 - 2.0j]),
    ])
    def test_linear_basis_lanes(self, scale, pot, ks):
        assert_matches_scalar(pot, scale, ks)

    def test_zero_lane_rejected(self, shell, scale):
        with pytest.raises(ValueError, match="k = 0"):
            jost(shell, scale, np.array([1.0, 0.0, 2.0]))

    def test_overflow_lane_is_non_finite(self, shell, scale):
        with pytest.raises(OverflowError):
            jost(shell, scale, 3 - 300j)
        jp = jost(shell, scale, np.array([3 - 300j, 3 - 1j]))
        assert not np.isfinite(jp.j_plus[0])
        assert jp.j_plus[1] == pytest.approx(jost(shell, scale, 3 - 1j).j_plus, rel=1e-12)

    def test_overflow_lanes_counted_by_criterion(self, shell, scale):
        # E = -9e4 - 1.8e3j is k = 3 - 300j, where J4 ~ e^1188
        grid = GridSpec(re_min=-9e4, re_max=20.0, im_min=-1.8e3, im_max=1.8e3, n_re=4, n_im=2)
        rep = classify_eigensolution(Family.IN, shell, scale, grid)
        assert 0 < rep.n_nonfinite < grid.n_re * grid.n_im


class TestBatchedSMatrix:
    def test_equals_scalar(self, shell, scale):
        ks = np.linspace(0.3, 8.0, 40)
        s = s_matrix(shell, scale, ks).s
        for k, sv in zip(ks, s):
            assert abs(sv - s_matrix(shell, scale, k).s) <= 1e-12

    def test_pole_in_any_lane(self, shell, scale, states):
        k1 = states[0].k_pole
        with pytest.raises(PoleError):
            s_matrix(shell, scale, np.array([1.0, k1, 2.0]))


@pytest.fixture(scope="module")
def states(shell, scale):
    from radscat import Region, find_resonances
    return find_resonances(shell, scale, Region(0.05, 6.0, -2.0, -1e-6))


def signed_parts(z):
    """Real and imaginary parts with the signs of zeros made visible."""
    return [(x, math.copysign(1.0, x)) for x in (z.real, z.imag)]


class TestSqrtBranchArrays:
    VALUES = [complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-1e-300, -0.0),
              0j, complex(0.0, -0.0), complex(-0.0, 0.0), 2.5 + 0j,
              3 + 4j, -3 - 4j, -3 + 4j, 1e-9 - 1e9j, complex(-7.0, 1e-300)]

    def test_equals_scalar(self):
        got = sqrt_branch(np.array(self.VALUES))
        want = [sqrt_branch(v) for v in self.VALUES]
        for g, w, v in zip(got, want, self.VALUES):
            assert signed_parts(g) == signed_parts(w), v

    def test_negative_reals_on_upper_edge(self):
        got = sqrt_branch(np.array([complex(-9.0, 0.0), complex(-9.0, -0.0)]))
        assert np.all(got == 3j)

    def test_wavenumber(self, scale):
        es = np.array([2.0, -3.0 + 0j, complex(-3.0, -0.0), 1 - 1j, 0j])
        got = PhysicalScale(2.5).wavenumber(es)
        for g, e in zip(got, es):
            assert signed_parts(g) == signed_parts(PhysicalScale(2.5).wavenumber(complex(e)))
        assert cmath.isclose(scale.wavenumber(-4.0), 2j)


class TestCriterionBatch:
    def test_f_called_once_on_points_and_mirrors(self):
        grid = GridSpec(n_re=4, n_im=3)
        calls = []

        def f(e):
            calls.append(np.array(e))
            return e * e

        check_symmetry(f, grid)
        assert len(calls) == 1
        pts = grid.points()
        assert np.array_equal(calls[0], np.concatenate([pts, pts.conjugate()]))

    def test_constant_is_broadcast(self):
        rep = check_symmetry(lambda e: 2.0 - 1j, GridSpec(n_re=3, n_im=3))
        assert rep.max_abs == abs(2.0 - 1j)
        assert rep.classification != NORMALIZATION

    @pytest.mark.parametrize("seed", range(4))
    def test_standing_wave_deviation_at_rounding(self, scale, seed):
        # the layered potentials and grid of the benchmark's criterion jobs
        rng = np.random.default_rng(seed)
        n = 12 + 4 * seed
        pot = Potential(tuple(np.cumsum(rng.uniform(0.08, 0.25, n))),
                        tuple(rng.uniform(-15.0, 30.0, n)))
        grid = GridSpec(re_min=0.5, re_max=20.0, im_min=-4.0, im_max=4.0, n_re=12, n_im=12)
        rep = classify_eigensolution(Family.STANDING_WAVE, pot, scale, grid)
        assert rep.n_nonfinite == 0
        assert rep.max_deviation <= 1e-15 * (1 + rep.max_abs)
