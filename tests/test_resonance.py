import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radscat import (
    DECAYING,
    GROWING,
    GamowState,
    IllConditionedResidueError,
    Region,
    find_resonances,
    gamow_eigenfunction,
    growing_partner,
    PhysicalScale,
    Potential,
    jost,
    residue_norm,
    s_matrix,
)
from radscat.resonance import ContourError, winding_number
from radscat.verification import grid_scan_roots

SEARCH = Region(0.05, 6.0, -2.0, -1e-6)


@pytest.fixture(scope="module")
def states(shell, scale):
    return find_resonances(shell, scale, SEARCH)


class TestFinder:
    def test_free_region_is_empty(self, free, scale):
        assert find_resonances(free, scale, SEARCH) == []

    def test_shell_count_and_location(self, states):
        assert len(states) == 3
        # the lowest resonance sits just under the barrier top at Re k ~ sqrt(5)
        k1 = states[0].k_pole
        assert k1.real == pytest.approx(2.2360997, abs=1e-5)
        assert k1.imag == pytest.approx(-0.0192720, abs=1e-5)
        assert all(s.k_pole.imag < 0 for s in states)
        assert [s.k_pole.real for s in states] == sorted(s.k_pole.real for s in states)

    def test_poles_are_jost_zeros(self, states, shell, scale):
        for s in states:
            jp = jost(shell, scale, s.k_pole)
            assert abs(jp.j_plus) <= 1e-10 * abs(jp.j_minus)

    def test_no_zeros_on_physical_line(self, shell, scale):
        for k in np.linspace(0.05, 10.0, 500):
            assert abs(jost(shell, scale, k).j_plus) > 1e-3

    def test_s_matrix_blows_up_at_pole(self, states, shell, scale):
        k1 = states[0].k_pole
        near = abs(s_matrix(shell, scale, k1 + 1e-4).s)
        background = np.median(
            [abs(s_matrix(shell, scale, k).s) for k in np.linspace(0.5, 6.0, 50)])
        assert near > 1e2 * background

    def test_energy_and_width(self, states, scale):
        s = states[0]
        assert s.z_pole == pytest.approx(s.k_pole ** 2 / scale.kappa)
        assert s.e_res == pytest.approx(s.z_pole.real)
        assert s.gamma == pytest.approx(-2 * s.z_pole.imag)
        assert s.gamma > 0

    def test_region_validation(self, shell, scale):
        with pytest.raises(ValueError):
            find_resonances(shell, scale, Region(-1.0, 2.0, -1.0, -0.1))
        with pytest.raises(ValueError):
            find_resonances(shell, scale, Region(0.1, 2.0, -1.0, 0.5))
        with pytest.raises(ValueError):
            Region(2.0, 1.0, -1.0, -0.1)

    def test_winding_matches_state_count(self, states, shell, scale):
        w = winding_number(lambda k: jost(shell, scale, k).j_plus,
                           Region(0.05, 6.0, -2.0, -1e-6), n_per_side=32)
        assert w == len(states)

    def test_barrier_sweep_narrows_widths(self, scale):
        # taller barriers trap harder; widths shrink toward the real spectrum
        # k_1 -> pi/a of the closed box
        from radscat import make_shell
        from radscat.resonance import _newton

        gammas = {}
        poles = {}
        for v0 in (8.0, 50.0):
            pot = make_shell(v0, 1.0, 2.0, scale)
            st = find_resonances(pot, scale, Region(0.5, 4.0, -1.0, -1e-9))
            assert st, f"no resonance found for v0={v0}"
            gammas[v0] = st[0].gamma
            poles[v0] = st[0].k_pole
        # at v0 = 500 the width underflows doubles (Im k ~ 1e-17 is below the
        # evaluation noise of the huge under-barrier Jost function), so polish
        # from the real axis instead of contour counting
        pot = make_shell(500.0, 1.0, 2.0, scale)
        k1 = _newton(lambda k: jost(pot, scale, k).j_plus, 3.0, leash=1.0)
        assert k1 is not None
        poles[500.0] = k1
        gammas[500.0] = 2 * abs((k1 ** 2).imag)

        assert gammas[8.0] > gammas[50.0] > gammas[500.0]
        assert abs(k1.real - math.pi) <= 0.05 * math.pi


def assert_same_roots(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g.k_pole - w.k_pole) <= 1e-12 * abs(w.k_pole)


class TestContourFailurePaths:
    """Inputs that reach the finder's recovery paths."""

    def test_pole_on_outer_boundary_jitters(self, states, shell, scale):
        # the top edge runs through the lowest pole, so phase tracking cannot
        # settle there; the finder pads the region and finds all three poles
        k1 = states[0].k_pole
        region = Region(0.05, 6.0, -2.0, k1.imag)
        with pytest.raises(ContourError, match="did not settle"):
            winding_number(lambda k: jost(shell, scale, k).j_plus, region)
        assert_same_roots(find_resonances(shell, scale, region), states)

    def test_pole_on_split_line_takes_next_fraction(self, states, shell, scale):
        # the region holds the upper two poles, and its 0.5 vertical split
        # line runs through the first of them
        k2 = states[1].k_pole
        region = Region(k2.real - 1.5, k2.real + 1.5, -2.0, -1e-6)
        f = lambda k: jost(shell, scale, k).j_plus
        assert winding_number(f, region) == 2
        rm = region.re_min + 0.5 * (region.re_max - region.re_min)
        im = region.im_min + 0.5 * (region.im_max - region.im_min)
        with pytest.raises(ContourError):
            winding_number(f, Region(rm, region.re_max, im, region.im_max))
        assert_same_roots(find_resonances(shell, scale, region), states[1:])

    def test_overflowing_lane_raises(self, shell, scale):
        # Jplus leaves the float range along the bottom edge, Im k = -400
        with pytest.raises(OverflowError):
            find_resonances(shell, scale, Region(0.05, 6.0, -400.0, -1e-6))

    def test_max_states_truncates_with_warning(self, states, shell, scale):
        with pytest.warns(UserWarning, match="truncating 3 resonances to max_states=1"):
            found = find_resonances(shell, scale, Region(0.0, 6.0, -2.0, -1e-6), max_states=1)
        assert_same_roots(found, states[:1])


@st.composite
def barrier_stacks(draw):
    """A zero-height core and 1-4 barriers, as in the benchmark's pole pool."""
    n = draw(st.integers(1, 4))
    core = draw(st.floats(0.8, 1.5))
    widths = draw(st.lists(st.floats(0.15, 0.5), min_size=n, max_size=n))
    heights = draw(st.lists(st.floats(5.0, 40.0), min_size=n, max_size=n))
    return Potential(tuple(core + np.cumsum([0.0] + widths)), (0.0, *heights))


class TestFinderVsGridScan:
    @settings(max_examples=25, deadline=None)
    @given(pot=barrier_stacks())
    def test_roots_agree(self, pot):
        scale = PhysicalScale(1.0)
        found = [s.k_pole for s in find_resonances(pot, scale, Region(0.0, 6.0, -1.5, 0.0))]
        # the scan resolves roots a few of its 0.025-wide cells apart and
        # away from the sides it cannot see past; Jplus has no zero on the
        # real axis, so the top edge needs no margin
        assume(all(abs(a - b) > 0.1 for a, b in itertools.combinations(found, 2)))
        assume(all(min(k.real, 6.0 - k.real, k.imag + 1.5) > 0.05 for k in found))
        scanned = grid_scan_roots(lambda k: jost(pot, scale, k).j_plus,
                                  1e-6, 6.0, -1.5, 0.0, n_re=241, n_im=61, tol=1e-10)
        assert len(scanned) == len(found)
        for s, k in zip(scanned, found):
            assert abs(s - k) <= 1e-8


class TestResidue:
    def test_agrees_with_limit_extrapolation(self, states, shell, scale):
        # oracle: (k - k1) * S(k) along a ray, Richardson extrapolated to 0
        k1 = states[0].k_pole
        def g(eps):
            return eps * s_matrix(shell, scale, k1 + eps).s
        e1, e2 = 1e-4, 5e-5
        res = (g(e2) * e1 - g(e1) * e2) / (e1 - e2)
        assert abs(1j * res - states[0].norm_sq) <= 1e-5 * abs(states[0].norm_sq)

    def test_partner_norm_is_conjugate(self, states):
        for s in states:
            p = growing_partner(s)
            assert abs(p.norm_sq - s.norm_sq.conjugate()) <= 1e-8 * abs(s.norm_sq)

    def test_off_pole_point_is_ill_conditioned(self, shell, scale):
        # away from a pole the contour integral of S vanishes (about 5e-20)
        # while Jminus / Jplus' does not (about 0.049 + 0.095i)
        with pytest.raises(IllConditionedResidueError, match="disagree"):
            residue_norm(shell, scale, 3 - 0.5j)

    def test_bad_point_rejected(self, shell, scale):
        from radscat.resonance import _build_state

        with pytest.raises(ValueError, match="not a zero"):
            _build_state(shell, scale, 3.0 - 0.5j, DECAYING)


class TestGrowingPartner:
    def test_reflection(self, states):
        # k1 = p - iq maps to -p - iq; energy moves to the conjugate sheet point
        for s in states:
            p = growing_partner(s)
            assert p.kind == GROWING
            assert p.k_pole == -s.k_pole.conjugate()
            assert p.k_pole.real < 0 and p.k_pole.imag < 0
            assert abs(p.z_pole - s.z_pole.conjugate()) <= 1e-12 * abs(s.z_pole)

    def test_involution(self, states):
        s = states[0]
        back = growing_partner(growing_partner(s))
        assert back.kind == DECAYING
        assert abs(back.k_pole - s.k_pole) < 1e-14

    def test_partner_is_jost_zero_too(self, states, shell, scale):
        for s in states:
            k = -s.k_pole.conjugate()
            jp = jost(shell, scale, k)
            assert abs(jp.j_plus) <= 1e-10 * abs(jp.j_minus)


class TestGamowEigenfunction:
    def test_vanishes_at_origin(self, states):
        assert gamow_eigenfunction(states[0], 0.0) == 0.0

    def test_negative_radius_rejected(self, states):
        with pytest.raises(ValueError):
            gamow_eigenfunction(states[0], -1.0)

    def test_tail_is_pure_outgoing(self, states, shell):
        s = states[0]
        b = shell.outer_radius
        rs = np.linspace(b, 5 * b, 200)
        u = gamow_eigenfunction(s, rs)
        ratio = u / np.exp(1j * s.k_pole * rs)
        assert np.max(np.abs(ratio - s.norm)) <= 1e-10 * abs(s.norm)

    def test_continuous_at_outer_radius(self, states, shell):
        s = states[0]
        b = shell.outer_radius
        eps = 1e-10
        lhs = gamow_eigenfunction(s, b - eps)
        rhs = gamow_eigenfunction(s, b + eps)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_satisfies_equation_inside(self, states, shell, scale):
        # second-order FD residual of -u'' + kappa V u = k^2 u, order-2 in h
        s = states[0]
        k2 = s.k_pole ** 2

        def resid(h):
            worst = 0.0
            for r, v in ((0.5, 0.0), (1.5, 8.0), (2.3, 0.0)):
                u0 = gamow_eigenfunction(s, r)
                d2 = (gamow_eigenfunction(s, r + h) - 2 * u0
                      + gamow_eigenfunction(s, r - h)) / h ** 2
                worst = max(worst, abs(-d2 + (scale.kappa * v - k2) * u0) / abs(u0))
            return worst

        r1, r2 = resid(2e-3), resid(1e-3)
        order = math.log(r1 / r2) / math.log(2.0)
        assert order == pytest.approx(2.0, abs=0.1)

    def test_grows_along_real_axis(self, states, shell):
        # |u| grows like e^{|Im k| r} far outside: the hallmark of a Gamow tail
        s = states[0]
        u1 = abs(gamow_eigenfunction(s, 10.0))
        u2 = abs(gamow_eigenfunction(s, 60.0))
        expect = math.exp(-s.k_pole.imag * 50.0)
        assert u2 / u1 == pytest.approx(expect, rel=1e-9)
