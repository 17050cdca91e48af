"""The layer kernels and the k-batched propagation against the scalar solve
and the oracles."""

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
    evaluate_chi,
    evaluate_chi_derivative,
    jost,
    rk_oracle,
    s_matrix,
    shell_jost_plus_grid,
    solve_regular,
    sqrt_branch,
)
from radscat.solution import _shift, _transfer


def shift_by_definition(q, a_out, a_in, dr):
    """(a_out e^{iq dr}, a_in e^{-iq dr}) / e^m from two complex exponentials."""
    m = abs(q.imag * dr)
    return (a_out * cmath.exp(1j * q * dr) / math.exp(m),
            a_in * cmath.exp(-1j * q * dr) / math.exp(m), m)


#: all four quadrants, both axes and 0
QS = [2.5 + 1.5j, -2.5 + 1.5j, -2.5 - 1.5j, 2.5 - 1.5j, 3.0 + 0j, -3.0 + 0j, 2j, -2j, 0j]
DRS = [-1.3, -0.4, 0.0, 0.25, 1.7]
A_OUT, A_IN = 0.3 - 1.1j, -0.8 + 0.4j


def assert_close(got, want, rtol=1e-14):
    assert abs(got - want) <= rtol * abs(want), (got, want)


def transfer_by_definition(q, dr):
    """(cos(q dr), sin(q dr)/q, q sin(q dr)) / e^m from cmath."""
    m = abs(q.imag * dr)
    sin = cmath.sin(q * dr)
    return (cmath.cos(q * dr) / math.exp(m), (sin / q if q else dr) / math.exp(m),
            q * sin / math.exp(m), m)


class TestTransfer:
    def test_matches_cmath(self):
        # the scalar kernel one pair at a time, the array kernel on the grid
        qs, drs = np.array(QS)[:, None], np.array(DRS)[None, :]
        arrays = _transfer(qs, drs, np)
        for i, q in enumerate(QS):
            for j, dr in enumerate(DRS):
                want = transfer_by_definition(q, dr)
                for got in (_transfer(q, dr), [x[i, j] for x in arrays]):
                    assert got[3] == want[3]
                    for g, w in zip(got[:3], want[:3]):
                        assert abs(g - w) <= 1e-14 * max(abs(w), 1.0), (q, dr)

    @pytest.mark.parametrize("dr", DRS)
    def test_zero_q_gives_dr(self, dr):
        assert _transfer(0j, dr) == (1, dr, 0, 0)
        c, s, qs, m = _transfer(np.array([0j, 1.0 + 0j]), dr, np)
        assert (c[0], s[0], qs[0], m[0]) == (1, dr, 0, 0)

    def test_conjugate_q_gives_conjugate_entries_exactly(self):
        # the standing-wave criterion compares J+(k) with its mirror at conj k
        qs = np.array(QS + [1e-300 + 1e-300j, 3.0 + 1e-9j, 1e-9 - 2.0j])
        for dr in DRS:
            for q in qs:
                got, mirror = _transfer(complex(q), dr), _transfer(complex(q).conjugate(), dr)
                assert mirror[:3] == tuple(x.conjugate() for x in got[:3]), (q, dr)
                assert mirror[3] == got[3]
            got, mirror = _transfer(qs, dr, np), _transfer(qs.conjugate(), dr, np)
            for g, w in zip(mirror[:3], got[:3]):
                assert np.array_equal(g, w.conjugate()), dr
            assert np.array_equal(mirror[3], got[3])

    @pytest.mark.parametrize("q", [2.0 - 800j, 2.0 + 800j, -1.0 - 720j])
    @pytest.mark.parametrize("dr", [1.0, -1.0])
    def test_finite_past_float_range(self, q, dr):
        # |Im q dr| > 710: cos(q dr) and sin(q dr) themselves overflow
        with pytest.raises(OverflowError):
            transfer_by_definition(q, dr)
        for got in (_transfer(q, dr), _transfer(np.array([q, 1.0 + 0j]), dr, np)):
            assert all(np.all(np.isfinite(x)) for x in got)
            assert np.max(got[3]) == abs(q.imag * dr)
        c, s, qs, _ = _transfer(q, dr)
        # each entry is about e^{|y|}/2 before the division by e^{|y|}
        assert abs(c) == pytest.approx(0.5)
        assert abs(s * q) == pytest.approx(0.5)
        assert abs(qs / q) == pytest.approx(0.5)


class TestShift:
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("dr", DRS)
    def test_scalar_matches_two_exponentials(self, q, dr):
        t_out, t_in, m = _shift(q, A_OUT, A_IN, dr)
        w_out, w_in, w_m = shift_by_definition(q, A_OUT, A_IN, dr)
        assert m == w_m
        assert_close(t_out, w_out)
        assert_close(t_in, w_in)

    def test_array_operands(self):
        # an array of q with one dr (the k-batched steps), one q with an array
        # of dr (the r axis), and both arrays at once
        qs, drs = np.array(QS), np.array(DRS)
        a_out = A_OUT * np.linspace(1.0, 2.0, qs.size)
        cases = [(qs, a_out, A_IN, dr) for dr in DRS]
        cases += [(q, A_OUT, A_IN, drs) for q in QS]
        cases.append((qs[:, None], a_out[:, None], A_IN, drs[None, :]))
        for q, a_o, a_i, dr in cases:
            t_out, t_in, m = _shift(q, a_o, a_i, dr, np.exp)
            for idx in np.ndindex(t_out.shape):
                q_i, ao_i, ai_i, dr_i = (np.broadcast_to(x, t_out.shape)[idx]
                                         for x in (q, a_o, a_i, dr))
                w_out, w_in, w_m = shift_by_definition(
                    complex(q_i), complex(ao_i), complex(ai_i), float(dr_i))
                assert m[idx] == w_m
                assert_close(t_out[idx], w_out)
                assert_close(t_in[idx], w_in)

    @pytest.mark.parametrize("q", [2.0 - 800j, 2.0 + 800j, -1.0 - 720j])
    @pytest.mark.parametrize("dr", [1.0, -1.0])
    def test_scaled_pair_finite_past_float_range(self, q, dr):
        # |Im q| dr > 710: e^{+-iq dr} itself leaves the float range
        with pytest.raises(OverflowError):
            shift_by_definition(q, A_OUT, A_IN, dr)
        for exp, qq in ((cmath.exp, q), (np.exp, np.array([q, 1.0 + 0j]))):
            t_out, t_in, m = _shift(qq, A_OUT, A_IN, dr, exp)
            assert np.all(np.isfinite(t_out)) and np.all(np.isfinite(t_in))
            assert np.max(m) == abs(q.imag * dr)
        # the growing term keeps its modulus, the other underflows
        t_out, t_in, _ = _shift(q, A_OUT, A_IN, dr)
        grows_out = -q.imag * dr > 0
        assert abs(t_out if grows_out else t_in) == pytest.approx(abs(A_OUT if grows_out else A_IN))
        assert (t_in if grows_out else t_out) == 0


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
        # equal heights at the energy: two adjacent q = 0 layers
        (Potential((0.5, 1.0, 1.5), (9.0, 9.0, 2.0)), [3.0, 3.0 + 1e-3j, 1.5]),
        # a q = 0 layer after a free one and before the free exterior
        (Potential((0.7, 1.4), (0.0, 16.0)), [4.0, -4.0, 4.0 - 2.0j]),
    ])
    def test_linear_basis_lanes(self, scale, pot, ks):
        assert_matches_scalar(pot, scale, ks)

    @pytest.mark.parametrize("pot", [
        Potential((1.0, 2.0), (0.0, 8.0)),
        Potential((0.5, 1.0, 1.6, 2.2), (3.0, 12.0, -4.0, 9.0)),
    ])
    def test_exterior_amplitudes_equal_scalar(self, scale, pot):
        # both drivers form (J3, J4) with the same re-referencing to the
        # origin; what is left is the rounding of the few layer steps
        re, im = np.meshgrid(np.linspace(-8.0, 8.0, 21), np.linspace(-3.0, 3.0, 13))
        ks = (re + 1j * im).ravel()
        ks = ks[ks != 0]
        j3, j4 = solve_regular(pot, scale, ks).exterior_amplitudes
        for i, k in enumerate(ks):
            w3, w4 = solve_regular(pot, scale, k).exterior_amplitudes
            ref = max(abs(w3), abs(w4))
            assert abs(j3[i] - w3) <= 1e-14 * ref, k
            assert abs(j4[i] - w4) <= 1e-14 * ref, k

    @pytest.mark.parametrize("pot, split, im_max", [
        # the free potential cut into 10 pieces, far into both half planes
        (Potential((1.0,), (0.0,)), Potential(tuple(0.1 * i for i in range(1, 11)), (0.0,) * 10),
         8.0),
        # two of four layers cut in two
        (Potential((0.5, 1.0, 1.6, 2.2), (3.0, 12.0, -4.0, 9.0)),
         Potential((0.5, 0.7, 1.0, 1.6, 1.9, 2.2), (3.0, 12.0, 12.0, -4.0, 9.0, 9.0)), 3.0),
    ])
    def test_split_layers_give_identical_jost(self, scale, pot, split, im_max):
        # a run of equal heights is carried in one transfer from its start
        re, im = np.meshgrid(np.linspace(-8.0, 8.0, 17), np.linspace(-im_max, im_max, 17))
        ks = (re + 1j * im).ravel()
        ks = ks[ks != 0]
        for k in ks:
            assert jost(split, scale, k) == jost(pot, scale, k), k
        batch, batch_split = jost(pot, scale, ks), jost(split, scale, ks)
        assert np.array_equal(batch.j_plus, batch_split.j_plus)
        assert np.array_equal(batch.j_minus, batch_split.j_minus)

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


def five_point(f, h):
    """df/dr from the rows f(r - 2h), f(r - h), f(r), f(r + h), f(r + 2h)."""
    return (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)


def scalar_and_array(pot, scale, ks):
    """(J3, J4) at each k from the scalar and from the array solve_regular."""
    batch = solve_regular(pot, scale, np.array(ks, dtype=complex)).exterior_amplitudes
    yield from zip(*batch)
    for k in ks:
        yield solve_regular(pot, scale, k).exterior_amplitudes


#: complex k off both axes, so that k^2 - kappa V0 is off the cut of q0
OFF_AXES = st.builds(lambda re, im, s_re, s_im: complex(s_re * re, s_im * im),
                     st.floats(0.1, 8.0), st.floats(0.05, 3.0),
                     st.sampled_from([1, -1]), st.sampled_from([1, -1]))


class TestRandomStackSymmetries:
    """Identities of (J3, J4) on random stacks, from one k and from an array of k."""

    @settings(max_examples=60, deadline=None)
    @given(pot=potentials(), ks=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=8))
    def test_unitarity_on_real_k(self, pot, ks):
        # S = -J3 / J4, and |J3| = |J4| on the real axis, also where q0 is
        # imaginary under a positive innermost height
        for j3, j4 in scalar_and_array(pot, PhysicalScale(1.0), ks):
            assert abs(abs(j3 / j4) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pot=potentials(), ks=st.lists(OFF_AXES, min_size=1, max_size=8))
    def test_conjugate_momentum_swaps_in_out(self, pot, ks):
        # J3(k*) = conj J4(k) and J4(k*) = conj J3(k)
        scale = PhysicalScale(1.0)
        mirrored = list(scalar_and_array(pot, scale, [k.conjugate() for k in ks]))
        for (j3, j4), (j3c, j4c) in zip(scalar_and_array(pot, scale, ks), mirrored):
            ref = max(abs(j3), abs(j4), 1.0)
            assert abs(j3c - np.conj(j4)) <= 1e-12 * ref
            assert abs(j4c - np.conj(j3)) <= 1e-12 * ref

    @settings(max_examples=60, deadline=None)
    @given(pot=potentials(), ks=st.lists(OFF_AXES, min_size=1, max_size=8))
    def test_reflection_conjugates_each_amplitude(self, pot, ks):
        # chi(r; -k*) = sign conj chi(r; k): chi starts as sin(q0 r), and
        # q0(-k*) is conj q0(k) for sqrt(k^2 - kappa V0) off its cut, but
        # -conj q0(k) for q0 = k in a free innermost layer.  So
        # J+-(-k*) = -conj J+-(k), or +conj J+-(k) when V0 = 0
        scale = PhysicalScale(1.0)
        sign = -1.0 if pot.heights[0] == 0 else 1.0
        reflected = list(scalar_and_array(pot, scale, [-k.conjugate() for k in ks]))
        for (j3, j4), (j3r, j4r) in zip(scalar_and_array(pot, scale, ks), reflected):
            ref = max(abs(j3), abs(j4), 1.0)
            assert abs(j3r - sign * np.conj(j3)) <= 1e-12 * ref
            assert abs(j4r - sign * np.conj(j4)) <= 1e-12 * ref


class TestRadialAxis:
    @settings(max_examples=30, deadline=None)
    @given(pot=potentials(),
           k=st.complex_numbers(min_magnitude=0.5, max_magnitude=6.0,
                                allow_nan=False, allow_infinity=False)
           .filter(lambda k: abs(k.imag) <= 1.5),
           flat=st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                               st.sampled_from([1.5, 2.0, 3.0]))))
    def test_chi_and_derivative_match_rk_oracle(self, pot, k, flat):
        scale = PhysicalScale(1.0)
        if flat is not None:
            # the energy sits exactly at one layer's height: q = 0 there
            layer, root = flat
            heights = list(pot.heights)
            heights[layer % len(heights)] = root ** 2
            pot, k = Potential(pot.breakpoints, tuple(heights)), complex(root)
        sol = solve_regular(pot, scale, k)
        # layer midpoints and two exterior radii, away from the breakpoints so
        # that the stencil stays inside one layer
        edges = (0.0,) + pot.breakpoints
        mids = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        rs = np.array(mids + [pot.outer_radius + 0.3, pot.outer_radius + 1.1])
        h = 1e-3
        stencil = rs[None, :] + h * np.arange(-2, 3)[:, None]
        oracle = rk_oracle(pot, scale, k, stencil.ravel()).reshape(stencil.shape)
        chi = evaluate_chi(sol, rs)
        assert np.max(np.abs(chi - oracle[2])) <= 1e-9 * np.max(np.abs(chi))
        dchi = evaluate_chi_derivative(sol, rs)
        assert np.max(np.abs(dchi - five_point(oracle, h))) <= 1e-7 * np.max(np.abs(dchi))

    @pytest.mark.parametrize("pot, k", [
        # q = sqrt(k^2 - 25) in the layer is about 2e-10 (1 + i), then 3e-123 (1 + i)
        (Potential((0.5,), (25.0,)), 5 + 1e-20j),
        (Potential((0.5,), (25.0,)), 5 + 1.64e-246j),
        # k^2 rounds to just below 3: q is about 2e-8 i in the outer layer
        (Potential((0.5, 0.75), (0.0, 3.0)), complex(math.sqrt(3))),
    ])
    def test_tiny_q_matches_rk_oracle(self, pot, k):
        scale = PhysicalScale(1.0)
        rs = np.linspace(0.05, 1.5, 30)
        chi = evaluate_chi(solve_regular(pot, scale, k), rs)
        oracle = rk_oracle(pot, scale, k, rs)
        assert np.max(np.abs(chi - oracle)) <= 1e-9 * np.max(np.abs(oracle))


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
