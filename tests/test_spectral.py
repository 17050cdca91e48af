import importlib.util
import math
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import simpson

from radscat import (
    Family,
    PhysicalScale,
    Potential,
    PoleError,
    Region,
    eigenfunction,
    eigensolution_factor,
    energy_transform,
    evaluate_chi,
    find_resonances,
    jost,
    measure,
    s_matrix,
    smeared_delta_check,
    solve_regular,
)


class TestJost:
    def test_free_is_unity(self, free, scale):
        for k in (0.2, 3.0, 7.7, 1.0 - 0.8j, -2.0 + 0.3j):
            jp = jost(free, scale, k)
            assert abs(jp.j_plus - 1) < 1e-12
            assert abs(jp.j_minus - 1) < 1e-12

    def test_shell_matches_rk_fit(self, shell, scale):
        from test_solution import fit_exterior_amplitudes
        from radscat import rk_oracle

        k = 3.0
        j3_fit, j4_fit = fit_exterior_amplitudes(
            shell, scale, k, lambda r: rk_oracle(shell, scale, k, [r])[0])
        jp = jost(shell, scale, k)
        assert abs(jp.j_plus - (-2j * j4_fit)) < 1e-8
        assert abs(jp.j_minus - 2j * j3_fit) < 1e-8

    def test_conjugate_pair_on_real_line(self, shell, scale):
        for k in np.linspace(0.05, 12.0, 200):
            jp = jost(shell, scale, k)
            assert abs(np.conj(jp.j_plus) - jp.j_minus) <= 1e-12 * abs(jp.j_plus)


class TestSMatrix:
    def test_free_is_one(self, free, scale):
        for k in (0.1, 2.0, 9.0):
            assert abs(s_matrix(free, scale, k).s - 1) < 1e-12

    def test_unitarity_on_physical_line(self, shell, scale):
        ks = np.linspace(0.01, 10.0, 1000)
        devs = [abs(abs(s_matrix(shell, scale, k).s) - 1.0) for k in ks]
        assert max(devs) <= 1e-10

    def test_pole_error_at_resonance(self, shell, scale):
        k1 = find_resonances(shell, scale, Region(2.0, 2.5, -0.1, -1e-6))[0].k_pole
        with pytest.raises(PoleError):
            s_matrix(shell, scale, k1)

    def test_simple_pole_order(self, shell, scale):
        k1 = find_resonances(shell, scale, Region(2.0, 2.5, -0.1, -1e-6))[0].k_pole
        s2 = abs(s_matrix(shell, scale, k1 + 1e-2).s)
        s3 = abs(s_matrix(shell, scale, k1 + 1e-3).s)
        slope = math.log(s3 / s2) / math.log(1e-2 / 1e-3)
        assert abs(slope - 1.0) <= 0.05


class TestMeasures:
    def test_positive_on_physical_line(self, shell, scale):
        for k in np.linspace(0.05, 10.0, 100):
            assert measure(Family.STANDING_WAVE, shell, scale, k) > 0
            assert measure(Family.IN, shell, scale, k) > 0

    def test_scattering_measures_equal(self, shell, scale):
        for k in (0.3, 2.0, 8.0):
            assert measure(Family.IN, shell, scale, k) == measure(Family.OUT, shell, scale, k)
            assert measure(Family.IN, shell, scale, k) == pytest.approx(
                scale.kappa / (math.pi * k), rel=1e-15)

    def test_measure_identity(self, shell, scale):
        # 4 rho |J4|^2 == rho+ exactly, all real k > 0
        for k in np.linspace(0.1, 10.0, 200):
            _, j4 = solve_regular(shell, scale, k).exterior_amplitudes
            rho = measure(Family.STANDING_WAVE, shell, scale, k)
            rho_p = measure(Family.IN, shell, scale, k)
            assert abs(4 * rho * abs(j4) ** 2 - rho_p) <= 1e-12 * rho_p

    def test_invalid_k(self, shell, scale):
        with pytest.raises(ValueError):
            measure(Family.STANDING_WAVE, shell, scale, -1.0)


class TestEigenfunction:
    def test_vanishes_at_origin(self, shell, scale):
        for fam in Family:
            assert eigenfunction(fam, shell, scale, 9.0, 0.0) == 0.0

    def test_nonpositive_energy_rejected(self, shell, scale):
        with pytest.raises(ValueError):
            eigenfunction(Family.IN, shell, scale, 0.0, 1.0)
        with pytest.raises(ValueError):
            eigenfunction(Family.IN, shell, scale, -3.0, 1.0)

    def test_in_equals_s_times_out(self, shell, scale):
        es = np.linspace(0.5, 20.0, 50)
        rs = np.linspace(0.0, 6.0, 50)
        for e in es:
            s = s_matrix(shell, scale, math.sqrt(scale.kappa * e)).s
            d = np.abs(eigenfunction(Family.IN, shell, scale, e, rs)
                       - s * eigenfunction(Family.OUT, shell, scale, e, rs))
            assert d.max() <= 1e-12

    def test_standing_wave_composition(self, shell, scale):
        e, r = 9.0, 3.0
        k = math.sqrt(e)
        sol = solve_regular(shell, scale, k)
        rho = measure(Family.STANDING_WAVE, shell, scale, k)
        expect = math.sqrt(rho) * evaluate_chi(sol, r)
        got = eigenfunction(Family.STANDING_WAVE, shell, scale, e, r)
        assert abs(got - expect) < 1e-14

    @pytest.mark.parametrize("fam", list(Family))
    def test_criterion_factor_builds_the_family(self, fam, shell, scale):
        # the criterion classifies the same factor the eigenfunction uses;
        # E = 2 lies below the innermost height of the second potential
        inner = Potential((1.0, 1.5), (5.0, 9.0))
        rs = np.linspace(0.0, 6.0, 40)
        for pot in (shell, inner):
            factor = eigensolution_factor(fam, pot, scale)
            for e in (2.0, 9.0, 31.5):
                chi = evaluate_chi(solve_regular(pot, scale, math.sqrt(scale.kappa * e)), rs)
                want = factor(e) * chi
                got = eigenfunction(fam, pot, scale, e, rs)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_free_standing_wave_is_scaled_sine(self, free, scale):
        e = 4.0
        k = 2.0
        rho = scale.kappa / (math.pi * k)
        for r in (0.3, 1.1, 4.2):
            got = eigenfunction(Family.STANDING_WAVE, free, scale, e, r)
            assert got == pytest.approx(math.sqrt(rho) * math.sin(k * r), abs=1e-14)


class TestEnergyTransform:
    def test_zero_input(self, shell, scale):
        coeffs = energy_transform(Family.IN, shell, scale, np.zeros(101), 10.0,
                                  [1.0, 2.0, 3.0])
        assert np.all(coeffs == 0)

    def test_grid_validation(self, shell, scale):
        psi = np.zeros(101)
        with pytest.raises(ValueError):
            energy_transform(Family.IN, shell, scale, psi, 10.0, [])
        with pytest.raises(ValueError):
            energy_transform(Family.IN, shell, scale, psi, 10.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            energy_transform(Family.IN, shell, scale, psi, 10.0, [-1.0, 1.0])

    def test_undersampling_warns(self, shell, scale):
        with pytest.warns(RuntimeWarning, match="undersample"):
            energy_transform(Family.IN, shell, scale, np.zeros(11), 20.0, [1.0, 400.0])

    @pytest.mark.parametrize("fam", list(Family))
    def test_parseval_gaussian_bump(self, fam, shell, scale):
        r_max = 20.0
        r = np.linspace(0.0, r_max, 4001)
        psi = np.exp(-((r - 5.0) ** 2) / (2 * 0.4 ** 2))
        norm_r = simpson(np.abs(psi) ** 2, x=r)
        k = np.linspace(0.02, 15.0, 1200)
        coeffs = energy_transform(fam, shell, scale, psi, r_max, k ** 2 / scale.kappa)
        norm_e = simpson(np.abs(coeffs) ** 2 * 2 * k / scale.kappa, x=k)
        assert abs(norm_e - norm_r) / norm_r <= 1e-3

    def test_transform_concentrates_at_input_energy(self, shell, scale):
        # feeding back a windowed continuum eigenfunction peaks at its energy
        e0 = 9.0
        r_max = 40.0
        r = np.linspace(0.0, r_max, 8001)
        psi = eigenfunction(Family.STANDING_WAVE, shell, scale, e0, r)
        e_grid = np.arange(5.0, 13.0, 0.2)
        coeffs = energy_transform(Family.STANDING_WAVE, shell, scale, psi, r_max, e_grid)
        peak = e_grid[np.argmax(np.abs(coeffs))]
        assert abs(peak - e0) <= 0.2


def load_reference():
    """perfbench/reference.py, the mpmath Jost function, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTallBarriers:
    """J+- of a tall barrier leave the float range; S and the families,
    ratios of the pair, do not."""

    @pytest.mark.parametrize("v0", [1e5, 5e5, 1e6, 1e7])
    def test_s_is_unimodular_and_matches_reference(self, v0, scale):
        pot = Potential((1.0, 2.0), (0.0, v0))
        ref = load_reference().RefPotential(pot.breakpoints, pot.heights, scale.kappa)
        ks = np.array([3.0, 30.0])
        batch = s_matrix(pot, scale, ks).s
        for k, s_lane in zip(ks, batch):
            s = s_matrix(pot, scale, k).s
            want = complex(ref.s_matrix(k))
            assert abs(abs(s) - 1.0) <= 1e-12, k
            assert abs(s - want) <= 1e-12 * abs(want), k
            assert abs(s_lane - want) <= 1e-12 * abs(want), k
        if v0 >= 1e6:
            # e^L alone leaves the float range: only J+- themselves overflow
            with pytest.raises(OverflowError, match="Jost functions overflow"):
                jost(pot, scale, 30.0)

    def test_deep_complex_s_underflows(self, shell, scale):
        # |S(3 - 300j)| is about 3e-517 and |Jplus| about 3e516
        assert s_matrix(shell, scale, 3 - 300j).s == 0
        lanes = s_matrix(shell, scale, np.array([3 - 300j, 3 - 1j])).s
        assert lanes[0] == 0
        assert lanes[1] == pytest.approx(s_matrix(shell, scale, 3 - 1j).s, rel=1e-14)

    # the convergence flag has no noise floor yet: a base error near the
    # rounding floor can read as non-convergent
    @pytest.mark.filterwarnings("ignore:smeared delta check not converged")
    @pytest.mark.parametrize("v0", [5e5, 1e6, 1e7])
    def test_continuum_is_finite(self, v0, scale):
        pot = Potential((1.0, 2.0), (0.0, v0))
        r = np.linspace(0.0, 20.0, 1001)
        psi = np.exp(-((r - 8.0) ** 2) / 2)
        e_grid = np.linspace(4.0, 14.0, 11)
        for fam in Family:
            phi = eigenfunction(fam, pot, scale, 9.0, r)
            assert np.isfinite(phi).all() and 0.1 < np.abs(phi).max() < 1.0, fam
            assert np.isfinite(energy_transform(fam, pot, scale, psi, 20.0, e_grid)).all(), fam
            rep = smeared_delta_check(fam, pot, scale, 16.0, 2.0, n_r=1001, n_e=201)
            assert rep.relative_error <= 1e-3, fam


@st.composite
def tall_stacks(draw):
    """1-5 layers whose heights reach 1e7, wells and steps among them."""
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.1, 0.6), min_size=n, max_size=n))
    heights = draw(st.lists(st.one_of(st.floats(-20.0, 50.0),
                                      st.floats(1.0, 7.0).map(lambda e: 10.0 ** e)),
                            min_size=n, max_size=n))
    return Potential(tuple(np.cumsum(widths)), tuple(heights))


class TestRandomTallStacks:
    @settings(max_examples=60, deadline=None)
    @given(pot=tall_stacks(), ks=st.lists(st.floats(0.05, 30.0), min_size=1, max_size=8))
    def test_s_is_unimodular(self, pot, ks):
        scale = PhysicalScale(1.0)
        batch = s_matrix(pot, scale, np.array(ks)).s
        for k, s_lane in zip(ks, batch):
            assert abs(abs(s_matrix(pot, scale, k).s) - 1.0) <= 1e-12, k
            assert abs(abs(s_lane) - 1.0) <= 1e-12, k

    @settings(max_examples=40, deadline=None)
    @given(pot=tall_stacks(), energy=st.floats(0.05, 400.0),
           rs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5))
    def test_in_is_s_times_out(self, pot, energy, rs):
        scale = PhysicalScale(1.0)
        # the drawn radii, and one in the exterior where |psi| is of order 1
        r = pot.outer_radius * np.array(rs + [1.5])
        s = s_matrix(pot, scale, scale.wavenumber(energy).real).s
        psi_in = eigenfunction(Family.IN, pot, scale, energy, r)
        psi_out = eigenfunction(Family.OUT, pot, scale, energy, r)
        assert np.isfinite(psi_in).all()
        assert np.max(np.abs(psi_in - s * psi_out)) <= 1e-12 * np.abs(psi_in).max()
