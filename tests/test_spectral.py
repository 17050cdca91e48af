import math

import numpy as np
import pytest
from scipy.integrate import simpson

from radscat import (
    Family,
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
