import math

import numpy as np
import pytest
from scipy.integrate import simpson

from radscat import (
    Family,
    Potential,
    Region,
    evaluate_chi,
    find_resonances,
    free_overlap_kernel,
    grid_scan_roots,
    jost,
    rk_oracle,
    shell_jost_plus_grid,
    smeared_delta_check,
    solve_regular,
)


class TestRkOracle:
    def test_free_is_sine(self, free, scale):
        k = 2.0
        rs = np.linspace(0.0, 5.0, 21)
        chi = rk_oracle(free, scale, k, rs)
        assert np.max(np.abs(chi - np.sin(k * rs))) < 1e-10

    def test_conjugation(self, shell, scale):
        k = 1.5 - 0.8j
        rs = [0.7, 1.6, 2.4]
        a = rk_oracle(shell, scale, k, rs)
        b = rk_oracle(shell, scale, np.conj(k), rs)
        assert np.max(np.abs(b - np.conj(a))) < 1e-9

    def test_matches_production_solution(self, shell, scale):
        k = 3.0
        rs = np.linspace(0.1, 5.0, 50)
        sol = solve_regular(shell, scale, k)
        assert np.max(np.abs(rk_oracle(shell, scale, k, rs)
                             - evaluate_chi(sol, rs))) < 1e-8

    def test_scalar_input_gives_scalar(self, shell, scale):
        out = rk_oracle(shell, scale, 3.0, 1.0)
        assert np.ndim(out) == 0


class TestSmearedDelta:
    def test_free_case_tight(self, free, scale):
        rep = smeared_delta_check(Family.STANDING_WAVE, free, scale, 16.0, 2.0)
        assert rep.relative_error <= 1e-4
        assert rep.converged

    def test_free_case_against_analytic_kernel(self, free, scale):
        # same double integral with the closed-form sine overlap substituted
        # for the numeric r quadrature
        center, width, r_max = 16.0, 2.0, 20.0
        n_e = 401
        e = np.linspace(center - 6 * width, center + 6 * width, n_e)
        g = np.exp(-((e - center) ** 2) / (2 * width ** 2))
        k = np.sqrt(e)
        # <r|E> = sqrt(1/(pi k)) sin(kr) for kappa = 1
        amp = np.sqrt(1.0 / (math.pi * k))
        kern = free_overlap_kernel(k, k, r_max)
        integrand = (g * amp)[:, None] * (g * amp)[None, :] * kern
        lhs = simpson(simpson(integrand, x=e, axis=1), x=e)
        rhs = simpson(g ** 2, x=e)
        rep = smeared_delta_check(Family.STANDING_WAVE, free, scale, center,
                                  width, r_max=r_max)
        assert abs(rep.lhs - lhs) <= 1e-6 * rhs
        assert abs(lhs - rhs) / rhs <= 1e-4

    @pytest.mark.parametrize("fam", list(Family))
    def test_shell_all_families(self, fam, shell, scale):
        rep = smeared_delta_check(fam, shell, scale, 16.0, 2.0)
        assert rep.relative_error <= 1e-3
        assert rep.converged

    def test_in_out_reports_coincide(self, shell, scale):
        # chi is real on the real axis and the Jost pair is conjugate, so the
        # two scattering smears are complex conjugates of each other
        a = smeared_delta_check(Family.IN, shell, scale, 16.0, 2.0)
        b = smeared_delta_check(Family.OUT, shell, scale, 16.0, 2.0)
        assert abs(a.lhs - b.lhs) <= 1e-10 * a.rhs

    def test_default_r_max_covers_the_packet(self, shell, scale):
        # the packet's width in r is 2 sqrt(kappa g_center) / (kappa g_width) = 4
        assert smeared_delta_check(Family.IN, shell, scale, 16.0, 2.0).r_max == 20.0
        small = Potential((0.4, 0.85), (0.0, 6.0))
        assert smeared_delta_check(Family.IN, small, scale, 16.0, 2.0).r_max == 0.85 + 16.0

    def test_preconditions(self, shell, scale):
        with pytest.raises(ValueError, match="supported inside"):
            smeared_delta_check(Family.IN, shell, scale, 5.0, 2.0)
        with pytest.raises(ValueError, match="width must be positive"):
            smeared_delta_check(Family.IN, shell, scale, 16.0, 0.0)
        with pytest.raises(ValueError, match="r_max"):
            smeared_delta_check(Family.IN, shell, scale, 16.0, 2.0, r_max=5.0)


class TestShellJostGrid:
    def test_matches_production(self, scale, rng):
        ks = 3 * (rng.normal(size=50) + 1j * rng.normal(size=50))
        ks = ks[np.abs(ks) > 0.3]
        pot_args = (8.0, 1.0, 2.0)
        from radscat import make_shell

        pot = make_shell(*pot_args, scale)
        grid_vals = shell_jost_plus_grid(*pot_args, scale.kappa, ks)
        for k, gv in zip(ks, grid_vals):
            jp = jost(pot, scale, k).j_plus
            assert abs(gv - jp) <= 1e-10 * max(1.0, abs(jp))

    def test_free_limit(self, scale):
        ks = np.array([0.5, 2.0, 4.0 - 1.0j])
        vals = shell_jost_plus_grid(0.0, 1.0, 2.0, scale.kappa, ks)
        assert np.max(np.abs(vals - 1.0)) < 1e-12


class TestGridScanRoots:
    def test_synthetic_polynomial(self):
        z1, z2 = 1.5 - 0.4j, 3.2 - 1.1j

        def f(k):
            k = np.asarray(k, dtype=complex)
            return (k - z1) * (k - z2)

        roots = grid_scan_roots(f, 0.5, 4.0, -2.0, -0.1, n_re=400, n_im=400)
        assert len(roots) == 2
        assert abs(roots[0] - z1) <= 1e-7
        assert abs(roots[1] - z2) <= 1e-7

    def test_no_roots(self):
        def f(k):
            return np.asarray(k, dtype=complex) * 0 + 2.0

        assert grid_scan_roots(f, 0.0, 1.0, -1.0, 0.0, n_re=50, n_im=50) == []

    def test_agrees_with_resonance_finder(self, shell, scale):
        found = find_resonances(shell, scale, Region(0.05, 6.0, -2.0, -1e-6))
        fvec = lambda k: shell_jost_plus_grid(8.0, 1.0, 2.0, scale.kappa, k)
        scanned = grid_scan_roots(fvec, 1e-6, 6.0, -2.0, -1e-6,
                                  n_re=500, n_im=500)
        assert len(scanned) == len(found)
        for s, f in zip(scanned, found):
            assert abs(s - f.k_pole) <= 1e-7
