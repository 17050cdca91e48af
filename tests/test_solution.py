import math

import numpy as np
import pytest

from radscat import (
    PhysicalScale,
    evaluate_chi,
    evaluate_chi_derivative,
    make_shell,
    rk_oracle,
    solve_regular,
)
from radscat.solution import _carry

HALF_I = 1 / 2j


def fit_exterior_amplitudes(pot, scale, k, chi_at):
    """Fit (J3, J4) from chi sampled at two exterior radii."""
    b = pot.outer_radius
    r1, r2 = b + 1.0, b + 1.4
    m = np.array([[np.exp(1j * k * r1), np.exp(-1j * k * r1)],
                  [np.exp(1j * k * r2), np.exp(-1j * k * r2)]])
    j3, j4 = np.linalg.solve(m, np.array([chi_at(r1), chi_at(r2)]))
    return j3, j4


def values_at(sol, i, r):
    """(chi, chi', log_scale) of layer i's record carried to radius r; the
    actual values are exp(log_scale) larger."""
    chi, dchi, m = _carry(sol.q[i], sol.chi[i], sol.dchi[i], r - sol.r_left[i])
    return chi, dchi, sol.log_scale[i] + m


def complex_k_grid(rng, n=40, radius=3.0):
    ks = radius * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return ks[np.abs(ks) > 0.2]


class TestSolveRegular:
    def test_free_exterior_amplitudes(self, free, scale):
        for k in (0.3, 2.0, 5.5, 1.0 - 0.5j):
            j3, j4 = solve_regular(free, scale, k).exterior_amplitudes
            assert abs(j3 - HALF_I) < 1e-14
            assert abs(j4 + HALF_I) < 1e-14

    def test_innermost_amplitudes_exact(self, shell, scale):
        # chi = sin(k r) in the free core: (chi, chi') = (0, k) at r = 0
        sol = solve_regular(shell, scale, 3.0)
        assert (sol.r_left[0], sol.chi[0], sol.dchi[0], sol.log_scale[0]) == (0.0, 0, 3.0, 0.0)

    def test_k_zero_rejected(self, shell, scale):
        with pytest.raises(ValueError):
            solve_regular(shell, scale, 0.0)

    def test_continuity_at_breakpoints(self, shell, scale):
        # its own generator: the k drawn must not depend on which tests ran
        # before it on the session rng
        rng = np.random.default_rng(20240817)
        eps = 1e-9
        for k in list(complex_k_grid(rng, 20)) + [0.5, 3.0, 9.0]:
            sol = solve_regular(shell, scale, k)
            for b in shell.breakpoints:
                v_l = evaluate_chi(sol, b - eps)
                v_r = evaluate_chi(sol, b + eps)
                d_l = evaluate_chi_derivative(sol, b - eps)
                d_r = evaluate_chi_derivative(sol, b + eps)
                ref = max(abs(v_r), abs(d_r), 1e-30)
                # one-sided offsets contribute O(eps * chi'); stay well inside 1e-12
                assert abs(v_l - v_r) <= 1e-7 * ref
                assert abs(d_l - d_r) <= 1e-7 * ref

    def test_interface_residual_is_tiny(self, shell, scale):
        # exact two-sided comparison via the layer representations themselves
        for k in (3.0, 2.0 - 0.7j):
            sol = solve_regular(shell, scale, k)
            for i, b in enumerate(shell.breakpoints):
                vl, dl, lsl = values_at(sol, i, b)
                vr, dr, lsr = values_at(sol, i + 1, b)
                sl, sr = math.exp(lsl), math.exp(lsr)
                ref = max(abs(vl * sl), abs(dl * sl))
                assert abs(vl * sl - vr * sr) <= 1e-12 * ref
                assert abs(dl * sl - dr * sr) <= 1e-12 * ref

    def test_shell_amplitudes_vs_rk_fit(self, shell, scale):
        k = 3.0
        j3_fit, j4_fit = fit_exterior_amplitudes(
            shell, scale, k, lambda r: rk_oracle(shell, scale, k, [r])[0])
        j3, j4 = solve_regular(shell, scale, k).exterior_amplitudes
        assert abs(j3 - j3_fit) < 1e-8
        assert abs(j4 - j4_fit) < 1e-8

    def test_scale_consistency(self, scale):
        # doubling kappa while halving heights keeps k-space amplitudes fixed
        pot1 = make_shell(8.0, 1.0, 2.0)
        pot2 = make_shell(4.0, 1.0, 2.0)
        s2 = PhysicalScale(kappa=2.0)
        for k in (1.3, 3.0, 2.0 - 0.4j):
            a1 = solve_regular(pot1, PhysicalScale(1.0), k).exterior_amplitudes
            a2 = solve_regular(pot2, s2, k).exterior_amplitudes
            assert abs(a1[0] - a2[0]) < 1e-13
            assert abs(a1[1] - a2[1]) < 1e-13

    def test_degenerate_layer_uses_linear_basis(self, scale):
        # energy exactly at the shell height: q = 0 in the middle layer
        pot = make_shell(9.0, 1.0, 2.0, scale)
        k = 3.0
        sol = solve_regular(pot, scale, k)
        assert sol.q[1] == 0
        rs = np.linspace(0.2, 4.0, 30)
        chi_rk = rk_oracle(pot, scale, k, rs)
        assert np.max(np.abs(evaluate_chi(sol, rs) - chi_rk)) < 1e-8

    def test_deep_complex_k_stays_finite(self, shell, scale):
        # growth exponents above the log-scaling threshold
        k = 2.0 - 60.0j
        sol = solve_regular(shell, scale, k)
        for chi, dchi in zip(sol.chi, sol.dchi):
            assert np.isfinite(chi) and np.isfinite(dchi)
        rs = np.array([0.5, 1.5, 1.9, 2.5])
        chi_rk = rk_oracle(shell, scale, k, rs, step=2e-5)
        chi = evaluate_chi(sol, rs)
        assert np.max(np.abs(chi - chi_rk) / np.abs(chi_rk)) < 1e-7


class TestEvaluate:
    def test_chi_vanishes_at_origin(self, shell, scale):
        sol = solve_regular(shell, scale, 3.0)
        assert evaluate_chi(sol, 0.0) == 0.0

    def test_free_case_values(self, free, scale):
        sol = solve_regular(free, scale, 2.0)
        assert evaluate_chi(sol, 0.5) == pytest.approx(math.sin(1.0), abs=1e-14)
        assert evaluate_chi_derivative(sol, 0.5) == pytest.approx(
            2 * math.cos(1.0), abs=1e-14)

    def test_derivative_at_origin_is_k(self, shell, scale):
        k = 3.0
        sol = solve_regular(shell, scale, k)
        assert evaluate_chi_derivative(sol, 0.0) == pytest.approx(k, abs=1e-14)

    def test_negative_radius_rejected(self, shell, scale):
        sol = solve_regular(shell, scale, 3.0)
        with pytest.raises(ValueError):
            evaluate_chi(sol, -1.0)
        with pytest.raises(ValueError):
            evaluate_chi_derivative(sol, -1.0)

    def test_array_solution_rejected(self, shell, scale):
        # three radii on three lanes would broadcast into a wrong answer
        sol = solve_regular(shell, scale, np.array([1.0, 2.0, 3.0]))
        for evaluate in (evaluate_chi, evaluate_chi_derivative):
            with pytest.raises(ValueError, match="array of k"):
                evaluate(sol, np.array([0.5, 1.0, 1.5]))

    def test_finite_difference_convergence_order(self, shell, scale):
        sol = solve_regular(shell, scale, 3.0)
        r = 1.37
        exact = evaluate_chi_derivative(sol, r)

        def fd_err(h):
            approx = (evaluate_chi(sol, r + h) - evaluate_chi(sol, r - h)) / (2 * h)
            return abs(approx - exact)

        e1, e2 = fd_err(1e-3), fd_err(5e-4)
        order = math.log(e1 / e2) / math.log(2.0)
        assert order == pytest.approx(2.0, abs=0.1)


class TestConjugationSymmetry:
    """amplitudes(k*) = conj(amplitudes(k)) with the exponent roles swapped."""

    def test_conjugate_momentum_swaps_in_out(self, shell, scale, rng):
        for k in complex_k_grid(rng, 30):
            j3, j4 = solve_regular(shell, scale, k).exterior_amplitudes
            j3c, j4c = solve_regular(shell, scale, np.conj(k)).exterior_amplitudes
            ref = max(abs(j3), abs(j4), 1.0)
            assert abs(j3c - np.conj(j4)) <= 1e-12 * ref
            assert abs(j4c - np.conj(j3)) <= 1e-12 * ref

    def test_reflected_conjugate_momentum(self, shell, scale, rng):
        # chi is odd in k for a free innermost layer, so k -> -k* gives
        # J3 -> -conj(J3), J4 -> -conj(J4)
        for k in complex_k_grid(rng, 30):
            j3, j4 = solve_regular(shell, scale, k).exterior_amplitudes
            j3m, j4m = solve_regular(shell, scale, -np.conj(k)).exterior_amplitudes
            ref = max(abs(j3), abs(j4), 1.0)
            assert abs(j3m + np.conj(j3)) <= 1e-12 * ref
            assert abs(j4m + np.conj(j4)) <= 1e-12 * ref

    def test_real_k_reality(self, shell, scale):
        for k in (0.4, 1.7, 5.0):
            rs = np.linspace(0.0, 4.0, 17)
            chi = evaluate_chi(solve_regular(shell, scale, k), rs)
            assert np.max(np.abs(chi.imag)) < 1e-13
