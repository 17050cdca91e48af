"""Tests of the extended-precision reference against closed forms.

    python3 -m pytest perfbench/test_reference.py
"""

import mpmath as mp
import pytest

from reference import RefPotential

K_POINTS = [mp.mpc(0.3, 0), mp.mpc(2.5, -0.4), mp.mpc(5.0, -1.5), mp.mpc(1.2, 0.7)]


def shell_j_plus(v0, a, b, k):
    """Jplus of a shell of height v0 on [a, b], matched by hand.

    chi = sin(ka) enters the shell; with q = sqrt(k^2 - v0), d = b - a,
    Jplus = e^{ikd} cos(qd) - i e^{ikb} sin(qd) ((k/q) cos(ka) - i (q/k) sin(ka)).
    """
    q = mp.sqrt(k * k - v0)
    d = b - a
    return (mp.exp(1j * k * d) * mp.cos(q * d)
            - 1j * mp.exp(1j * k * b) * mp.sin(q * d)
            * (k / q * mp.cos(k * a) - 1j * q / k * mp.sin(k * a)))


@pytest.mark.parametrize("k", K_POINTS)
def test_free_potential_has_unit_jost_functions(k):
    ref = RefPotential((0.7, 1.9), (0.0, 0.0))
    jp, jm, djp = ref.jost(k)
    assert abs(jp - 1) < 1e-25
    assert abs(jm - 1) < 1e-25
    assert abs(djp) < 1e-25


@pytest.mark.parametrize("k", K_POINTS)
def test_shell_matches_hand_derivation(k):
    ref = RefPotential((1.0, 2.0), (0.0, 8.0))
    with mp.workdps(40):
        expected = shell_j_plus(8, 1, 2, k)
    assert abs(ref.j_plus(k) - expected) < 1e-25 * max(1, abs(expected))


@pytest.mark.parametrize("k", K_POINTS)
def test_derivative_matches_numerical_differentiation(k):
    ref = RefPotential((1.0, 1.4, 2.0), (0.0, 8.0, -3.0))
    with mp.workdps(50):
        expected = mp.diff(ref.j_plus, k)
    assert abs(ref.jost(k)[2] - expected) < 1e-25 * abs(expected)


def test_s_is_unimodular_on_the_real_axis():
    ref = RefPotential((0.5, 1.1, 1.6), (0.0, 20.0, 3.0))
    for k in (0.1, 1.0, 3.3, 7.0):
        assert abs(abs(ref.s_matrix(k)) - 1) < 1e-25


def test_shell_zero_count_and_zeros():
    ref = RefPotential((1.0, 2.0), (0.0, 8.0))
    assert ref.zero_count(1e-9, 6, -2, 0) == 3
    assert ref.zero_count(1e-9, 3, -2, 0) == 1
    with mp.workdps(40):
        exact = mp.findroot(lambda k: shell_j_plus(8, 1, 2, k), mp.mpc(2.2, -0.02))
    assert abs(ref.refine_zero(mp.mpc(2.2, -0.02)) - exact) < 1e-18


def test_residue_norm_matches_contour_integral_of_s():
    ref = RefPotential((1.0, 2.0), (0.0, 8.0))
    k_n = ref.refine_zero(mp.mpc(2.2, -0.02))
    with mp.workdps(30):
        res = mp.quad(lambda t: ref.s_matrix(k_n + 1e-3 * mp.expj(t)) * 1e-3j * mp.expj(t),
                      [0, 2 * mp.pi]) / (2j * mp.pi)
    assert abs(1j * res - ref.residue_norm(k_n)) < 1e-15 * abs(res)


def test_narrow_shell_zero_resolved_below_double_precision():
    ref = RefPotential((1.0, 2.0), (0.0, 2000.0))
    k_n = ref.refine_zero(mp.mpc(3.07, -1e-30))
    assert -1e-40 < k_n.imag < -1e-42
    assert ref.zero_count(1e-9, 6, -1.5, -1e-41) == 1
