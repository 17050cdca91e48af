import math

import numpy as np
import pytest

from radscat import (
    NORMALIZATION,
    PHYSICALLY_DISTINCT,
    Family,
    GridSpec,
    Potential,
    Region,
    check_symmetry,
    classify_eigensolution,
    find_resonances,
    jost,
    make_shell,
    solve_regular,
)
from radscat.spectral import scattering_density, standing_density


def jplus_of_e(pot, scale):
    def f(e):
        return jost(pot, scale, scale.wavenumber(e)).j_plus
    return f


def jminus_of_e(pot, scale):
    def f(e):
        return jost(pot, scale, scale.wavenumber(e)).j_minus
    return f


def standing_of_e(pot, scale, e):
    return standing_density(scale, jost(pot, scale, scale.wavenumber(e)))


class TestCheckSymmetry:
    def test_constant_has_zero_deviation(self):
        rep = check_symmetry(lambda e: 7.0, label="const")
        assert rep.max_deviation == 0.0
        assert rep.classification == NORMALIZATION

    def test_standing_measure_is_symmetric(self, shell, scale):
        rep = check_symmetry(lambda e: standing_of_e(shell, scale, e),
                             label="rho")
        assert rep.classification == NORMALIZATION
        assert rep.max_deviation <= 1e-10 * (1 + rep.max_abs)

    def test_scattering_measure_is_symmetric(self, scale):
        rep = check_symmetry(lambda e: scattering_density(scale, scale.wavenumber(e)),
                             label="rho_pm")
        assert rep.classification == NORMALIZATION

    def test_jplus_is_asymmetric(self, shell, scale):
        rep = check_symmetry(jplus_of_e(shell, scale), label="jplus")
        assert rep.classification == PHYSICALLY_DISTINCT

    def test_jplus_deviation_equals_jost_gap(self, shell, scale):
        # conj(Jplus(conj E)) = Jminus(E), so the deviation field is the
        # largest |Jplus - Jminus| over the grid
        grid = GridSpec(n_re=40, n_im=40)
        rep = check_symmetry(jplus_of_e(shell, scale), grid, label="jplus")
        jp = jplus_of_e(shell, scale)
        jm = jminus_of_e(shell, scale)
        gap = max(abs(jp(e) - jm(e)) for e in grid.points())
        assert abs(rep.max_deviation - gap) <= 1e-12 * gap

    def test_deviation_functional_is_conjugation_symmetric(self, shell, scale):
        grid = GridSpec(n_re=25, n_im=25)
        f = jplus_of_e(shell, scale)
        rep1 = check_symmetry(f, grid)
        rep2 = check_symmetry(lambda e: np.conj(f(np.conj(e))), grid)
        assert rep1.max_deviation == pytest.approx(rep2.max_deviation, rel=1e-12)

    def test_nonfinite_values_are_counted_not_fatal(self):
        def f(e):
            return np.where(abs(e - (5 + 1j)) < 2, float("nan"), 1.0)

        rep = check_symmetry(f, GridSpec(n_re=20, n_im=20))
        assert rep.n_nonfinite > 0
        assert np.isfinite(rep.max_deviation)

    def test_grid_on_cut_rejected(self):
        grid = GridSpec(re_min=-10.0, re_max=-1.0, im_min=-1e-9, im_max=1e-9,
                        n_re=5, n_im=3)
        with pytest.raises(ValueError, match="branch cut"):
            grid.points()


class TestClassifyEigensolution:
    def test_standing_wave_is_normalization(self, shell, scale):
        rep = classify_eigensolution(Family.STANDING_WAVE, shell, scale)
        assert rep.classification == NORMALIZATION

    @pytest.mark.parametrize("fam", [Family.IN, Family.OUT])
    def test_scattering_families_are_distinct(self, fam, shell, scale):
        rep = classify_eigensolution(fam, shell, scale)
        assert rep.classification == PHYSICALLY_DISTINCT

    @pytest.mark.parametrize("fam", list(Family))
    def test_free_potential_degenerates_to_normalization(self, fam, free, scale):
        rep = classify_eigensolution(fam, free, scale)
        assert rep.classification == NORMALIZATION


def two_solve_standing_measure(pot, scale, e):
    """The continuation kappa / (4 pi k J4(k) conj(J4(conj k))), two solves."""
    k = scale.wavenumber(e)
    _, j4 = solve_regular(pot, scale, k).exterior_amplitudes
    _, j4c = solve_regular(pot, scale, k.conjugate()).exterior_amplitudes
    return scale.kappa / (4 * math.pi * k * (j4 * j4c.conjugate()))


class TestStandingMeasureContinued:
    def test_matches_two_solve_continuation(self, shell, scale):
        # includes the real segment 0 < E < 5 where the positive innermost
        # height makes Jminus = -conj(Jplus)
        inner = Potential((1.0, 1.5), (5.0, 9.0))
        grid = GridSpec(re_min=0.3, re_max=20.0, im_min=-5.0, im_max=5.0,
                        n_re=15, n_im=11).points()
        for pot in (shell, inner):
            for e in grid:
                got = standing_of_e(pot, scale, e)
                want = two_solve_standing_measure(pot, scale, e)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_matches_near_a_pole(self, shell, scale):
        st = find_resonances(shell, scale, Region(2.0, 2.5, -0.1, -1e-6))[0]
        for z in (st.z_pole, st.z_pole.conjugate()):
            for d in (1e-4, 1e-6j, -1e-8 + 1e-8j):
                got = standing_of_e(shell, scale, z + d)
                want = two_solve_standing_measure(shell, scale, z + d)
                assert abs(got - want) <= 1e-12 * abs(want)
