import cmath
import math

import numpy as np
import pytest

from radscat import PhysicalScale, Potential, make_shell, sqrt_branch
from radscat.solution import _wavenumbers


class TestMakeShell:
    def test_zero_height_is_valid(self, scale):
        pot = make_shell(0.0, 1.0, 2.0, scale)
        assert pot.heights == (0.0, 0.0)

    def test_barrier_shell(self, scale):
        pot = make_shell(8.0, 1.0, 2.0, scale)
        assert pot.breakpoints == (1.0, 2.0)
        assert pot.heights == (0.0, 8.0)
        assert pot.outer_radius == 2.0

    def test_reversed_radii_rejected(self, scale):
        with pytest.raises(ValueError, match="breakpoints not increasing"):
            make_shell(8.0, 2.0, 1.0, scale)

    @pytest.mark.parametrize("a,b,v0", [(0.0, 2.0, 8.0), (-1.0, 2.0, 8.0),
                                        (1.0, 1.0, 8.0), (1.0, 2.0, math.nan),
                                        (1.0, 2.0, math.inf)])
    def test_invalid_inputs_rejected(self, a, b, v0, scale):
        with pytest.raises(ValueError):
            make_shell(v0, a, b, scale)


class TestPotential:
    def test_roundtrip_identity(self):
        pot = Potential(breakpoints=(0.5, 1.25, 4.0), heights=(-2.0, 3.0, 1.5))
        assert pot.heights == (-2.0, 3.0, 1.5)
        assert pot.height(3) == 0.0

    def test_layer_of(self):
        pot = Potential(breakpoints=(1.0, 2.0), heights=(0.0, 8.0))
        assert pot.layer_of(0.0) == 0
        assert pot.layer_of(1.0) == 1  # breakpoint goes right
        assert pot.layer_of(1.5) == 1
        assert pot.layer_of(7.0) == 2
        with pytest.raises(ValueError):
            pot.layer_of(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Potential(breakpoints=(), heights=())
        with pytest.raises(ValueError):
            Potential(breakpoints=(1.0, 1.0), heights=(0.0, 1.0))
        with pytest.raises(ValueError):
            Potential(breakpoints=(1.0,), heights=(0.0, 1.0))
        with pytest.raises(ValueError):
            Potential(breakpoints=(1.0,), heights=(math.nan,))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            PhysicalScale(kappa=0.0)
        with pytest.raises(ValueError):
            PhysicalScale(kappa=-1.0)


class TestSqrtBranch:
    def test_positive_real(self):
        assert sqrt_branch(4.0) == 2.0

    def test_negative_real_maps_to_upper_edge(self):
        assert sqrt_branch(-4.0) == 2j
        assert sqrt_branch(complex(-4.0, -0.0)) == 2j

    def test_negative_imaginary(self):
        w = sqrt_branch(-4j)
        assert abs(w) == pytest.approx(2.0, rel=1e-15)
        assert cmath.phase(w) == pytest.approx(-math.pi / 4, rel=1e-15)

    def test_zero(self):
        assert sqrt_branch(0.0) == 0.0

    def test_square_and_range_on_grid(self, rng):
        zs = rng.normal(size=200) + 1j * rng.normal(size=200)
        for z in zs:
            w = sqrt_branch(z)
            assert abs(w * w - z) <= 1e-14 * abs(z)
            assert -math.pi / 2 < cmath.phase(w) <= math.pi / 2


class TestLocalWavenumber:
    def test_free_layer_is_identity(self, free, scale):
        for k in (3.0, 0.5 - 2.1j, -1.7 - 0.3j):
            assert _wavenumbers(free, scale, k)[1] == k

    def test_shell_at_barrier(self, shell, scale):
        assert _wavenumbers(shell, scale, 3.0)[1] == pytest.approx(1.0)

    def test_index_bounds(self, shell, scale):
        with pytest.raises(IndexError):
            _wavenumbers(shell, scale, 3.0)[5]

    def test_complex_branch_matches_bookkept_sqrt(self, shell, scale, rng):
        # oracle: plain sqrt with an explicit flip onto Re >= 0
        ks = 3 * (rng.normal(size=100) + 1j * rng.normal(size=100))
        for k in ks:
            q = _wavenumbers(shell, scale, k)[1]
            w = cmath.sqrt(k * k - 8.0)
            if w.real < 0 or (w.real == 0 and w.imag < 0):
                w = -w
            assert abs(q - w) <= 1e-13 * max(1.0, abs(w))

    def test_energy_identity(self, shell, scale, rng):
        ks = 5 * (rng.normal(size=100) + 1j * rng.normal(size=100))
        for k in ks:
            for layer in range(shell.n_layers):
                q = _wavenumbers(shell, scale, k)[layer]
                lhs = q * q + scale.kappa * shell.height(layer)
                assert abs(lhs - k * k) <= 1e-13 * max(1.0, abs(k) ** 2)
