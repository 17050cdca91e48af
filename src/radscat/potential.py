"""Piecewise-constant radial potentials and the physical unit scale.

A potential is a finite stack of constant-height layers on (0, b] with a
vanishing tail beyond the outer radius b.  All energies relate to wavenumbers
through the single scale kappa = 2m/hbar^2, so E = k^2/kappa.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


def sqrt_branch(value):
    """Square root mapping arg in (-pi, pi] to arg in (-pi/2, pi/2].

    Negative real inputs land on the upper edge of the cut: sqrt(-4) = 2j,
    whatever the sign of the zero imaginary part; 0 maps to 0.  An array
    input gives an array with the same per-element semantics.
    """
    if getattr(value, "ndim", 0):
        z = np.asarray(value, dtype=complex)
        root = np.sqrt(z)
        # np.sqrt puts a -0.0 imaginary part on the lower edge and keeps the
        # sign of a zero's imaginary part; fix up the cut and zero lanes only
        on_axis = z.imag == 0
        if np.count_nonzero(on_axis):
            cut = on_axis & (z.real <= 0)
            root[cut] = 1j * np.sqrt(np.abs(z.real[cut]))
        return root
    return _sqrt_branch_scalar(value)


def _sqrt_branch_scalar(value: complex) -> complex:
    z = complex(value)
    if z == 0:
        return 0j
    if z.real < 0 and z.imag == 0:
        # arg = pi regardless of the sign of the zero imaginary part
        return 1j * math.sqrt(-z.real)
    return cmath.sqrt(z)


@dataclass(frozen=True)
class PhysicalScale:
    """Unit system: kappa = 2m/hbar^2 relating energy and wavenumber."""

    kappa: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be a positive finite real, got {self.kappa}")

    def wavenumber(self, energy):
        """k = sqrt(kappa * E) on the branch with Re k >= 0; arrays map elementwise."""
        e = np.asarray(energy, dtype=complex) if getattr(energy, "ndim", 0) else complex(energy)
        return sqrt_branch(self.kappa * e)


@dataclass(frozen=True)
class Potential:
    """Radial potential that is constant between consecutive breakpoints.

    Layer 0 is [0, breakpoints[0]) with height heights[0]; layer i is
    [breakpoints[i-1], breakpoints[i]); the exterior beyond the last
    breakpoint is identically zero and carries index ``len(heights)``.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(r) for r in self.breakpoints)
        hs = tuple(float(v) for v in self.heights)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        if len(bp) < 1:
            raise ValueError("need at least one breakpoint")
        if len(bp) != len(hs):
            raise ValueError(
                f"got {len(bp)} breakpoints but {len(hs)} heights; lengths must match"
            )
        if bp[0] <= 0 or any(not math.isfinite(r) for r in bp):
            raise ValueError("breakpoints must be finite and positive")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints not increasing")
        if any(not math.isfinite(v) for v in hs):
            raise ValueError("heights must be finite")

    @property
    def outer_radius(self) -> float:
        return self.breakpoints[-1]

    @property
    def n_layers(self) -> int:
        """Number of layers including the zero exterior."""
        return len(self.heights) + 1

    def height(self, layer: int) -> float:
        """Height of the given layer; the exterior layer is 0 by construction."""
        if not 0 <= layer < self.n_layers:
            raise IndexError(f"layer {layer} out of range [0, {self.n_layers})")
        if layer == len(self.heights):
            return 0.0
        return self.heights[layer]

    def layer_of(self, r: float) -> int:
        """Index of the layer containing radius r (breakpoints go to the right layer)."""
        if r < 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        return bisect_right(self.breakpoints, r)


def make_shell(v0: float, a: float, b: float, scale: PhysicalScale | None = None) -> Potential:
    """Spherical shell of height v0 between radii a and b, free elsewhere."""
    if not math.isfinite(v0):
        raise ValueError(f"shell height must be finite, got {v0}")
    if a <= 0:
        raise ValueError(f"inner radius must be positive, got {a}")
    if b <= a:
        raise ValueError("breakpoints not increasing: need 0 < a < b, "
                         f"got a={a}, b={b}")
    return Potential(breakpoints=(a, b), heights=(0.0, v0))

