"""Jost functions, S-matrix, spectral measures and delta-normalized families.

This module is the single home of the conventions; every other module calls
the definitions below instead of restating them.

Jost functions.  With (J3, J4) the outgoing/incoming exterior amplitudes of
the regular solution chi(r;k) (``LayerSolution.exterior_amplitudes``),

    Jplus = -2i J4,   Jminus = 2i J3,   S = Jminus / Jplus.

Spectral measures.  For the scattering families

    rho+(k) = rho-(k) = kappa / (pi k),

analytic in k.  For the standing-wave family

    rho(k) = kappa / (pi k Jplus(k) conj(Jplus(conj k))).

On the physical line this is the measure kappa / (4 pi k |J4|^2).  Off the
real axis conj(Jplus(conj k)) = Jminus(k) (the conjugation identity
conj(J4(conj k)) = J3(k)), so the continuation kappa / (pi k Jplus Jminus)
needs one solve.  On the real axis the conjugate is taken directly: chi
starts as sin(q0 r) with q0 = sqrt(k^2 - kappa V_0), whose branch jumps
across the real segment k^2 < kappa V_0 of a positive innermost height V_0,
and there Jminus = -conj(Jplus).

Families.  The three continuum families share the radial shape chi(r;k) and
differ only by the energy-dependent factor in front of it
(``family_factor``):

    standing wave:  sqrt(rho(k)) chi(r;k)
    in:             sqrt(rho+(k)) chi(r;k) / Jplus(k)
    out:            sqrt(rho-(k)) chi(r;k) / Jminus(k)

Scaling.  One solve gives the pair divided by e^L, with one real L
(``_scaled_pair``).  S, the family factors, the measures and the resonance
finder use it and L apart, and the eigenfunctions move e^L onto chi, so a
tall barrier or a deep complex k leaves them finite.  Only ``jost`` and
``exterior_amplitudes`` multiply by e^L, raising OverflowError for a scalar k
where J+- leave the float range; inside the library only the criterion reads
them, so that its overflowed lanes are counted.

Arrays.  ``jost`` and ``s_matrix`` take either one k or a 1-d array of k;
``solution.solve_regular`` propagates an array in one pass, and the pair has
array fields.  ``scattering_density``, ``standing_density`` and
``family_factor`` work elementwise on such pairs.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from .potential import PhysicalScale, Potential, sqrt_branch
from .solution import LayerSolution, _exterior, _relative, _unscale, evaluate_chi, solve_regular


class Family(str, enum.Enum):
    STANDING_WAVE = "standing_wave"
    IN = "in"
    OUT = "out"


class PoleError(ArithmeticError):
    """S-matrix evaluation requested at a (numerical) zero of Jplus."""


@dataclass(frozen=True)
class JostPair:
    """J+- at k; the fields are arrays when k is an array."""

    k: complex
    j_plus: complex
    j_minus: complex


@dataclass(frozen=True)
class SMatrixValue:
    k: complex
    s: complex


def _any(mask) -> bool:
    """Whether a bool, or any element of a bool array, is set (np.any costs
    microseconds on a plain bool, which the scalar paths cannot afford)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first(k, mask):
    """The first k where mask is set (k itself for a scalar)."""
    return np.asarray(k)[mask].flat[0]


def _scaled_pair(sol: LayerSolution) -> tuple[JostPair, float]:
    """Jplus = -2i J4, Jminus = 2i J3 of one solve, divided by e^L, and the
    real L (lanes for an array k): every ratio of the pair is formed from it."""
    j3, j4, log_scale = _exterior(sol)
    return JostPair(k=sol.k, j_plus=-2j * j4, j_minus=2j * j3), log_scale


def jost(pot: Potential, scale: PhysicalScale, k) -> JostPair:
    """Jost functions at complex k, or at a 1-d array of k in one pass (one
    solve); a lane that overflows comes out non-finite, where a scalar k
    raises OverflowError."""
    jp, log_scale = _scaled_pair(solve_regular(pot, scale, k))
    return JostPair(jp.k, *_unscale(jp.k, jp.j_plus, jp.j_minus, log_scale))


def s_matrix(pot: Potential, scale: PhysicalScale, k) -> SMatrixValue:
    """S(k) = Jminus/Jplus of the scaled pair, elementwise for an array k:
    finite also where J+- overflow.  Raises PoleError at zeros of Jplus."""
    jp, _ = _scaled_pair(solve_regular(pot, scale, k))
    at_pole = abs(jp.j_plus) <= 1e-14 * abs(jp.j_minus)
    if _any(at_pole):
        raise PoleError(f"Jplus vanishes at k={_first(jp.k, at_pole)}: resonance pole")
    return SMatrixValue(k=jp.k, s=jp.j_minus / jp.j_plus)


def scattering_density(scale: PhysicalScale, k):
    """rho+(k) = rho-(k) = kappa / (pi k), analytic in k."""
    return scale.kappa / (math.pi * k)


def standing_density(scale: PhysicalScale, jp: JostPair):
    """rho(k) = kappa / (pi k Jplus(k) conj(Jplus(conj k))) from the pair at k.

    conj(Jplus(conj k)) is Jminus(k) off the real axis and conj(Jplus(k)) on
    it (see the module docstring), so one solve suffices everywhere.
    """
    mirror = np.where(np.imag(jp.k) == 0, np.conj(jp.j_plus), jp.j_minus)
    if mirror.ndim == 0:
        mirror = complex(mirror)  # a scalar pair keeps Python complex arithmetic
    return scattering_density(scale, jp.k) / (jp.j_plus * mirror)


def family_factor(kind: Family, scale: PhysicalScale, jp: JostPair):
    """The factor multiplying chi(r;k) in the family's eigenfunction at k."""
    if kind == Family.STANDING_WAVE:
        return sqrt_branch(standing_density(scale, jp))
    denom = jp.j_plus if kind == Family.IN else jp.j_minus
    if _any(denom == 0):
        raise PoleError(f"Jost function vanishes at k={_first(jp.k, denom == 0)}")
    return sqrt_branch(scattering_density(scale, jp.k)) / denom


def measure(kind: Family, pot: Potential, scale: PhysicalScale, k: float) -> float:
    """Spectral measure on the physical line k > 0."""
    k = float(k)
    if k <= 0:
        raise ValueError(f"measure defined for real k > 0, got {k}")
    if kind == Family.STANDING_WAVE:  # rho has degree -2 in the pair, and L >= 0
        jp, log_scale = _scaled_pair(solve_regular(pot, scale, k))
        return standing_density(scale, jp).real * math.exp(-2 * log_scale)
    return scattering_density(scale, k)


def eigenfunction(kind: Family, pot: Potential, scale: PhysicalScale, energy: float, r):
    """Delta-normalized eigenfunction of the given family at real energy > 0.

    Vectorized over r.
    """
    kind = Family(kind)
    energy = float(energy)
    if energy <= 0:
        raise ValueError(f"physical spectrum is (0, inf); got E={energy}")
    sol = solve_regular(pot, scale, scale.wavenumber(energy).real)
    jp, log_scale = _scaled_pair(sol)  # the factor has degree -1 in the pair
    return family_factor(kind, scale, jp) * evaluate_chi(_relative(sol, log_scale), r)


def energy_transform(
    kind: Family,
    pot: Potential,
    scale: PhysicalScale,
    psi: Sequence[complex],
    r_max: float,
    e_grid: Sequence[float],
) -> np.ndarray:
    """Overlap coefficients psi_hat(E) = int dr conj(<r|E>) psi(r).

    ``psi`` must be sampled on a uniform grid over [0, r_max]; the quadrature
    is composite Simpson.  The sampling must resolve the fastest oscillation
    sin(k_max r): aim for dr < pi / (4 k_max) or a heuristic warning is
    emitted.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size < 3:
        raise ValueError("psi must be a 1-d array of at least 3 samples")
    e_grid = np.asarray(e_grid, dtype=float)
    if e_grid.size == 0:
        raise ValueError("empty energy grid")
    if np.any(np.diff(e_grid) <= 0):
        raise ValueError("energy grid must be strictly increasing")
    if e_grid[0] <= 0:
        raise ValueError("energies must be positive")
    r = np.linspace(0.0, float(r_max), psi.size)
    dr = r[1] - r[0]
    k_max = scale.wavenumber(e_grid[-1]).real
    if k_max * dr > math.pi / 4:
        warnings.warn(
            f"psi sampling (dr={dr:.3g}) may undersample oscillations at "
            f"k_max={k_max:.3g}; refine the r grid",
            RuntimeWarning,
        )
    phi = np.empty((e_grid.size, r.size), dtype=complex)
    for i, energy in enumerate(e_grid):
        phi[i] = eigenfunction(kind, pot, scale, energy, r)
    np.conjugate(phi, out=phi)
    phi *= psi
    return simpson(phi, x=r, axis=-1)
