"""Gamow resonance states: zeros of Jplus in the lower half k-plane.

The finder combines an argument-principle winding count over the search
rectangle (so no root can be silently missed) with quadtree subdivision and
Newton refinement.  Residue normalizations are computed two independent ways
(contour integral of S and the derivative formula) and must agree.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .potential import PhysicalScale, Potential
from .solution import LayerSolution, evaluate_chi, solve_regular
from .spectral import jost, s_matrix

DECAYING = "decaying"
GROWING = "growing"

#: |Jplus| at an accepted pole, relative to the local Jost scale
POLE_RESIDUAL_RTOL = 1e-10
#: agreement required between the two residue methods
RESIDUE_AGREEMENT_RTOL = 1e-6

#: residue contour: radius relative to max(1, |k_pole|) and the e^{i theta}
#: of its trapezoid points
_CONTOUR_RADIUS = 1e-3
_CONTOUR = np.exp(2j * math.pi * np.arange(64) / 64)


class MissedRootsError(RuntimeError):
    """Winding count and refined-root count disagree."""


class IllConditionedResidueError(RuntimeError):
    """Contour and derivative residues disagree (double pole or bad contour)."""


class ContourError(RuntimeError):
    """Phase tracking along a cell boundary failed to settle."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in the complex k plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate region")

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    @property
    def size(self) -> float:
        return max(self.re_max - self.re_min, self.im_max - self.im_min)

    def contains(self, k: complex) -> bool:
        return self.re_min <= k.real <= self.re_max and self.im_min <= k.imag <= self.im_max

    def corners(self) -> list[complex]:
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]


@dataclass(frozen=True)
class GamowState:
    """One resonance eigensolution at a pole of the S matrix."""

    kind: str
    k_pole: complex
    z_pole: complex
    norm_sq: complex
    pot: Potential
    scale: PhysicalScale
    sol: LayerSolution
    prefactor: complex  # norm / J3(k_pole); chi * prefactor is the eigenfunction
    norm: complex

    @property
    def e_res(self) -> float:
        return self.z_pole.real

    @property
    def gamma(self) -> float:
        return 2 * abs(self.z_pole.imag)

    @property
    def amplitudes(self) -> tuple[tuple[complex, complex], ...]:
        """Per-layer (c_out, c_in); the exterior incoming amplitude is exactly 0."""
        amps = [(self.prefactor * co, self.prefactor * ci)
                for co, ci in self.sol.layer_amplitudes]
        amps[-1] = (self.norm, 0j)
        return tuple(amps)


def _phase_sum(f, z0, z1, f0, f1, depth=0):
    """Accumulated phase of f along the segment [z0, z1], adaptively refined."""
    if f0 == 0 or f1 == 0:
        raise ContourError(f"zero of f on the contour near {z0}")
    dphi = cmath.phase(f1 / f0)
    ratio = abs(f1) / abs(f0)
    if abs(dphi) <= 0.5 and 0.25 <= ratio <= 4.0:
        return dphi
    if depth > 48:
        raise ContourError(f"phase tracking did not settle on [{z0}, {z1}]")
    zm = (z0 + z1) / 2
    fm = f(zm)
    return _phase_sum(f, z0, zm, f0, fm, depth + 1) + _phase_sum(f, zm, z1, fm, f1, depth + 1)


def winding_number(f, region: Region, n_per_side: int = 16) -> int:
    """Argument-principle count of zeros of analytic f inside the rectangle."""
    corners = region.corners()
    total = 0.0
    for c0, c1 in zip(corners, corners[1:] + corners[:1]):
        ts = np.linspace(0.0, 1.0, n_per_side + 1)
        zs = [c0 + t * (c1 - c0) for t in ts]
        fs = [f(z) for z in zs]
        for i in range(n_per_side):
            total += _phase_sum(f, zs[i], zs[i + 1], fs[i], fs[i + 1])
    turns = total / (2 * math.pi)
    w = round(turns)
    if abs(turns - w) > 0.05:
        raise ContourError(f"non-integer winding {turns:.4f} over {region}")
    return w


def _winding_jittered(f, region: Region, max_tries: int = 6) -> tuple[Region, int]:
    """Winding number with small boundary perturbations when a zero sits on it."""
    pad = 0.0
    for _ in range(max_tries):
        r = Region(
            region.re_min - pad, region.re_max + pad,
            region.im_min - pad, region.im_max + pad,
        )
        try:
            return r, winding_number(f, r)
        except ContourError:
            pad = region.size * 1e-3 if pad == 0 else pad * 2.7
    raise ContourError(f"could not compute a clean winding number over {region}")


def _derivative(f, k: complex, h: float) -> complex:
    """Five-point central difference f'(k), error O(h^4)."""
    return (-f(k + 2 * h) + 8 * f(k + h) - 8 * f(k - h) + f(k - 2 * h)) / (12 * h)


def _newton(f, k0: complex, leash: float, rtol: float = 1e-13) -> complex | None:
    k = k0
    for _ in range(60):
        fk = f(k)
        d = _derivative(f, k, 5e-7 * max(1.0, abs(k)))
        if d == 0:
            return None
        step = fk / d
        k = k - step
        if abs(k - k0) > leash:
            return None
        if abs(step) <= rtol * max(1e-30, abs(k)):
            return k
    return None


def find_resonances(
    pot: Potential,
    scale: PhysicalScale,
    region: Region,
    max_states: int = 50,
) -> list[GamowState]:
    """All decaying Gamow states with momenta inside the fourth-quadrant region.

    The refined-root count is certified against the winding number of Jplus
    around the region boundary; a mismatch raises MissedRootsError.
    """
    if region.re_min < 0 or region.im_max > 0:
        raise ValueError("search region must lie in Re k >= 0, Im k <= 0")
    # keep the contour away from the degenerate point k = 0
    re_min = max(region.re_min, 1e-9)
    outer = Region(re_min, region.re_max, region.im_min, region.im_max)

    def f(k: complex) -> complex:
        return jost(pot, scale, k).j_plus

    outer, total = _winding_jittered(f, outer)
    roots: list[complex] = []
    stack: list[tuple[Region, int]] = [(outer, total)]
    while stack:
        rect, w = stack.pop()
        if w == 0:
            continue
        if w == 1:
            root = _newton(f, rect.center, leash=4 * rect.size)
            if root is not None and rect.contains(root):
                roots.append(root)
                continue
        if rect.size < 1e-9 * (1 + abs(rect.center)):
            # unresolved cluster (double pole?); report the center once
            warnings.warn(f"unresolved zero cluster of order {w} near {rect.center}")
            roots.append(rect.center)
            continue
        stack.extend(_split_cell(f, rect, w))

    # dedupe (jittered subcells may overlap) and keep roots inside the request
    unique: list[complex] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(r - u) > 1e-8 * (1 + abs(r)) for u in unique):
            unique.append(r)
    unique = [r for r in unique if outer.contains(r)]
    if len(unique) != total:
        raise MissedRootsError(
            f"argument principle counts {total} zeros in {outer} but "
            f"{len(unique)} were refined: {unique}"
        )
    unique.sort(key=lambda z: z.real)
    if len(unique) > max_states:
        warnings.warn(f"truncating {len(unique)} resonances to max_states={max_states}")
        unique = unique[:max_states]
    return [_build_state(pot, scale, k, DECAYING) for k in unique]


def _split_cell(f, rect: Region, w: int) -> list[tuple[Region, int]]:
    """Quarter a cell, moving the split lines off any zero they happen to hit."""
    for frac in (0.5, 0.46, 0.54, 0.43, 0.57, 0.51):
        rm = rect.re_min + frac * (rect.re_max - rect.re_min)
        im = rect.im_min + frac * (rect.im_max - rect.im_min)
        quads = [
            Region(rect.re_min, rm, rect.im_min, im),
            Region(rm, rect.re_max, rect.im_min, im),
            Region(rect.re_min, rm, im, rect.im_max),
            Region(rm, rect.re_max, im, rect.im_max),
        ]
        try:
            pairs = [(q, winding_number(f, q)) for q in quads]
        except ContourError:
            continue
        if sum(wq for _, wq in pairs) == w:
            return pairs
    raise MissedRootsError(f"could not partition winding {w} over {rect}")


def _build_state(pot: Potential, scale: PhysicalScale, k_pole: complex, kind: str) -> GamowState:
    sol = solve_regular(pot, scale, k_pole)
    j3, j4 = sol.exterior_amplitudes
    # the residual floor is set by the largest intermediate in the matching
    # chain (under-barrier amplitudes can dwarf the exterior coefficients),
    # so scale the check by it rather than by |J3| alone
    local = max(abs(j3), 1e-30)
    for w in sol.layers:
        s = math.exp(min(w.log_scale, 700.0))
        local = max(local, abs(w.a_out) * s, abs(w.a_in) * s)
    if abs(j4) > POLE_RESIDUAL_RTOL * local:
        raise ValueError(f"k={k_pole} is not a zero of Jplus: |J4|={abs(j4):.3e}")
    norm_sq = residue_norm(pot, scale, k_pole)
    norm = cmath.sqrt(norm_sq)
    return GamowState(
        kind=kind,
        k_pole=k_pole,
        z_pole=k_pole ** 2 / scale.kappa,
        norm_sq=norm_sq,
        pot=pot,
        scale=scale,
        sol=sol,
        prefactor=norm / j3,
        norm=norm,
    )


def growing_partner(state: GamowState) -> GamowState:
    """Partner state at -conj(k); an involution between decaying and growing."""
    kind = GROWING if state.kind == DECAYING else DECAYING
    return _build_state(state.pot, state.scale, -state.k_pole.conjugate(), kind)


def residue_norm(pot: Potential, scale: PhysicalScale, k_pole: complex) -> complex:
    """N^2 = i * res S(k) at a simple pole, with a built-in cross-check.

    The contour value (trapezoid on a circle, spectrally accurate) must agree
    with i*Jminus/Jplus' to RESIDUE_AGREEMENT_RTOL or the residue is declared
    ill-conditioned.  The contour is one batched S-matrix evaluation, which
    raises PoleError or OverflowError if any of its points does.
    """
    k_pole = complex(k_pole)
    r0 = _CONTOUR_RADIUS * max(1.0, abs(k_pole))
    svals = s_matrix(pot, scale, k_pole + r0 * _CONTOUR).s
    res_contour = (r0 / _CONTOUR.size) * np.sum(svals * _CONTOUR)

    def jp(k):
        return jost(pot, scale, k).j_plus

    djp = _derivative(jp, k_pole, 1e-5 * max(1.0, abs(k_pole)))
    res_deriv = jost(pot, scale, k_pole).j_minus / djp

    scale_ref = max(abs(res_contour), abs(res_deriv))
    if abs(res_contour - res_deriv) > RESIDUE_AGREEMENT_RTOL * scale_ref:
        raise IllConditionedResidueError(
            f"residue methods disagree at k={k_pole}: contour={res_contour}, "
            f"derivative={res_deriv}"
        )
    return 1j * complex(res_contour)


def gamow_eigenfunction(state: GamowState, r):
    """Piecewise Gamow eigenfunction; the tail is exactly norm * e^{i k r}."""
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rs = np.atleast_1d(rs)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    out = np.empty(rs.shape, dtype=complex)
    b = state.pot.outer_radius
    inner = rs <= b
    if inner.any():
        out[inner] = state.prefactor * evaluate_chi(state.sol, rs[inner])
    tail = ~inner
    if tail.any():
        out[tail] = state.norm * np.exp(1j * state.k_pole * rs[tail])
    return out[0] if scalar else out
