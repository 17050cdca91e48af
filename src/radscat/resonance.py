"""Gamow resonance states: zeros of Jplus in the lower half k-plane.

The finder combines an argument-principle winding count over the search
rectangle (so no root can be silently missed) with quadtree subdivision and
Newton refinement.  The counts come from one batched contour pass
(``_windings``) that serves a whole set of rectangles at once: Jplus is
evaluated on every edge point of every rectangle in one call, then, depth by
depth, on the midpoints of all segments whose phase step has not settled in
one call more.  The quadtree is walked breadth first, so all cells of a level
that need splitting share one pass; the cells whose split lines hit a zero
retry with the next split fraction in one more pass.  Newton refines each
single-zero cell from its center with scalar solves.  (ZEAL batches the
contours of a level the same way: Kravanja, Van Barel & Haegemans, Comput.
Phys. Commun. 124 (2000) 212.)  Residue normalizations are computed two
independent ways (contour integral of S and the derivative formula) and must
agree.
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


def _lanes(f, z: np.ndarray) -> np.ndarray:
    """f on every point of z in one call; a non-finite value raises
    OverflowError, as a scalar Jost solve does."""
    v = np.asarray(f(z.ravel())).reshape(z.shape)
    finite = np.isfinite(v)
    if not finite.all():
        raise OverflowError(f"f is not finite at k={z[~finite].flat[0]}")
    return v


def _windings(f, rects: list[Region], n_per_side: int = 16) -> list[int | ContourError]:
    """Argument-principle count of zeros of f inside each rectangle, or the
    ContourError that stopped it.

    f takes a 1-d array of k.  Each side carries n_per_side + 1 points; a
    segment settles when |arg(f1/f0)| <= 0.5 and |f1/f0| lies in [0.25, 4],
    and is halved otherwise, down to depth 48.  One call of f takes the edge
    points of all rectangles, and one more each depth takes the midpoints of
    every unsettled segment of the rectangles that have not failed.
    """
    n = len(rects)
    errors: list[ContourError | None] = [None] * n

    def fail(mask, message):
        for i in np.flatnonzero(mask):
            if errors[owner[i]] is None:
                errors[owner[i]] = ContourError(message(i))

    corners = np.array([r.corners() for r in rects])
    c0, c1 = corners[..., None], np.roll(corners, -1, axis=1)[..., None]
    z = c0 + np.linspace(0.0, 1.0, n_per_side + 1) * (c1 - c0)
    fz = _lanes(f, z)
    z0, z1 = z[..., :-1].ravel(), z[..., 1:].ravel()
    f0, f1 = fz[..., :-1].ravel(), fz[..., 1:].ravel()
    owner = np.repeat(np.arange(n), 4 * n_per_side)
    total = np.zeros(n)
    for depth in range(50):
        fail((f0 == 0) | (f1 == 0), lambda i: f"zero of f on the contour near {z0[i]}")
        live = np.array([e is None for e in errors])[owner]
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.angle(f1 / f0)
            ratio = np.abs(f1) / np.abs(f0)
        settled = live & (np.abs(dphi) <= 0.5) & (0.25 <= ratio) & (ratio <= 4.0)
        total += np.bincount(owner[settled], dphi[settled], n)
        rest = live & ~settled
        if not rest.any():
            break
        if depth == 49:
            fail(rest, lambda i: f"phase tracking did not settle on [{z0[i]}, {z1[i]}]")
            break
        z0, z1, f0, f1, owner = z0[rest], z1[rest], f0[rest], f1[rest], owner[rest]
        zm = (z0 + z1) / 2
        fm = _lanes(f, zm)
        z0, z1 = np.concatenate((z0, zm)), np.concatenate((zm, z1))
        f0, f1 = np.concatenate((f0, fm)), np.concatenate((fm, f1))
        owner = np.concatenate((owner, owner))

    out: list[int | ContourError] = []
    for rect, err, phase in zip(rects, errors, total):
        turns = float(phase) / (2 * math.pi)
        w = round(turns)
        if err is None and abs(turns - w) > 0.05:
            err = ContourError(f"non-integer winding {turns:.4f} over {rect}")
        out.append(w if err is None else err)
    return out


def winding_number(f, region: Region, n_per_side: int = 16) -> int:
    """Argument-principle count of zeros of analytic f inside the rectangle.

    f takes a 1-d array of k.  Raises ContourError where phase tracking
    fails, for example on a zero of f on the boundary.
    """
    (w,) = _windings(f, [region], n_per_side)
    if isinstance(w, ContourError):
        raise w
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

    def f(k):
        return jost(pot, scale, k).j_plus

    outer, total = _winding_jittered(f, outer)
    roots: list[complex] = []
    level: list[tuple[Region, int]] = [(outer, total)]
    while level:
        split = []
        for rect, w in level:
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
            split.append((rect, w))
        level = _split_level(f, split)

    # dedupe: quads share their edges, so two of them can accept the same root
    unique: list[complex] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(r - u) > 1e-8 * (1 + abs(r)) for u in unique):
            unique.append(r)
    if len(unique) != total:
        raise MissedRootsError(
            f"argument principle counts {total} zeros in {outer} but "
            f"{len(unique)} were refined: {unique}"
        )
    if len(unique) > max_states:
        warnings.warn(f"truncating {len(unique)} resonances to max_states={max_states}")
        unique = unique[:max_states]
    return [_build_state(pot, scale, k, DECAYING) for k in unique]


def _quarter(rect: Region, frac: float) -> list[Region]:
    rm = rect.re_min + frac * (rect.re_max - rect.re_min)
    im = rect.im_min + frac * (rect.im_max - rect.im_min)
    return [
        Region(rect.re_min, rm, rect.im_min, im),
        Region(rm, rect.re_max, rect.im_min, im),
        Region(rect.re_min, rm, im, rect.im_max),
        Region(rm, rect.re_max, im, rect.im_max),
    ]


def _split_level(f, cells: list[tuple[Region, int]]) -> list[tuple[Region, int]]:
    """Quarter every cell of a quadtree level, with the winding of each quad.

    The quads of all cells go through one contour pass.  A cell whose quads
    fail or do not add up to its own winding (a split line hit a zero) is
    quartered again at the next fraction, together with the other such cells.
    """
    quads: list[tuple[Region, int]] = []
    for frac in (0.5, 0.46, 0.54, 0.43, 0.57, 0.51):
        if not cells:
            return quads
        split = [_quarter(rect, frac) for rect, _ in cells]
        ws = _windings(f, [q for qs in split for q in qs])
        retry = []
        for j, (cell, qs) in enumerate(zip(cells, split)):
            wq = ws[4 * j:4 * j + 4]
            if all(isinstance(x, int) for x in wq) and sum(wq) == cell[1]:
                quads.extend(zip(qs, wq))
            else:
                retry.append(cell)
        cells = retry
    if cells:
        rect, w = cells[0]
        raise MissedRootsError(f"could not partition winding {w} over {rect}")
    return quads


def _build_state(pot: Potential, scale: PhysicalScale, k_pole: complex, kind: str) -> GamowState:
    sol = solve_regular(pot, scale, k_pole)
    j3, j4 = sol.exterior_amplitudes
    # the residual floor is set by the largest intermediate in the transfer
    # chain (under-barrier values can dwarf the exterior coefficients), so
    # scale the check by it rather than by |J3| alone; chi'/k puts the slope
    # in the units of an amplitude
    local = max(abs(j3), 1e-30)
    for chi, dchi, ls in zip(sol.chi, sol.dchi, sol.log_scale):
        s = math.exp(min(ls, 700.0))
        local = max(local, abs(chi) * s, abs(dchi / k_pole) * s)
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
