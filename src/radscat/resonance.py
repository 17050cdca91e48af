"""Gamow resonance states: zeros of Jplus in the lower half k-plane.

The finder certifies its roots by an argument-principle winding count over
the search rectangle, and refines them by quadtree subdivision and secant
steps.  It searches Jplus k / q0 / e^L with the real L of one solve
(``_jplus``), finite wherever the kernel is: the contour pass compares
log f = log(Jplus / e^L) + L between segment ends, and the secant and the
residue's Jminus / Jplus' take each value relative to a common L; no function
here un-scales J+-.  One batched contour pass (``_windings``) serves a set of
rectangles: one call of f on all their edge points, then, depth by depth, one
on the midpoints of all unsettled segments.  The cells of a quadtree level
that need splitting share one pass, and those whose split lines hit a zero
retry at the next split fraction in one more, as ZEAL batches the contours of
a level (Kravanja, Van Barel & Haegemans, Comput. Phys. Commun. 124 (2000)
212).  Residue normalizations are computed two independent ways (contour
integral of S and the derivative formula) and must agree.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .potential import PhysicalScale, Potential
from .solution import LayerSolution, _exterior, _relative, evaluate_chi, solve_regular
from .spectral import _scaled_pair, s_matrix

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
    prefactor: complex  # norm / (J3 / e^L); times chi of sol, in units of e^L
    norm: complex

    @property
    def e_res(self) -> float:
        return self.z_pole.real

    @property
    def gamma(self) -> float:
        return 2 * abs(self.z_pole.imag)


def _jplus(pot: Potential, scale: PhysicalScale, k):
    """(Jplus / e^L, L) at k or at a 1-d array of k, times ``_core`` unless the core is free."""
    sol = solve_regular(pot, scale, k)
    jp, log_scale = _scaled_pair(sol)
    return (jp.j_plus * _core(sol) if pot.heights[0] else jp.j_plus), log_scale


def _core(sol: LayerSolution):
    """k / q0, k where q0 = 0: Jplus carries the q0 of the sin(q0 r) start, whose sign
    flips across its branch cut, and k cancels the pole of Jplus / q0 at k = 0."""
    q0 = sol.q[0]
    return sol.k / (np.where(q0 == 0, 1, q0) if isinstance(q0, np.ndarray) else q0 or 1)


def _lanes(f, z: np.ndarray) -> np.ndarray:
    """log f on every point of z in one call, from f's values or its pair
    (m, L), f = m e^L; a non-finite m or L raises OverflowError."""
    v = f(z.ravel())
    m, log_scale = v if isinstance(v, tuple) else (np.asarray(v, dtype=complex), 0.0)
    finite = np.isfinite(m) & np.isfinite(log_scale)
    if not finite.all():
        raise OverflowError(f"f is not finite at k={z.ravel()[~finite][0]}")
    with np.errstate(divide="ignore"):
        return (np.log(m) + log_scale).reshape(z.shape)


def _windings(f, rects: list[Region], n_per_side: int = 16) -> list[int | ContourError]:
    """Argument-principle count of zeros of f inside each rectangle, or the
    ContourError that stopped it.

    f takes a 1-d array of k (see ``winding_number``).  Each side carries
    n_per_side + 1 points; a segment settles when |arg(f1/f0)| <= 0.5 and
    |f1/f0| lies in [0.25, 4], both read from log f, and is halved otherwise,
    down to depth 48.  One call of f takes the edge points of all rectangles,
    and one more each depth takes the midpoints of every unsettled segment of
    the rectangles that have not failed.
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
    lz = _lanes(f, z)
    z0, z1 = z[..., :-1].ravel(), z[..., 1:].ravel()
    l0, l1 = lz[..., :-1].ravel(), lz[..., 1:].ravel()
    owner = np.repeat(np.arange(n), 4 * n_per_side)
    total = np.zeros(n)
    for depth in range(50):
        fail((l0.real == -np.inf) | (l1.real == -np.inf),
             lambda i: f"zero of f on the contour near {z0[i]}")
        live = np.array([e is None for e in errors])[owner]
        with np.errstate(invalid="ignore"):
            dlog = l1 - l0
        dphi = dlog.imag - 2 * math.pi * np.rint(dlog.imag / (2 * math.pi))
        settled = live & (np.abs(dphi) <= 0.5) & (np.abs(dlog.real) <= math.log(4.0))
        total += np.bincount(owner[settled], dphi[settled], n)
        rest = live & ~settled
        if not rest.any():
            break
        if depth == 49:
            fail(rest, lambda i: f"phase tracking did not settle on [{z0[i]}, {z1[i]}]")
            break
        z0, z1, l0, l1, owner = z0[rest], z1[rest], l0[rest], l1[rest], owner[rest]
        zm = (z0 + z1) / 2
        lm = _lanes(f, zm)
        z0, z1 = np.concatenate((z0, zm)), np.concatenate((zm, z1))
        l0, l1 = np.concatenate((l0, lm)), np.concatenate((lm, l1))
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

    f takes a 1-d array of k and returns f there, or a pair (m, L) of
    lanes with f = m e^L and L real, as the finder's ``_jplus`` does.
    Raises ContourError where phase tracking fails, for example on a zero of
    f on the boundary.
    """
    (w,) = _windings(f, [region], n_per_side)
    if isinstance(w, ContourError):
        raise w
    return w


def _secant(f, k0: complex, leash: float, rtol: float = 1e-13) -> complex | None:
    """Secant from k0 and k0 + 1e-5 max(1, |k0|) to a zero of f: k -> (m, L); None off
    the leash or on a zero denominator.  Each ratio reads m e^{L - M}, M the larger L."""
    k1, (m1, l1), k = k0, f(k0), k0 + 1e-5 * max(1.0, abs(k0))
    for _ in range(60):
        m, ls = f(k)
        top = max(ls, l1)
        a, b = m1 * math.exp(l1 - top), m * math.exp(ls - top)
        if a == b:
            return None
        step = b * (k - k1) / (b - a)
        k1, m1, l1, k = k, m, ls, k - step
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
    f = partial(_jplus, pot, scale)
    # keep the contour away from the degenerate point k = 0, and pad it when
    # a zero of Jplus sits on it
    re_min, pad = max(region.re_min, 1e-9), 0.0
    for _ in range(6):
        outer = Region(re_min - pad, region.re_max + pad, region.im_min - pad, region.im_max + pad)
        try:
            total = winding_number(f, outer)
            break
        except ContourError:
            pad = outer.size * 1e-3 if pad == 0 else pad * 2.7
    else:
        raise ContourError(f"could not compute a clean winding number over {region}")
    roots: list[complex] = []
    level: list[tuple[Region, int]] = [(outer, total)]
    while level:
        split = []
        for rect, w in level:
            if w == 0:
                continue
            if w == 1:
                root = _secant(f, rect.center, leash=4 * rect.size)
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
        raise MissedRootsError(f"argument principle counts {total} zeros in {outer} but "
                               f"{len(unique)} were refined: {unique}")
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
        raise MissedRootsError(f"could not partition winding {cells[0][1]} over {cells[0][0]}")
    return quads


def _build_state(pot: Potential, scale: PhysicalScale, k_pole: complex, kind: str) -> GamowState:
    sol = solve_regular(pot, scale, k_pole)
    j3, j4, log_scale = _exterior(sol)
    sol = _relative(sol, log_scale)
    # the residual floor is set by the largest intermediate in the transfer
    # chain (under-barrier values can dwarf the exterior coefficients), not
    # by |J3| alone; chi'/k puts the slope in the units of an amplitude, and
    # all are in units of e^L, which no record exceeds
    local = max([abs(j3)] + [max(abs(chi), abs(dchi / k_pole)) * math.exp(ls)
                             for chi, dchi, ls in zip(sol.chi, sol.dchi, sol.log_scale)])
    if abs(j4) > POLE_RESIDUAL_RTOL * local:
        raise ValueError(f"k={k_pole} is not a zero of Jplus: "
                         f"|J4| is {abs(j4) / local:.3e} of the local scale")
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
    raises PoleError if any of its points does; neither method overflows.
    """
    k_pole = complex(k_pole)
    r0 = _CONTOUR_RADIUS * max(1.0, abs(k_pole))
    svals = s_matrix(pot, scale, k_pole + r0 * _CONTOUR).s
    res_contour = (r0 / _CONTOUR.size) * np.sum(svals * _CONTOUR)

    sol = solve_regular(pot, scale, k_pole)
    jp, log_scale = _scaled_pair(sol)
    h = 1e-5 * max(1.0, abs(k_pole))
    a, b = (m * math.exp(ls - log_scale)
            for m, ls in (_jplus(pot, scale, k_pole + h), _jplus(pot, scale, k_pole - h)))
    res_deriv = jp.j_minus * _core(sol) * (2 * h) / (a - b)

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
    b = state.pot.outer_radius
    chi = state.prefactor * evaluate_chi(state.sol, np.minimum(rs, b))
    return np.where(rs <= b, chi, state.norm * np.exp(1j * state.k_pole * rs))[()]
