"""Independent oracles and distributional checks.

Everything here exists to check the production modules from a different
direction: a fixed-step Runge-Kutta integrator for chi and the S fitted to
it, a closed-form shell Jost function with a brute-force grid/bisection root
scan, and the smeared delta-normalization test that is the only meaningful
way to probe distributional orthonormality numerically.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .potential import PhysicalScale, Potential
from .solution import _wavenumbers
from .spectral import Family, eigenfunction


# ---------------------------------------------------------------------------
# initial-value oracle for the regular solution

def rk_oracle(pot, scale, k, r_samples, step: float | None = None):
    """chi at the given radii by classic RK4 on (chi, chi').

    Initial data chi(0)=0, chi'(0)=q0 reproduce the sin(q0 r) normalization
    of the innermost layer.  Fixed step, O(h^4); integration segments are
    split at breakpoints so the piecewise-constant potential is smooth within
    every step.
    """
    k = complex(k)
    h_want = step if step is not None else 1e-3 / max(1.0, abs(k))
    rs = np.atleast_1d(np.asarray(r_samples, dtype=float))
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    order = np.argsort(rs)
    sorted_rs = rs[order]

    q0 = _wavenumbers(pot, scale, k)[0]
    kappa = scale.kappa

    # nodes: 0, all breakpoints below max radius, and the sample radii
    stops = sorted(set([0.0] + list(sorted_rs) +
                       [b for b in pot.breakpoints if b < sorted_rs[-1]]))
    chi, dchi = 0j, complex(q0) if q0 != 0 else 1 + 0j
    values = {0.0: chi}
    for r0, r1 in zip(stops, stops[1:]):
        seg = r1 - r0
        n = max(1, int(math.ceil(seg / h_want)))
        h = seg / n
        layer = pot.layer_of((r0 + r1) / 2)
        c = kappa * pot.height(layer) - k * k  # chi'' = c * chi

        for _ in range(n):
            k1v, k1d = dchi, c * chi
            k2v, k2d = dchi + h / 2 * k1d, c * (chi + h / 2 * k1v)
            k3v, k3d = dchi + h / 2 * k2d, c * (chi + h / 2 * k2v)
            k4v, k4d = dchi + h * k3d, c * (chi + h * k3v)
            chi = chi + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            dchi = dchi + h / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
        values[r1] = chi
    result = np.array([values[r] for r in sorted_rs])
    out = np.empty_like(result)
    out[order] = result
    return out if np.asarray(r_samples).ndim else out[0]


def rk_oracle_s(pot, scale, k: float) -> complex:
    """S = -J3/J4 at real k > 0, with chi = J3 e^{ikr} + J4 e^{-ikr} of ``rk_oracle``
    fitted at r = b and b + pi/(2k), where e^{+-ikr} have turned by +-i."""
    b = pot.outer_radius
    c1, c2 = map(complex, rk_oracle(pot, scale, k, [b, b + math.pi / (2 * k)]))
    # the 2x2 solve: J3 e^{ikb} = (c1 - i c2) / 2, J4 e^{-ikb} = (c1 + i c2) / 2
    return -cmath.exp(-2j * k * b) * (c1 - 1j * c2) / (c1 + 1j * c2)


# ---------------------------------------------------------------------------
# smeared delta-normalization

@dataclass(frozen=True)
class SmearedDeltaReport:
    family: Family
    g_center: float
    g_width: float
    r_max: float
    n_r: int
    n_e: int
    lhs: float
    rhs: float
    relative_error: float
    converged: bool
    refinement_errors: tuple[float, ...]


def _smeared_lhs_rhs(kind, pot, scale, center, width, r_max, n_r, n_e):
    e = np.linspace(center - 6 * width, center + 6 * width, n_e)
    g = np.exp(-((e - center) ** 2) / (2 * width ** 2))
    r = np.linspace(0.0, r_max, n_r)
    # w(r) = int dE g(E) <r|E>; the double smear collapses to int dr |w|^2
    phi = np.empty((n_e, n_r), dtype=complex)
    for i, energy in enumerate(e):
        phi[i] = eigenfunction(kind, pot, scale, energy, r)
    phi *= g[:, None]
    w = simpson(phi, x=e, axis=0)
    lhs_c = simpson(np.abs(w) ** 2, x=r)
    rhs = simpson(g ** 2, x=e)
    return float(np.real(lhs_c)), float(rhs)


def smeared_delta_check(
    kind: Family,
    pot: Potential,
    scale: PhysicalScale,
    g_center: float,
    g_width: float,
    r_max: float | None = None,
    n_r: int = 2001,
    n_e: int = 401,
) -> SmearedDeltaReport:
    """Delta-normalization smeared with a Gaussian test function in energy.

    The identity int dr <E|r><r|E'> = delta(E-E') is probed as
    int_0^Rmax dr |int dE g(E) <r|E>|^2  ==  int dE |g(E)|^2 and the check is
    re-run once with doubled r_max and once with doubled grids; the error must
    not grow under refinement or the report is flagged non-convergent.

    The default r_max is max(10 b, b + 4 w): w = 2 sqrt(kappa g_center) /
    (kappa g_width), the inverse of the test function's width in k, is the
    smeared packet's width in r.
    """
    kind = Family(kind)
    if not g_width > 0:
        raise ValueError(f"test function width must be positive, got {g_width}")
    if g_center - 6 * g_width <= 0:
        raise ValueError("test function must be supported inside (0, inf): "
                         f"center {g_center} - 6*width {g_width} <= 0")
    b = pot.outer_radius
    if r_max is None:
        w = 2 * math.sqrt(scale.kappa * g_center) / (scale.kappa * g_width)
        r_max = max(10.0 * b, b + 4 * w)
    r_max = float(r_max)
    if r_max < 10.0 * b:
        raise ValueError(f"r_max must be at least 10*b = {10 * b}")

    def err(rm, nr, ne):
        lhs, rhs = _smeared_lhs_rhs(kind, pot, scale, g_center, g_width, rm, nr, ne)
        return lhs, rhs, abs(lhs - rhs) / abs(rhs)

    lhs, rhs, e0 = err(r_max, n_r, n_e)
    _, _, e_rmax = err(2 * r_max, 2 * n_r - 1, n_e)
    _, _, e_grid = err(r_max, 2 * n_r - 1, 2 * n_e - 1)
    # noise factor 2: refinement may bounce around once quadrature-limited
    converged = (e_rmax <= 2 * e0) and (e_grid <= 2 * e0)
    if not converged:
        warnings.warn(
            f"smeared delta check not converged for {kind.value}: "
            f"errors {e0:.3e} -> rmax {e_rmax:.3e}, grid {e_grid:.3e}",
            RuntimeWarning,
        )
    return SmearedDeltaReport(
        family=kind, g_center=g_center, g_width=g_width, r_max=r_max,
        n_r=n_r, n_e=n_e, lhs=lhs, rhs=rhs, relative_error=e0,
        converged=converged, refinement_errors=(e0, e_rmax, e_grid),
    )


def free_overlap_kernel(k: np.ndarray, kp: np.ndarray, r_max: float) -> np.ndarray:
    """Closed-form int_0^R sin(kr) sin(k'r) dr for the free-case oracle."""
    k = np.asarray(k, dtype=float)[:, None]
    kp = np.asarray(kp, dtype=float)[None, :]
    dm = k - kp
    sm = k + kp
    with np.errstate(invalid="ignore", divide="ignore"):
        term1 = np.where(dm == 0, r_max / 2, np.sin(dm * r_max) / (2 * dm))
    term2 = np.sin(sm * r_max) / (2 * sm)
    return term1 - term2


# ---------------------------------------------------------------------------
# brute-force shell Jost function and root scan

def shell_jost_plus_grid(v0: float, a: float, b: float, kappa: float, k):
    """Closed-form Jplus for the two-breakpoint shell, vectorized over k.

    Derived by direct sine matching at a and b, deliberately not sharing code
    with the transfer propagation.
    """
    k = np.asarray(k, dtype=complex)
    q = np.sqrt(k * k - kappa * v0 + 0j)
    # match sin(kr) into the shell layer at r=a
    sa, ca = np.sin(k * a), np.cos(k * a)
    with np.errstate(invalid="ignore", divide="ignore"):
        aexp = (sa + k * ca / (1j * q)) / 2        # A e^{iQa}
        bexp = (sa - k * ca / (1j * q)) / 2        # B e^{-iQa}
        eq = np.exp(1j * q * (b - a))
        v = aexp * eq + bexp / eq                  # chi(b)
        dv = 1j * q * (aexp * eq - bexp / eq)      # chi'(b)
    # exterior incoming coefficient J4, then Jplus = -2i J4
    j4 = np.exp(1j * k * b) * (v - dv / (1j * k)) / 2
    return -2j * j4


def _cell_winding(fvec, re0, re1, im0, im1, n=64) -> int:
    t = np.linspace(0, 1, n, endpoint=False)
    bottom = re0 + t * (re1 - re0) + 1j * im0
    right = re1 + 1j * (im0 + t * (im1 - im0))
    top = re1 + t * (re0 - re1) + 1j * im1
    left = re0 + 1j * (im1 + t * (im0 - im1))
    path = np.concatenate([bottom, right, top, left])
    vals = fvec(path)
    phases = np.angle(vals)
    d = np.diff(np.concatenate([phases, phases[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return round(float(np.sum(d) / (2 * np.pi)))


def grid_scan_roots(
    fvec,
    re_min: float,
    re_max: float,
    im_min: float,
    im_max: float,
    n_re: int = 2000,
    n_im: int = 2000,
    tol: float = 1e-8,
    chunk: int = 64,
) -> list[complex]:
    """Brute-force zero scan: sign changes of Re f and Im f on a dense grid,
    winding confirmation per candidate cell, then 2-d bisection to tol."""
    re = np.linspace(re_min, re_max, n_re)
    im = np.linspace(im_min, im_max, n_im)
    sign_re = np.empty((n_im, n_re), dtype=np.int8)
    sign_im = np.empty((n_im, n_re), dtype=np.int8)
    for lo in range(0, n_im, chunk):
        hi = min(lo + chunk, n_im)
        kk = re[None, :] + 1j * im[lo:hi, None]
        f = fvec(kk.ravel()).reshape(kk.shape)
        sign_re[lo:hi] = np.sign(f.real)
        sign_im[lo:hi] = np.sign(f.imag)

    def changes(s):
        c = np.zeros((n_im - 1, n_re - 1), dtype=bool)
        c |= s[:-1, :-1] != s[:-1, 1:]
        c |= s[:-1, :-1] != s[1:, :-1]
        c |= s[:-1, :-1] != s[1:, 1:]
        return c

    cand = changes(sign_re) & changes(sign_im)
    ii, jj = np.nonzero(cand)
    # cluster adjacent candidate cells
    seen = set()
    clusters = []
    cells = set(zip(ii.tolist(), jj.tolist()))
    for cell in sorted(cells):
        if cell in seen:
            continue
        stack, group = [cell], []
        while stack:
            c = stack.pop()
            if c in seen or c not in cells:
                continue
            seen.add(c)
            group.append(c)
            ci, cj = c
            stack.extend((ci + di, cj + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
        clusters.append(group)

    roots = []
    for group in clusters:
        i0 = min(c[0] for c in group)
        i1 = max(c[0] for c in group) + 1
        j0 = min(c[1] for c in group)
        j1 = max(c[1] for c in group) + 1
        lo_re, hi_re = re[j0], re[j1]
        lo_im, hi_im = im[i0], im[i1]
        w = _cell_winding(fvec, lo_re, hi_re, lo_im, hi_im)
        if w == 0:
            continue
        # bisection in 2d: descend into the quadrant holding the zero
        while max(hi_re - lo_re, hi_im - lo_im) > tol:
            found = False
            for frac in (0.5, 0.47, 0.53):
                mr = lo_re + frac * (hi_re - lo_re)
                mi = lo_im + frac * (hi_im - lo_im)
                quads = [
                    (lo_re, mr, lo_im, mi), (mr, hi_re, lo_im, mi),
                    (lo_re, mr, mi, hi_im), (mr, hi_re, mi, hi_im),
                ]
                for qq in quads:
                    if _cell_winding(fvec, *qq) >= 1:
                        lo_re, hi_re, lo_im, hi_im = qq
                        found = True
                        break
                if found:
                    break
            if not found:
                break  # zero pinned on every split line tried; give up here
        roots.append(complex((lo_re + hi_re) / 2, (lo_im + hi_im) / 2))
    return sorted(roots, key=lambda z: z.real)
