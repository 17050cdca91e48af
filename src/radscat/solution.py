"""Regular solution of the radial Schrodinger equation by transfer matrices.

chi(r; k) starts as sin(q0 r) in the innermost layer: chi(0) = 0 and
chi'(0) = q0, or chi = r when q0 = 0.  In a layer of wavenumber q, (chi, chi')
moves a distance dr by [[cos q dr, sin(q dr)/q], [-q sin q dr, cos q dr]],
which is entire in q^2: a tiny or zero q needs no basis of its own, and a
breakpoint, where chi and chi' are continuous, needs no matching step.  One
kernel, ``_transfer``, forms the entries divided by e^{|Im q dr|}; the
exponent goes into a real log scale, so deep-complex-k solves do not overflow.

Runs.  Adjacent layers of equal height form a run, carried in one transfer
from its start; each layer of the run keeps the record of that start.  The
exterior (J3, J4), chi = J3 e^{ikr} + J4 e^{-ikr}, is fitted (``_fit``) at the
start of the exterior's run and re-referenced to the origin (``_shift``): a
fit further out would lose the subdominant term to the rounding of the
dominant one, eps e^{2 |Im k| r}.  So cutting a layer into equal-height
pieces leaves J+- unchanged bit for bit.

One function, ``solve_regular``, walks the runs (``_walk``) for one complex k
(``math`` and Python complex) or a 1-d array of k (numpy, one lane per k),
with every layer's wavenumber from one rule (``_wavenumbers``).  It keeps
per-layer columns (q, r_left, chi, chi', log scale): ``evaluate_chi`` and
the Gamow states read them all, ``spectral`` the exterior's, fitted as
mantissas (J3, J4)/e^L with one real L (``_exterior``, ``_unscale``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potential import PhysicalScale, Potential, _sqrt_branch_scalar, sqrt_branch


def _transfer(q, dr, xp=math):
    """Transfer-matrix entries (cos(q dr), sin(q dr)/q, q sin(q dr)), each
    divided by e^m, and m = |Im q dr|.

    With x + iy = q dr they are built from cos x, sin x and expm1(-2|y|), so
    none overflows and a tiny q loses no digits; q = 0 gives (1, dr, 0).
    ``xp`` is ``math`` for one complex q or ``np`` for arrays, whose operands
    broadcast.  A conjugate q gives the conjugate entries bit for bit.
    """
    x, y = q.real * dr, q.imag * dr
    m = abs(y)
    h = -0.5 * xp.expm1(-2 * m)  # sinh|y| / e^|y|; cosh y / e^|y| = 1 - h
    sh = xp.copysign(h, y)
    cx, sx, ch = xp.cos(x), xp.sin(x), 1 - h
    if xp is math:
        c, sn = complex(cx * ch, -sx * sh), complex(sx * ch, cx * sh)
        s = sn / q if q else complex(dr)
    else:
        c, sn = _complex(cx, ch, -sx, sh), _complex(sx, ch, cx, sh)
        if q.all():
            s = sn / q
        else:
            s = np.where(q == 0, dr, sn / np.where(q == 0, 1, q))
    return c, s, q * sn, m


def _complex(a, b, c, d):
    """a b + i c d as a new complex array, formed in place from real parts."""
    z = np.empty(a.shape, complex)
    np.multiply(a, b, out=z.real)
    np.multiply(c, d, out=z.imag)
    return z


def _carry(q, chi, dchi, dr, xp=math):
    """(chi, chi') a distance dr further on, in a layer of wavenumber q, and
    the exponent m they were divided by."""
    c, s, qs, m = _transfer(q, dr, xp)
    return chi * c + dchi * s, dchi * c - chi * qs, m


def _shift(q, a_out, a_in, dr, exp=cmath.exp):
    """Amplitudes re-referenced a distance dr to the right, in log-scaled form.

    Returns (a_out e^{iq dr}, a_in e^{-iq dr}) divided by e^m, and m: the
    larger of the two growth exponents moves into the log scale, so one of
    the real factors e^{+-g - m} is exactly 1 and neither overflows.
    """
    g = -q.imag * dr  # growth exponent of the outgoing term over dr
    m = abs(g)
    phase = exp(1j * q.real * dr)
    return a_out * phase * exp(g - m), a_in * phase.conjugate() * exp(-g - m), m


def _fit(v, dv, q):
    """(a_out, a_in) of wavenumber q, referenced to the point of (chi, chi')."""
    w = dv / (1j * q)
    return (v + w) / 2, (v - w) / 2


def _exterior(sol):
    """(J3, J4) / e^L and the real L of the solution's exterior, fitted at the
    start of its run: the mantissas stay finite wherever the kernel does."""
    exp = np.exp if isinstance(sol.k, np.ndarray) else cmath.exp
    a_out, a_in = _fit(sol.chi[-1], sol.dchi[-1], sol.k)
    t_out, t_in, m = _shift(sol.k, a_out, a_in, -sol.r_left[-1], exp)
    return t_out, t_in, sol.log_scale[-1] + m


def _unscale(k, a, b, log_scale):
    """(a, b) times e^log_scale, the one place where J3, J4 or J+- are formed.
    A scalar k raises OverflowError where they leave the float range; a lane
    of an array k comes out non-finite there instead."""
    if isinstance(k, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.exp(log_scale)
            return s * a, s * b
    try:
        s = math.exp(log_scale)
    except OverflowError:  # e^L alone leaves the float range
        s = math.inf
    a, b = s * a, s * b
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise OverflowError(f"Jost functions overflow at k={k}")
    return a, b


def _wavenumbers(pot: Potential, scale: PhysicalScale, k):
    """Every layer's q = sqrt(k^2 - kappa V) on the sqrt_branch sheet, the
    exterior last: a list for one complex k, one (layers x lanes) array for a
    1-d array of k.  Free layers take k itself, not sqrt_branch(k^2): the
    exterior exponent convention must follow the sign of k even in the lower
    half plane."""
    heights = pot.heights + (0.0,)
    if isinstance(k, np.ndarray):
        q = sqrt_branch(k ** 2 - scale.kappa * np.array(heights)[:, None])
    else:
        q = [_sqrt_branch_scalar(k ** 2 - scale.kappa * v) for v in heights]
    for i, v in enumerate(heights):
        if v == 0.0:
            q[i] = k
    return q


def _walk(pot: Potential, q, chi, dchi, xp):
    """(q, r_left, chi, chi', log_scale) of every layer, the exterior last,
    with the log-scaled pair at r_left, the start of the layer's run.

    ``q`` holds every layer's wavenumber (``_wavenumbers``); (chi, dchi)
    start the innermost layer at r = 0.
    """
    heights = pot.heights + (0.0,)
    r_left, ls = 0.0, 0.0
    for i, r in enumerate((0.0,) + pot.breakpoints):
        if i and heights[i] != heights[i - 1]:
            chi, dchi, m = _carry(q[i - 1], chi, dchi, r - r_left, xp)
            r_left, ls = r, ls + m
        yield q[i], r_left, chi, dchi, ls


@dataclass(frozen=True)
class LayerSolution:
    """chi(r; k) as per-layer columns, the exterior last: layer i's ``q`` and,
    at ``r_left``, the start of its run of equal heights, (``chi``, ``dchi``)
    divided by e^``log_scale``.  For an array k each entry is an array of lanes."""

    k: complex
    pot: Potential
    q: tuple
    r_left: tuple
    chi: tuple
    dchi: tuple
    log_scale: tuple

    @property
    def exterior_amplitudes(self):
        """(c_out, c_in) of the exterior, chi = c_out e^{ikr} + c_in e^{-ikr}:
        the shell's (J3, J4).  A scalar k raises OverflowError where they
        leave the float range; a lane of an array k comes out non-finite."""
        return _unscale(self.k, *_exterior(self))


def solve_regular(pot: Potential, scale: PhysicalScale, k) -> LayerSolution:
    """Propagate the regular solution chi(0)=0 across all breakpoints, for
    one complex k (``math``) or a 1-d array of k (numpy, one lane per k).

    Raises ValueError for k = 0, at any lane (the regular solution
    degenerates to zero under the sin(kr) normalization).
    """
    lanes = getattr(k, "ndim", 0)
    k = np.asarray(k, dtype=complex) if lanes else complex(k)
    if (k == 0).any() if lanes else k == 0:
        raise ValueError("k = 0 is degenerate: sin(kr) vanishes identically")
    if not lanes:
        q = _wavenumbers(pot, scale, k)
        return LayerSolution(k, pot, *zip(*_walk(pot, q, 0j, q[0] if q[0] else 1 + 0j, math)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = _wavenumbers(pot, scale, k)
        columns = zip(*_walk(pot, q, np.zeros_like(k), np.where(q[0] == 0, 1, q[0]), np))
    return LayerSolution(k, pot, *columns)


def _evaluate(sol: LayerSolution, r, derivative: bool):
    if isinstance(sol.k, np.ndarray):
        raise ValueError("chi is evaluated on the solution of one k, not of an array of k")
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rs = np.atleast_1d(rs)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    # every radius takes the record of its layer, so one kernel call covers all
    idx = np.searchsorted(sol.pot.breakpoints, rs, side="right")
    q, r_left, chi, dchi, ls = (np.array(col)[idx] for col in (
        sol.q, sol.r_left, sol.chi, sol.dchi, sol.log_scale))
    c, s, qs, m = _transfer(q, rs - r_left, np)
    out = dchi * c - chi * qs if derivative else chi * c + dchi * s
    out *= np.exp(ls + m)
    return out[0] if scalar else out


def evaluate_chi(sol: LayerSolution, r):
    """chi(r; k), vectorized over r.  Breakpoints evaluate on the right layer
    (the two sides agree by construction)."""
    return _evaluate(sol, r, False)


def evaluate_chi_derivative(sol: LayerSolution, r):
    """d chi/dr, analytic per layer."""
    return _evaluate(sol, r, True)
