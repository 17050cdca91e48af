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

Two drivers walk the runs (``_walk``): ``solve_regular`` (one complex k,
``math``) keeps ``LayerWave`` records for ``evaluate_chi`` and the Gamow
states; ``exterior_amplitudes_batch`` (a 1-d array of k, numpy) keeps the
last start per lane, for ``spectral.jost`` with an array k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potential import PhysicalScale, Potential, local_wavenumber, sqrt_branch


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


def _exterior(k, r_left, chi, dchi, log_scale, exp):
    """Un-scaled (J3, J4) from (chi, chi') at r_left, the start of the
    exterior's run; a value overflows only where the amplitude does."""
    a_out, a_in = _fit(chi, dchi, k)
    t_out, t_in, m = _shift(k, a_out, a_in, -r_left, exp)
    s = exp(log_scale + m)
    return s * t_out, s * t_in


def _walk(pot: Potential, wavenumber, q, chi, dchi, xp):
    """(q, r_left, chi, chi', log_scale) of every layer, the exterior last,
    with the log-scaled pair at r_left, the start of the layer's run.

    ``wavenumber(i)`` is the q of layer i; (q, chi, dchi) start the innermost
    layer at r = 0.
    """
    heights = pot.heights + (0.0,)
    r_left, ls = 0.0, 0.0
    for i, r in enumerate((0.0,) + pot.breakpoints):
        if i and heights[i] != heights[i - 1]:
            chi, dchi, m = _carry(q, chi, dchi, r - r_left, xp)
            q, r_left, ls = wavenumber(i), r, ls + m
        yield q, r_left, chi, dchi, ls


@dataclass(frozen=True)
class LayerWave:
    """One layer's (chi, chi') at ``r_left``, the left edge of the layer's run
    of equal heights, in log-scaled form: the actual values are
    exp(log_scale) larger."""

    q: complex
    r_left: float
    chi: complex
    dchi: complex
    log_scale: float = 0.0

    def values_at(self, dr: float) -> tuple[complex, complex, float]:
        """(chi, chi', log_scale) at distance dr from ``r_left``; the actual
        values are exp(log_scale) larger."""
        chi, dchi, m = _carry(self.q, self.chi, self.dchi, float(dr))
        return chi, dchi, self.log_scale + m


@dataclass(frozen=True)
class LayerSolution:
    """chi(r; k) as per-layer (chi, chi') records; the exterior is last."""

    k: complex
    pot: Potential
    scale: PhysicalScale
    layers: tuple[LayerWave, ...]

    @property
    def exterior_amplitudes(self) -> tuple[complex, complex]:
        """(c_out, c_in) of the exterior, chi = c_out e^{ikr} + c_in e^{-ikr}:
        the shell's (J3, J4)."""
        w = self.layers[-1]
        return _exterior(w.q, w.r_left, w.chi, w.dchi, w.log_scale, cmath.exp)


def solve_regular(pot: Potential, scale: PhysicalScale, k: complex) -> LayerSolution:
    """Propagate the regular solution chi(0)=0 across all breakpoints.

    Raises ValueError for k = 0 (the regular solution degenerates to zero
    under the sin(kr) normalization).
    """
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0 is degenerate: sin(kr) vanishes identically")
    q0 = local_wavenumber(pot, scale, k, 0)
    walk = _walk(pot, lambda i: local_wavenumber(pot, scale, k, i),
                 q0, 0j, q0 if q0 else 1 + 0j, math)
    return LayerSolution(k=k, pot=pot, scale=scale, layers=tuple(LayerWave(*w) for w in walk))


def exterior_amplitudes_batch(pot: Potential, scale: PhysicalScale, k) -> tuple[np.ndarray, np.ndarray]:
    """Exterior (J3, J4) for a 1-d array of k, one lane per k.

    The same propagation as ``solve_regular`` without the per-layer records.
    A lane whose amplitudes leave the float range comes out non-finite
    instead of raising.  Raises ValueError if any k is 0.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise ValueError("k = 0 is degenerate: sin(kr) vanishes identically")
    heights = np.array(pot.heights + (0.0,))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # every layer's q in one (layers x lanes) call; free layers follow
        # the sign of k, as in local_wavenumber
        q = sqrt_branch(k * k - scale.kappa * heights[:, None])
        q[heights == 0.0] = k
        *_, last = _walk(pot, q.__getitem__, q[0], np.zeros_like(k), np.where(q[0] == 0, 1, q[0]), np)
        return _exterior(*last, np.exp)


def _evaluate(sol: LayerSolution, r, derivative: bool):
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rs = np.atleast_1d(rs)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    # every radius takes the record of its layer, so one kernel call covers all
    idx = np.searchsorted(sol.pot.breakpoints, rs, side="right")
    q, r_left, chi, dchi, ls = (np.array(col)[idx] for col in zip(
        *((w.q, w.r_left, w.chi, w.dchi, w.log_scale) for w in sol.layers)))
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
