"""Regular solution of the radial Schrodinger equation by interface matching.

The solution chi(r; k) starts as sin(q0 r) in the innermost layer and is
propagated across each breakpoint by enforcing continuity of chi and chi'.
Per layer, chi = exp(ls) * (a_out e^{i q (r - r0)} + a_in e^{-i q (r - r0)})
with r0 the left edge; the real exponent ls absorbs exponential growth so
that deep-complex-k evaluations do not overflow.

One kernel, ``_shift``, forms every e^{+-iq dr}: one unit phase and two real
growth factors, one of them exactly 1.  Its operands broadcast.  It carries
a layer's amplitudes across the layer (``_step``, which then re-fits them to
the next wavenumber), to the origin (``_to_origin``: the exterior (J3, J4)
and ``layer_amplitudes``) and along the r axis (``values_at``, ``_evaluate``).
Two drivers step through the layers: ``solve_regular`` (one complex k,
``cmath.exp``) keeps ``LayerWave`` records for ``evaluate_chi`` and the Gamow
states; ``exterior_amplitudes_batch`` (a 1-d array of k, ``np.exp``) carries
only (a_out, a_in, ls) per lane, for ``spectral.jost`` with an array k.

A layer whose q is exactly 0 (energy at its height) uses the basis
{1, r - r0}; each caller handles that case itself.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .potential import PhysicalScale, Potential, local_wavenumber, sqrt_branch


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


def _step(q, a_out, a_in, dr, q_next, same, exp):
    """One breakpoint: (a_out, a_in) of wavenumber q carried over dr and re-fit
    to q_next.  Returns (a_out', a_in', m) with m added to the log scale.

    ``same`` (no height change) keeps the shifted amplitudes as they are:
    re-fitting from (chi, chi') would amplify rounding by the layer's growth
    factor.  Both q and q_next must be nonzero.
    """
    t_out, t_in, m = _shift(q, a_out, a_in, dr, exp)
    if same:
        return t_out, t_in, m
    a_out, a_in = _fit(t_out + t_in, 1j * q * (t_out - t_in), q_next)
    return a_out, a_in, m


def _fit(v, dv, q):
    """(a_out, a_in) of wavenumber q from (chi, chi') at a layer's left edge."""
    w = dv / (1j * q)
    return (v + w) / 2, (v - w) / 2


@dataclass(frozen=True)
class LayerWave:
    """Amplitudes of one layer in left-edge-referenced, log-scaled form.

    If ``q == 0`` the basis degenerates to {1, r - r_left} and (a_out, a_in)
    are the (constant, slope) coefficients instead.
    """

    q: complex
    r_left: float
    a_out: complex
    a_in: complex
    log_scale: float = 0.0

    def values_at(self, dr: float | complex) -> tuple[complex, complex, float]:
        """(chi, chi', log_scale) at distance dr from the left edge.

        The returned pair is scaled: actual values are exp(log_scale) larger.
        """
        if self.q == 0:
            return (self.a_out + self.a_in * dr, self.a_in, self.log_scale)
        t_out, t_in, m = _shift(self.q, self.a_out, self.a_in, float(dr))
        v = t_out + t_in
        dv = 1j * self.q * (t_out - t_in)
        return v, dv, self.log_scale + m


def _to_origin(q, a_out, a_in, r_left, log_scale, exp):
    """Un-scaled (c_out, c_in), chi = c_out e^{i q r} + c_in e^{-i q r}, of a
    layer with q != 0; a value overflows only where the amplitude does."""
    t_out, t_in, m = _shift(q, a_out, a_in, -r_left, exp)
    s = exp(log_scale + m)
    return s * t_out, s * t_in


def _global_amplitudes(w: LayerWave) -> tuple[complex, complex]:
    """(c_out, c_in) of one layer with chi = c_out e^{i q r} + c_in e^{-i q r}."""
    if w.q == 0:
        # basis {1, r}: constant term re-referenced to the origin
        s = cmath.exp(w.log_scale)
        return s * (w.a_out - w.a_in * w.r_left), s * w.a_in
    return _to_origin(w.q, w.a_out, w.a_in, w.r_left, w.log_scale, cmath.exp)


@dataclass(frozen=True)
class LayerSolution:
    """chi(r; k) as per-layer amplitude pairs.

    ``layer_amplitudes`` gives the global-convention coefficients (c_out, c_in)
    with chi = c_out e^{i q r} + c_in e^{-i q r} on each layer; on the
    exterior these are the outgoing/incoming coefficients whose combinations
    form the Jost functions.
    """

    k: complex
    pot: Potential
    scale: PhysicalScale
    layers: tuple[LayerWave, ...]

    @property
    def layer_amplitudes(self) -> tuple[tuple[complex, complex], ...]:
        return tuple(_global_amplitudes(w) for w in self.layers)

    @property
    def exterior_amplitudes(self) -> tuple[complex, complex]:
        """(c_out, c_in) of the exterior layer: the shell's (J3, J4)."""
        return _global_amplitudes(self.layers[-1])


def solve_regular(pot: Potential, scale: PhysicalScale, k: complex) -> LayerSolution:
    """Propagate the regular solution chi(0)=0 across all breakpoints.

    Raises ValueError for k = 0 (the regular solution degenerates to zero
    under the sin(kr) normalization).
    """
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0 is degenerate: sin(kr) vanishes identically")

    q0 = local_wavenumber(pot, scale, k, 0)
    if q0 == 0:
        # energy exactly at the innermost height: chi = r is the regular limit
        first = LayerWave(q=0j, r_left=0.0, a_out=0j, a_in=1 + 0j)
    else:
        half_i = 1 / 2j
        first = LayerWave(q=q0, r_left=0.0, a_out=half_i, a_in=-half_i)

    layers = [first]
    for i, r_i in enumerate(pot.breakpoints):
        prev = layers[-1]
        q = local_wavenumber(pot, scale, k, i + 1)
        dr = r_i - prev.r_left
        if q == 0 or prev.q == 0:
            v, dv, ls = prev.values_at(dr)
            a_out, a_in = (v, dv) if q == 0 else _fit(v, dv, q)
        else:
            a_out, a_in, m = _step(prev.q, prev.a_out, prev.a_in, dr, q, q == prev.q, cmath.exp)
            ls = prev.log_scale + m
        layers.append(LayerWave(q=q, r_left=r_i, a_out=a_out, a_in=a_in, log_scale=ls))
    return LayerSolution(k=k, pot=pot, scale=scale, layers=tuple(layers))


def exterior_amplitudes_batch(pot: Potential, scale: PhysicalScale, k) -> tuple[np.ndarray, np.ndarray]:
    """Exterior (J3, J4) for a 1-d array of k, one lane per k.

    The same propagation as ``solve_regular`` without the per-layer records.
    A lane whose amplitudes leave the float range comes out non-finite
    instead of raising.  Raises ValueError if any k is 0.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise ValueError("k = 0 is degenerate: sin(kr) vanishes identically")
    heights = pot.heights + (0.0,)
    k2 = k * k

    def wavenumbers(v):
        # free layers follow the sign of k, as in local_wavenumber
        return k if v == 0.0 else sqrt_branch(k2 - scale.kappa * v)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = wavenumbers(heights[0])
        lin = q == 0  # energy at the innermost height: chi = r
        a_out = np.where(lin, 0j, 1 / 2j)
        a_in = np.where(lin, 1 + 0j, -1 / 2j)
        ls = np.zeros(k.shape)
        r_left = 0.0
        for i, r_i in enumerate(pot.breakpoints):
            same = heights[i + 1] == heights[i]
            q_next = q if same else wavenumbers(heights[i + 1])
            dr = r_i - r_left
            new_out, new_in, m = _step(q, a_out, a_in, dr, q_next, same, np.exp)
            lin_next = q_next == 0
            if lin.any() or lin_next.any():
                fix = lin | lin_next
                fix_out, fix_in = _linear_lanes(q, a_out, a_in, dr, q_next, lin, lin_next)
                new_out = np.where(fix, fix_out, new_out)
                new_in = np.where(fix, fix_in, new_in)
            a_out, a_in, ls = new_out, new_in, ls + m
            q, lin, r_left = q_next, lin_next, r_i
        return _to_origin(q, a_out, a_in, r_left, ls, np.exp)


def _linear_lanes(q, a_out, a_in, dr, q_next, lin, lin_next):
    """The step for lanes where q (mask ``lin``) or q_next (``lin_next``) is 0.

    On such a layer (a_out, a_in) are the (constant, slope) coefficients of
    the basis {1, r - r0}; the other lanes' values are discarded by the caller.
    """
    t_out, t_in, _ = _shift(q, a_out, a_in, dr, np.exp)  # m = 0 where q = 0
    v = np.where(lin, a_out + a_in * dr, t_out + t_in)
    dv = np.where(lin, a_in, 1j * q * (t_out - t_in))
    fit_out, fit_in = _fit(v, dv, q_next)
    return np.where(lin_next, v, fit_out), np.where(lin_next, dv, fit_in)


def _evaluate(sol: LayerSolution, r, derivative: int):
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rs = np.atleast_1d(rs)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    # every radius takes the wave of its layer, so one kernel call covers all
    idx = np.searchsorted(sol.pot.breakpoints, rs, side="right")
    q, r_left, a_out, a_in, ls = (np.array(col)[idx] for col in zip(
        *((w.q, w.r_left, w.a_out, w.a_in, w.log_scale) for w in sol.layers)))
    dr = rs - r_left
    t_out, t_in, m = _shift(q, a_out, a_in, dr, np.exp)
    s = np.exp(ls + m)
    if derivative == 1:
        out = 1j * q * s * (t_out - t_in)
    else:
        out = s * (t_out + t_in)
        if derivative == 2:
            out *= -(q * q)
    lin = q == 0
    if derivative < 2 and lin.any():
        # basis {1, r - r_left}; -q^2 chi already gives chi'' = 0 there
        out[lin] = (s * (a_out + a_in * dr) if derivative == 0 else s * a_in)[lin]
    return out[0] if scalar else out


def evaluate_chi(sol: LayerSolution, r):
    """chi(r; k), vectorized over r.  Breakpoints evaluate on the right layer
    (the two sides agree by construction)."""
    return _evaluate(sol, r, 0)


def evaluate_chi_derivative(sol: LayerSolution, r):
    """d chi/dr, analytic per layer."""
    return _evaluate(sol, r, 1)


def evaluate_chi_second_derivative(sol: LayerSolution, r):
    """d^2 chi/dr^2 = -q^2 chi per layer; used for residual bookkeeping checks."""
    return _evaluate(sol, r, 2)
