"""Extended-precision reference for piecewise-constant radial potentials.

Written from the matching conditions alone and importing nothing from
``radscat``, so that the benchmark checks the program against an independent
derivation.  The regular solution starts as sin(q0 r) in the innermost layer,
q0 = sqrt(k^2 - kappa V0) on the principal branch (q0 = k when V0 = 0), and
crosses each layer through the transfer matrix

    [chi(r + d), chi'(r + d)] = [[cos qd, sin(qd)/q], [-q sin qd, cos qd]] [chi, chi'](r),

which is entire in q^2, so no branch choice enters past the innermost layer.
Beyond the outer radius b, chi = J3 e^{ikb} + J4 e^{-ikb}; Jplus = -2i J4,
Jminus = 2i J3 and S = Jminus / Jplus.

Under a barrier the cos/sin terms grow like e^{|Im q| d} and cancel in the
sums; the working precision is raised by the number of digits that growth can
cost, so every returned value carries at least ``BASE_DPS`` good digits.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

BASE_DPS = 30


class RefPotential:
    """Layer edges, heights (exterior 0 beyond the last edge) and kappa."""

    def __init__(self, breakpoints, heights, kappa=1.0):
        if len(breakpoints) != len(heights) or not breakpoints:
            raise ValueError("need one height per breakpoint")
        self.breakpoints = tuple(float(r) for r in breakpoints)
        self.heights = tuple(float(v) for v in heights)
        self.kappa = float(kappa)
        edges = (0.0,) + self.breakpoints
        self.widths = tuple(b - a for a, b in zip(edges, edges[1:]))

    def _dps(self, k) -> int:
        """Digits that cover the cancellation under every barrier at k."""
        k = complex(k)
        growth = 0.0
        for v, d in zip(self.heights, self.widths):
            growth += abs(cmath.sqrt(k * k - self.kappa * v).imag) * d
        growth += abs(k.imag) * self.breakpoints[-1]
        return BASE_DPS + int(2 * growth / math.log(10)) + 5

    def jost(self, k) -> tuple[mp.mpc, mp.mpc, mp.mpc]:
        """(Jplus, Jminus, dJplus/dk) at complex k != 0, good to BASE_DPS digits.

        The k-derivative is carried through the same recursion in forward
        mode: d(cos qd)/dk = -k d sin(qd)/q and d(sin(qd)/q)/dk =
        k (d cos qd - sin(qd)/q) / q^2.
        """
        with mp.workdps(max(mp.mp.dps, self._dps(k))):
            k = mp.mpc(k)
            kap = self.kappa
            v0, r1 = self.heights[0], self.breakpoints[0]
            q0 = k if v0 == 0 else mp.sqrt(k * k - kap * v0)
            dq0 = k / q0
            e = mp.exp(1j * q0 * r1)
            c, s = (e + 1 / e) / 2, (e - 1 / e) / 2j
            chi, dchi = s, q0 * c
            chi_k, dchi_k = c * r1 * dq0, dq0 * c - q0 * s * r1 * dq0
            for v, d in zip(self.heights[1:], self.widths[1:]):
                q2 = k * k - kap * v
                if q2 == 0:
                    c, sq = mp.mpf(1), mp.mpf(d)
                    c_k, sq_k = -k * d * d, -k * d ** 3 / 3
                else:
                    q = mp.sqrt(q2)
                    e = mp.exp(1j * q * d)
                    c, sq = (e + 1 / e) / 2, (e - 1 / e) / (2j * q)
                    c_k, sq_k = -k * d * sq, k * (d * c - sq) / q2
                chi, dchi, chi_k, dchi_k = (
                    c * chi + sq * dchi,
                    -q2 * sq * chi + c * dchi,
                    c_k * chi + c * chi_k + sq_k * dchi + sq * dchi_k,
                    -2 * k * sq * chi - q2 * (sq_k * chi + sq * chi_k) + c_k * dchi + c * dchi_k,
                )
            b = self.breakpoints[-1]
            e = mp.exp(1j * k * b)
            ik = 1j * k
            j4 = e * (chi - dchi / ik) / 2
            j3 = (chi + dchi / ik) / (2 * e)
            j4_k = 1j * b * j4 + e * (chi_k - dchi_k / ik + dchi / (ik * k)) / 2
            return +(-2j * j4), +(2j * j3), +(-2j * j4_k)

    def j_plus(self, k) -> mp.mpc:
        return self.jost(k)[0]

    def s_matrix(self, k) -> mp.mpc:
        jp, jm, _ = self.jost(k)
        return jm / jp

    def residue_norm(self, k_pole) -> mp.mpc:
        """N^2 = i res S = i Jminus(k_n) / Jplus'(k_n) at a simple zero of Jplus."""
        _, jm, djp = self.jost(k_pole)
        return 1j * jm / djp

    def newton_step(self, k) -> mp.mpc:
        """Jplus/Jplus' at k: the distance to the nearest zero, to first order."""
        jp, _, djp = self.jost(k)
        return jp / djp

    def refine_zero(self, k0, tol=1e-20, max_iter=40) -> mp.mpc:
        """Newton on Jplus from k0 with the extended-precision derivative."""
        with mp.workdps(BASE_DPS):
            k = mp.mpc(k0)
            for _ in range(max_iter):
                step = self.newton_step(k)
                k -= step
                if abs(step) <= tol * max(1, abs(k)):
                    return +k
        raise ArithmeticError(f"reference Newton did not converge from {k0}")

    def zero_count(self, re_min, re_max, im_min, im_max) -> int:
        """Argument-principle count of zeros of Jplus inside the rectangle.

        The phase is followed along each edge by bisection until every step
        turns less than 0.4 rad and changes |Jplus| by less than a factor 3.
        Contour points are kept in extended precision, so an edge can pass
        within 1e-40 of a zero.
        """
        with mp.workdps(BASE_DPS + 30):
            corners = [mp.mpc(re_min, im_min), mp.mpc(re_max, im_min),
                       mp.mpc(re_max, im_max), mp.mpc(re_min, im_max)]
            total = mp.mpf(0)
            for z0, z1 in zip(corners, corners[1:] + corners[:1]):
                pts = [z0 + (z1 - z0) * t / 16 for t in range(17)]
                vals = [self.j_plus(z) for z in pts]
                for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
                    total += self._phase_step(a, b, fa, fb, 0)
            turns = total / (2 * mp.pi)
        n = int(mp.nint(turns))
        if abs(turns - n) > 0.05:
            raise ArithmeticError(f"non-integer winding {turns}")
        return n

    def _phase_step(self, a, b, fa, fb, depth):
        if fa == 0 or fb == 0:
            raise ArithmeticError(f"Jplus vanishes on the contour near {a}")
        ratio = fb / fa
        turn = mp.arg(ratio)
        if abs(turn) < 0.4 and 1 / 3 < abs(ratio) < 3:
            return turn
        if depth > 200:
            raise ArithmeticError(f"phase did not settle on [{a}, {b}]")
        m = (a + b) / 2
        fm = self.j_plus(m)
        return (self._phase_step(a, m, fa, fm, depth + 1)
                + self._phase_step(m, b, fm, fb, depth + 1))
