"""Normalization-vs-new-physics criterion on complex energy grids.

A factor f(E) multiplying the regular solution is "just a normalization"
when conj(f(conj(E))) == f(E) throughout the complex plane; otherwise the
factored eigensolution carries different physical content.  Floating point
turns the exact dichotomy into a scaled threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potential import PhysicalScale, Potential
from .spectral import Family, family_factor, jost

#: classification threshold, scaled by (1 + max|f|) on the grid
SYMMETRY_RTOL = 1e-10

NORMALIZATION = "normalization"
PHYSICALLY_DISTINCT = "physically_distinct"

_CUT_EPS = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Rectangle in the complex energy plane with sample counts."""

    re_min: float = 0.1
    re_max: float = 20.0
    im_min: float = -5.0
    im_max: float = 5.0
    n_re: int = 80
    n_im: int = 80

    def points(self) -> np.ndarray:
        re = np.linspace(self.re_min, self.re_max, self.n_re)
        im = np.linspace(self.im_min, self.im_max, self.n_im)
        pts = (re[:, None] + 1j * im[None, :]).ravel()
        args = np.angle(pts)
        bad = (args <= -math.pi + _CUT_EPS) | (args >= math.pi - _CUT_EPS)
        if bad.any():
            raise ValueError(
                "grid touches the branch cut edge: arg(E) must stay inside "
                f"(-pi + {_CUT_EPS}, pi - {_CUT_EPS})"
            )
        return pts


class NonFiniteGridError(ArithmeticError):
    """No grid point gave a finite value (for example, every lane overflowed)."""


@dataclass(frozen=True)
class CriterionReport:
    function_label: str
    max_deviation: float
    classification: str
    grid: GridSpec
    max_abs: float = 0.0
    n_nonfinite: int = 0

    @property
    def is_normalization(self) -> bool:
        return self.classification == NORMALIZATION


def check_symmetry(
    f: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec | None = None,
    label: str = "f",
    rtol: float = SYMMETRY_RTOL,
) -> CriterionReport:
    """Max over the grid of |conj(f(conj(E))) - f(E)| and its classification.

    ``f`` maps a 1-d complex array of energies to the array of its values,
    elementwise; a scalar result stands for a constant f.  It is called once,
    on the n grid points followed by their n conjugates.

    Non-finite evaluations are excluded from the max and counted in the
    report instead of raising; NonFiniteGridError is raised if no point is
    finite.
    """
    grid = grid or GridSpec()
    pts = grid.points()
    both = np.concatenate([pts, pts.conjugate()])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # non-finite values are counted below instead
        out = np.broadcast_to(np.asarray(f(both), dtype=complex), both.shape)
        vals, mirror = out[:pts.size], out[pts.size:].conjugate()
        dev = np.abs(mirror - vals)
    finite = np.isfinite(dev) & np.isfinite(np.abs(vals))
    n_bad = int(np.size(dev) - np.count_nonzero(finite))
    if not finite.any():
        raise NonFiniteGridError(f"no finite evaluations of {label} on the grid")
    max_dev = float(dev[finite].max())
    max_abs = float(np.abs(vals[finite]).max())
    cls = NORMALIZATION if max_dev <= rtol * (1 + max_abs) else PHYSICALLY_DISTINCT
    return CriterionReport(
        function_label=label,
        max_deviation=max_dev,
        classification=cls,
        grid=grid,
        max_abs=max_abs,
        n_nonfinite=n_bad,
    )


def eigensolution_factor(
    kind: Family, pot: Potential, scale: PhysicalScale
) -> Callable[[np.ndarray], np.ndarray]:
    """The energy-dependent factor multiplying chi for the given family.

    The same ``spectral.family_factor`` that builds the eigenfunctions, at
    complex energy; an array of energies costs one batched solve.
    """
    kind = Family(kind)

    def f(energy):
        return family_factor(kind, scale, jost(pot, scale, scale.wavenumber(energy)))

    return f


def classify_eigensolution(
    kind: Family,
    pot: Potential,
    scale: PhysicalScale,
    grid: GridSpec | None = None,
    rtol: float = SYMMETRY_RTOL,
) -> CriterionReport:
    """Apply check_symmetry to the family's chi-multiplying factor."""
    kind = Family(kind)
    return check_symmetry(eigensolution_factor(kind, pot, scale), grid,
                          label=kind.value, rtol=rtol)
