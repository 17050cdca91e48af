"""Reference figures for perfbench/README.md, measured on the machine at hand.

    PYTHONPATH=src python3 perfbench/figures.py

Prints single-layer timings on fixed inputs (the numbers ROADMAP item 1
quotes) and the solve counts behind them, which do not depend on the machine.
"""

from __future__ import annotations

import statistics
import sys
import timeit

import numpy as np
import radscat as rs

from tracing import Tracer


def per_call_seconds(fn, number: int, repeat: int = 5) -> float:
    """Median over ``repeat`` timings of ``number`` calls, per call, in seconds."""
    return statistics.median(timeit.repeat(fn, number=number, repeat=repeat)) / number


def solves(fn) -> int:
    """solve_regular calls made by fn; fn must look functions up on ``rs``."""
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.metrics()["solution.solve_regular.calls"]


def main() -> int:
    scale = rs.PhysicalScale(1.0)
    shell = rs.make_shell(8.0, 1.0, 2.0, scale)
    layers100 = rs.Potential(tuple(0.05 * (i + 1) for i in range(100)),
                             tuple(5.0 * np.sin(0.3 * i) for i in range(100)))
    v30 = rs.make_shell(30.0, 1.0, 2.0, scale)
    cases = [
        ("solve_regular, shell (8, 1, 2), k = 3 - 0.5i",
         lambda: rs.solve_regular(shell, scale, 3 - 0.5j), 2000),
        ("jost, 100 layers, k = 3",
         lambda: rs.jost(layers100, scale, 3.0), 200),
        ("find_resonances, shell (8, 1, 2) over [0,6]x[-2,0]",
         lambda: rs.find_resonances(shell, scale, rs.Region(0, 6, -2, 0)), 5),
        ("find_resonances, shell (30, 1, 2) over [0,20]x[-3,0]",
         lambda: rs.find_resonances(v30, scale, rs.Region(0, 20, -3, 0)), 1),
        ("classify_eigensolution OUT, shell, 80x80 grid",
         lambda: rs.classify_eigensolution(rs.Family.OUT, shell, scale, rs.GridSpec()), 1),
        ("classify_eigensolution STANDING_WAVE, shell, 80x80 grid",
         lambda: rs.classify_eigensolution(rs.Family.STANDING_WAVE, shell, scale, rs.GridSpec()), 1),
        ("smeared_delta_check IN, shell, default grids",
         lambda: rs.smeared_delta_check(rs.Family.IN, shell, scale, 16.0, 2.0), 1),
        ("energy_transform IN, shell, 400 energies",
         lambda: rs.energy_transform(rs.Family.IN, shell, scale,
                                     np.exp(-((np.linspace(0, 20, 2001) - 8) ** 2) / 2), 20.0,
                                     np.linspace(0.5, 40, 400)), 1),
    ]
    for label, fn, number in cases:
        seconds = per_call_seconds(fn, number, repeat=5 if number > 1 else 3)
        print(f"{label}: {seconds * 1e3:.4g} ms, {solves(fn)} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
