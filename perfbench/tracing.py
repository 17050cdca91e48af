"""Spans around radscat's public functions, installed from outside the package.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``radscat`` module namespace that binds it, so calls between modules
(``radscat.resonance.jost``, ``radscat.criterion.solve_regular``,
``radscat.cli.find_resonances``, ...) are caught wherever they are looked up.
A span records its name, start, end, parent span and job; spans stay in
memory until ``write``.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

#: layer name -> (home module, attribute).  simpson is scipy's, wrapped only
#: where radscat modules bind it.
TARGETS = {
    "cli.main": ("radscat.cli", "main"),
    "solution.solve_regular": ("radscat.solution", "solve_regular"),
    "solution.evaluate_chi": ("radscat.solution", "evaluate_chi"),
    "spectral.jost": ("radscat.spectral", "jost"),
    "spectral.s_matrix": ("radscat.spectral", "s_matrix"),
    "spectral.eigenfunction": ("radscat.spectral", "eigenfunction"),
    "spectral.energy_transform": ("radscat.spectral", "energy_transform"),
    "quadrature.simpson": ("scipy.integrate", "simpson"),
    "resonance.winding_number": ("radscat.resonance", "winding_number"),
    "resonance.find_resonances": ("radscat.resonance", "find_resonances"),
    "resonance.residue_norm": ("radscat.resonance", "residue_norm"),
    "criterion.check_symmetry": ("radscat.criterion", "check_symmetry"),
    "verification.smeared_delta_check": ("radscat.verification", "smeared_delta_check"),
}


def _size(name, args, result):
    """Work count a span carries besides its duration (points, poles, bytes)."""
    if name == "solution.evaluate_chi":
        return int(getattr(args[1], "size", 1))
    if name == "criterion.check_symmetry":
        return int(result.grid.points().size)
    if name == "resonance.find_resonances":
        return len(result)
    if name == "verification.smeared_delta_check":
        # largest (n_e x n_r) complex array of the three grids it runs
        return (2 * result.n_e - 1) * (2 * result.n_r - 1) * 16
    return 0


class Tracer:
    """Spans kept column-wise in typed arrays: a pole-search run makes ~10^6."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("l")
        self.size = array("q")
        self.errors: dict[int, str] = {}
        self.stack: list[int] = []
        self.job = -1
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        code = self.names.index(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.name)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.job_of.append(self.job)
            self.size.append(0)
            stack.append(sid)
            self.start.append(perf_counter())
            self.end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[sid] = perf_counter()
                stack.pop()
                self.errors[sid] = type(exc).__name__
                raise
            self.end[sid] = perf_counter()
            stack.pop()
            self.size[sid] = _size(name, args, result)
            return result

        return wrapper

    def install(self):
        for name, (home, attr) in TARGETS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "radscat" or mod_name.startswith("radscat.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def write(self, path):
        """All spans as CSV: id, name, start, end, parent, job, error, size."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job,error,size\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid},{self.names[self.name[sid]]},{self.start[sid]!r},"
                         f"{self.end[sid]!r},{self.parent[sid]},{self.job_of[sid]},"
                         f"{self.errors.get(sid, '')},{self.size[sid]}\n")

    def metrics(self) -> dict[str, float]:
        n = len(self.name)
        names = [self.names[c] for c in self.name]
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        size = defaultdict(int)
        failed = defaultdict(int)
        child = [0.0] * n
        for sid in range(n):
            if parent[sid] >= 0:
                child[parent[sid]] += dur[sid]
        for sid in range(n):
            calls[names[sid]] += 1
            self_s[names[sid]] += dur[sid] - child[sid]
            size[names[sid]] += self.size[sid]
        for sid in self.errors:
            failed[names[sid]] += 1

        def ancestors(sid):
            p = parent[sid]
            while p >= 0:
                yield names[p]
                p = parent[p]

        under = defaultdict(int)  # (descendant, ancestor) -> count
        for sid in range(n):
            if names[sid] in ("spectral.jost", "solution.solve_regular", "spectral.eigenfunction"):
                for anc in set(ancestors(sid)):
                    under[(names[sid], anc)] += 1
        newton_jost = sum(
            1 for sid in range(n)
            if names[sid] == "spectral.jost" and parent[sid] >= 0
            and names[parent[sid]] == "resonance.find_resonances")
        smear_sizes = [self.size[sid] for sid in range(n)
                       if names[sid] == "verification.smeared_delta_check"]
        poles = size["resonance.find_resonances"]
        points = size["criterion.check_symmetry"]
        n_solve = calls["solution.solve_regular"]

        m = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "solution.solve_regular.calls": n_solve,
            "solution.solve_regular.self_s": self_s["solution.solve_regular"],
            "solution.solve_regular.us_per_call":
                1e6 * self_s["solution.solve_regular"] / n_solve if n_solve else 0.0,
            "solution.evaluate_chi.points": size["solution.evaluate_chi"],
            "solution.evaluate_chi.self_s": self_s["solution.evaluate_chi"],
        }
        for name in ("spectral.jost", "spectral.s_matrix", "spectral.eigenfunction",
                     "quadrature.simpson", "resonance.winding_number",
                     "resonance.residue_norm"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["spectral.energy_transform.self_s"] = self_s["spectral.energy_transform"]
        m["resonance.winding_number.jost_calls"] = under[("spectral.jost", "resonance.winding_number")]
        m["resonance.winding_number.failed"] = failed["resonance.winding_number"]
        m["resonance.find_resonances.self_s"] = self_s["resonance.find_resonances"]
        m["resonance.find_resonances.newton_jost_calls"] = newton_jost
        m["resonance.residue_norm.jost_calls"] = under[("spectral.jost", "resonance.residue_norm")]
        finder_jost = under[("spectral.jost", "resonance.find_resonances")]
        m["resonance.jost_calls_per_pole"] = finder_jost / poles if poles else 0.0
        m["criterion.check_symmetry.points"] = points
        m["criterion.check_symmetry.self_s"] = self_s["criterion.check_symmetry"]
        m["criterion.check_symmetry.solves_per_point"] = (
            under[("solution.solve_regular", "criterion.check_symmetry")] / points if points else 0.0)
        m["verification.smeared_delta_check.self_s"] = self_s["verification.smeared_delta_check"]
        m["verification.smeared_delta_check.eigenfunction_calls"] = (
            under[("spectral.eigenfunction", "verification.smeared_delta_check")])
        m["verification.smeared_delta_check.array_mb"] = max(smear_sizes, default=0) / 1e6
        return m
