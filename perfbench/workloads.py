"""Seeded job lists for the three benchmark workloads.

A job is a list of calls of similar total cost; every run of a workload at a
given ``--seed`` and ``--seconds`` executes exactly the same job list, so
counts repeat and percentiles do not depend on how fast the machine was.
Calls are plain data: ``{"cli": <subcommand>, "config": <dict>}`` runs
``radscat.cli.main`` on that config, ``{"smeared": <kwargs>}`` runs
``radscat.verification.smeared_delta_check``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

FAMILIES = ("standing_wave", "in", "out")

#: jobs planned per second of ``--seconds``; the job count is fixed from this
#: rate, never from a clock, so a faster program finishes the same list sooner
PLANNED_JOBS_PER_S = {
    "pole_search": 20.0,
    "criterion_grid": 5.2,
    "continuum_transform": 4.5,
}

# pole_search -----------------------------------------------------------------

#: the pole-search inputs are drawn from this fixed pool, whose reference zero
#: counts are cached in pole_counts.json (rebuild: python3 perfbench/pole_counts.py)
POOL_SEED = 20030213
POOL_SIZE = 2048
POLE_REGION = {"re_min": 0.0, "re_max": 6.0, "im_min": -1.5, "im_max": 0.0}
POLE_COUNTS = Path(__file__).resolve().parent / "pole_counts.json"
#: every seeded job's region holds exactly this many reference zeros.  Finder
#: cost grows with the zero count, so a mix of 2- and 3-zero regions has two
#: cost peaks, and the median job fell in the gap between them and jumped
#: from one peak to the other between runs.
POLES_PER_JOB = 3

#: narrow-limit shells a=1, b=2 whose region reaches just below the pole; the
#: finder fails on each of them ("not a zero of Jplus"), on every seed
NARROW_SHELLS = (
    (200.0, -1e-14),
    (500.0, -1e-21),
    (2000.0, -1e-41),
)
#: seeded pool jobs per round; each round adds the three narrow shells
POLE_ROUND_SEEDED = 47


def pole_pool() -> list[dict]:
    """The fixed pool: shells and 2-4-layer barriers with a zero-height core."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        n_barrier = int(rng.integers(1, 5))
        r = float(rng.uniform(0.8, 1.5))
        bps, hs = [round(r, 6)], [0.0]
        for _ in range(n_barrier):
            r += float(rng.uniform(0.15, 0.5))
            bps.append(round(r, 6))
            hs.append(round(float(rng.uniform(5.0, 40.0)), 6))
        pool.append({"breakpoints": bps, "heights": hs})
    return pool


def narrow_potentials() -> list[dict]:
    return [{"breakpoints": [1.0, 2.0], "heights": [0.0, v0]} for v0, _ in NARROW_SHELLS]


def pool_digest() -> str:
    data = {"pool": pole_pool(), "narrow": narrow_potentials(),
            "narrow_regions": NARROW_SHELLS, "region": POLE_REGION}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def pole_counts() -> dict:
    """The cached reference zero counts, refused when made for another pool."""
    cache = json.loads(POLE_COUNTS.read_text())
    if cache["digest"] != pool_digest():
        raise RuntimeError("pole_counts.json was made for another pool; "
                           "run python3 perfbench/pole_counts.py")
    return cache


def _pole_call(pot: dict, region: dict, tag: str) -> dict:
    cfg = {"kappa": 1.0, **pot, "resonances": {"region": region}}
    return {"cli": "resonances", "config": cfg, "tag": tag}


def pole_search_jobs(seed: int, n_rounds: int) -> list[list[dict]]:
    pool = pole_pool()
    eligible = [i for i, n in enumerate(pole_counts()["pool"]) if n == POLES_PER_JOB]
    rng = np.random.default_rng([seed, 1])
    picks: list[int] = []
    while len(picks) < n_rounds * POLE_ROUND_SEEDED:
        picks.extend(eligible[i] for i in rng.permutation(len(eligible)))
    narrow = [
        _pole_call(pot, {**POLE_REGION, "im_max": im_max}, f"narrow:{i}")
        for i, (pot, (_, im_max)) in enumerate(zip(narrow_potentials(), NARROW_SHELLS))
    ]
    jobs = []
    for rnd in range(n_rounds):
        chunk = picks[rnd * POLE_ROUND_SEEDED:(rnd + 1) * POLE_ROUND_SEEDED]
        seeded = [[_pole_call(pool[i], POLE_REGION, f"pool:{i}")] for i in chunk]
        # narrow shells at fixed places in each round
        for slot, call in zip((0, 16, 32), narrow):
            seeded.insert(slot, [call])
        jobs.extend(seeded)
    return jobs


# criterion_grid --------------------------------------------------------------

CRITERION_GRID = {"re_min": 0.5, "re_max": 20.0, "im_min": -4.0, "im_max": 4.0,
                  "n_re": 12, "n_im": 12}


def criterion_jobs(seed: int, n_jobs: int) -> list[list[dict]]:
    rng = np.random.default_rng([seed, 2])
    # cost grows with the layer count, so every run gets each of 12..24
    # equally often, in a seeded order
    counts = rng.permutation(np.resize(np.arange(12, 25), n_jobs))
    jobs = []
    for n_layers in counts:
        edges = np.cumsum(rng.uniform(0.08, 0.25, n_layers))
        heights = rng.uniform(-15.0, 30.0, n_layers)
        pot = {"kappa": 1.0,
               "breakpoints": [round(float(r), 6) for r in edges],
               "heights": [round(float(v), 6) for v in heights]}
        jobs.append([
            {"cli": "criterion",
             "config": {**pot, "criterion": {"label": fam, "grid": CRITERION_GRID}},
             "tag": fam}
            for fam in FAMILIES
        ])
    return jobs


# continuum_transform ---------------------------------------------------------

TRANSFORM_R_MAX = 24.0
TRANSFORM_N_R = 1201
TRANSFORM_E = {"e_min": 0.02, "e_max": 100.0, "n_e": 100}
#: r_max = 12 >= 10 b leaves a truncation error of 3e-5..2e-4 that doubling
#: r_max removes; with no such error the check's converged flag compares
#: errors at the rounding floor and flips (see CHANGES.md)
SMEAR_R_MAX = 12.0
SMEAR_N_R = 401
SMEAR_N_E = 121


def continuum_jobs(seed: int, n_jobs: int) -> list[list[dict]]:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for j in range(n_jobs):
        n_layers = int(rng.integers(1, 4))
        edges = np.cumsum(rng.uniform(0.15, 0.23, n_layers)) + 0.5
        heights = rng.uniform(0.0, 10.0, n_layers)
        pot = {"kappa": 1.0,
               "breakpoints": [0.5] + [round(float(r), 6) for r in edges],
               "heights": [0.0] + [round(float(v), 6) for v in heights]}
        b = pot["breakpoints"][-1]
        psi = {"center": round(float(b + rng.uniform(4.0, 7.0)), 6),
               "width": round(float(rng.uniform(1.2, 1.6)), 6),
               "k0": round(float(rng.uniform(4.0, 5.0)), 6)}
        calls = [
            {"cli": "transform",
             "config": {**pot, "transform": {"family": fam, "psi": psi,
                                             "r_max": TRANSFORM_R_MAX,
                                             "n_r": TRANSFORM_N_R, **TRANSFORM_E}},
             "tag": fam}
            for fam in FAMILIES
        ]
        calls.append({"smeared": {
            "kind": FAMILIES[j % 3], "potential": pot,
            "g_center": round(float(rng.uniform(16.0, 20.0)), 6), "g_width": 2.0,
            "r_max": SMEAR_R_MAX, "n_r": SMEAR_N_R, "n_e": SMEAR_N_E}, "tag": FAMILIES[j % 3]})
        jobs.append(calls)
    return jobs


def make_jobs(workload: str, seed: int, seconds: int) -> list[list[dict]]:
    """The fixed job list of one run."""
    planned = PLANNED_JOBS_PER_S[workload] * seconds
    if workload == "pole_search":
        round_size = POLE_ROUND_SEEDED + len(NARROW_SHELLS)
        return pole_search_jobs(seed, max(1, math.ceil(planned / round_size)))
    if workload == "criterion_grid":
        # whole sets of the 13 layer counts, so each count occurs equally often
        return criterion_jobs(seed, 13 * max(4, round(planned / 13)))
    if workload == "continuum_transform":
        # whole cycles of the three families of the smeared check
        return continuum_jobs(seed, 3 * max(14, round(planned / 3)))
    raise ValueError(f"unknown workload {workload!r}")
