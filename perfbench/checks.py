"""Checks of every job's output, run outside the timed jobs.

Each ``check_<workload>(jobs, out_dir, errors, indices)`` checks the jobs
numbered ``indices``, whose errors are ``errors``, and returns
(n_failed_jobs, problems).  A job that
raised counts as failed; it is a problem unless it is one of the known
narrow-limit failures.  Any other problem makes the run's ``correct`` false.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

import workloads
from reference import RefPotential

#: a reported pole must lie this close (relative to max(1, |k|)) to a zero of
#: the reference Jplus; the CSV keeps 12 significant digits
POLE_TOL = 1e-9
#: ... and its imaginary part must be right to this share of itself
POLE_IM_RTOL = 1e-3
NORM_RTOL = 1e-6
ENERGY_RTOL = 1e-9
PARSEVAL_RTOL = 1e-4
FAMILY_RTOL = 1e-8
SMEAR_RTOL = 1e-3
NARROW_ERROR = "ValueError:"
NARROW_MESSAGE = "is not a zero of Jplus"


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# radscat v"):
        raise ValueError(f"{path.name}: missing provenance header")
    columns = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def _read_record(path: Path) -> dict:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# radscat v"):
        raise ValueError(f"{path.name}: missing provenance header")
    return dict(line.split("=", 1) for line in lines[1:])


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# pole_search -----------------------------------------------------------------

def _check_poles(path: Path, cfg: dict, expected_count: int) -> list[str]:
    columns, rows = _read_table(path)
    if columns != ["n", "re_k", "im_k", "e_n", "gamma_n", "re_n2", "im_n2"]:
        return [f"{path.name}: unexpected columns {columns}"]
    problems = []
    if len(rows) != expected_count:
        problems.append(f"{path.name}: {len(rows)} poles, reference counts {expected_count}")
    ref = RefPotential(cfg["breakpoints"], cfg["heights"], cfg["kappa"])
    region = cfg["resonances"]["region"]
    zeros: list[complex] = []
    for i, (n, re_k, im_k, e_n, gamma_n, re_n2, im_n2) in enumerate(rows):
        k = complex(re_k, im_k)
        if n != i + 1 or (i and re_k < rows[i - 1][1]):
            problems.append(f"{path.name}: rows not numbered in order of Re k")
        if not (region["re_min"] <= re_k <= region["re_max"]
                and region["im_min"] <= im_k <= region["im_max"]):
            problems.append(f"{path.name}: pole {k} outside the region")
        # N^2 = i Jminus / Jplus' is evaluated at the reference zero itself:
        # Jminus vanishes at conj(k_n), so off a narrow pole it moves fast
        k_ref = ref.refine_zero(mp.mpc(re_k, im_k))
        offset = complex(k_ref) - k
        n2_ref = complex(ref.residue_norm(k_ref))
        if abs(offset) > POLE_TOL * max(1.0, abs(k)) or abs(offset.imag) > POLE_IM_RTOL * abs(im_k):
            problems.append(f"{path.name}: k={k} is {abs(offset):.2e} from a reference zero")
        if any(abs(complex(k_ref) - z) <= POLE_TOL * max(1.0, abs(k)) for z in zeros):
            problems.append(f"{path.name}: k={k} repeats a reference zero already reported")
        zeros.append(complex(k_ref))
        if abs(complex(re_n2, im_n2) - n2_ref) > NORM_RTOL * abs(n2_ref):
            problems.append(f"{path.name}: N^2={complex(re_n2, im_n2)} vs reference {n2_ref}")
        z = k * k / cfg["kappa"]
        if not (_close(e_n, z.real, ENERGY_RTOL) and _close(gamma_n, 2 * abs(z.imag), ENERGY_RTOL)):
            problems.append(f"{path.name}: e_n, gamma_n = {e_n}, {gamma_n} disagree with k={k}")
    return problems


def check_pole_search(jobs, out_dir: Path, errors: dict, indices) -> tuple[int, list[str]]:
    cache = workloads.pole_counts()
    problems, failed = [], 0
    for j in indices:
        (call,) = jobs[j]
        source, idx = call["tag"].split(":")
        count = cache[source][int(idx)]
        if j in errors:
            failed += 1
            if not (source == "narrow" and errors[j].startswith(NARROW_ERROR)
                    and NARROW_MESSAGE in errors[j]):
                problems.append(f"job {j} ({call['tag']}) failed: {errors[j]}")
            continue
        problems += _check_poles(out_dir / f"{j:05d}_0.out", call["config"], count)
    return failed, problems


# criterion_grid --------------------------------------------------------------

EXPECTED_CLASS = {"standing_wave": "normalization",
                  "in": "physically_distinct", "out": "physically_distinct"}


def check_criterion_grid(jobs, out_dir: Path, errors: dict, indices) -> tuple[int, list[str]]:
    problems = [f"job {j} failed: {e}" for j, e in errors.items()]
    for j in indices:
        if j in errors:
            continue
        for c, call in enumerate(jobs[j]):
            rec = _read_record(out_dir / f"{j:05d}_{c}.out")
            fam = call["tag"]
            if rec.get("label") != fam or rec.get("classification") != EXPECTED_CLASS[fam]:
                problems.append(f"job {j}: {fam} classified {rec.get('classification')}")
            if rec.get("n_nonfinite") != "0":
                problems.append(f"job {j}: {fam} has {rec.get('n_nonfinite')} non-finite points")
    return len(errors), problems


# continuum_transform ---------------------------------------------------------

def _packet_norm(psi: dict, r_max: float) -> float:
    """int_0^r_max |psi|^2 dr of the Gaussian packet, in closed form."""
    c, w = psi["center"], psi["width"]
    return w * math.sqrt(math.pi) / 2 * (math.erf((r_max - c) / w) + math.erf(c / w))


def check_continuum_transform(jobs, out_dir: Path, errors: dict, indices) -> tuple[int, list[str]]:
    problems = [f"job {j} failed: {e}" for j, e in errors.items()]
    for j in indices:
        if j in errors:
            continue
        job = jobs[j]
        coeffs = {}
        for c, call in enumerate(job[:3]):
            columns, rows = _read_table(out_dir / f"{j:05d}_{c}.out")
            energies = rows[:, 0]
            coeffs[call["tag"]] = rows[:, 1] + 1j * rows[:, 2]
        cfg = job[0]["config"]
        tr = cfg["transform"]
        norm = _packet_norm(tr["psi"], tr["r_max"])
        for fam, v in coeffs.items():
            weight = np.trapezoid(np.abs(v) ** 2, energies)
            if not _close(weight, norm, PARSEVAL_RTOL):
                problems.append(f"job {j}: Parseval fails for {fam}: {weight} vs {norm}")
        sw, c_in, c_out = coeffs["standing_wave"], coeffs["in"], coeffs["out"]
        scale = np.abs(c_in).max()
        if np.abs(np.abs(sw) - np.abs(c_in)).max() > FAMILY_RTOL * scale:
            problems.append(f"job {j}: |standing_wave| != |in|")
        ref = RefPotential(cfg["breakpoints"], cfg["heights"], cfg["kappa"])
        s_ref = np.array([complex(ref.s_matrix(math.sqrt(cfg["kappa"] * e))) for e in energies])
        if np.abs(c_in - np.conj(s_ref) * c_out).max() > FAMILY_RTOL * scale:
            problems.append(f"job {j}: in != conj(S_ref) out")
        spec = job[3]["smeared"]
        rep = json.loads((out_dir / f"{j:05d}_3.json").read_text())
        closed = spec["g_width"] * math.sqrt(math.pi) * math.erf(6.0)
        if not _close(rep["rhs"], closed, 1e-9):
            problems.append(f"job {j}: smeared rhs {rep['rhs']} vs closed form {closed}")
        if not _close(rep["lhs"], closed, SMEAR_RTOL) or not rep["converged"]:
            problems.append(f"job {j}: smeared lhs {rep['lhs']} vs {closed}, "
                            f"converged={rep['converged']}")
    return len(errors), problems


CHECKS = {
    "pole_search": check_pole_search,
    "criterion_grid": check_criterion_grid,
    "continuum_transform": check_continuum_transform,
}
