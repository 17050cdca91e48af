"""One workload's timed loop, run in a fresh single-threaded interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Imports ``radscat.cli`` from the checkout's ``src``, writes every job's config
to OUT_DIR/jobs and answers ``ready``.  Then each line ``run FIRST STOP`` on
stdin times jobs FIRST to STOP-1 with no wrappers installed and is answered
with their errors as one JSON line; the end of stdin ends the timed jobs.  With TRACE=1 it then runs the whole list again under
``tracing.Tracer``.  Results go to OUT_DIR/result.json; job outputs stay in
OUT_DIR/jobs for the checks in run.py.  The program's own stdout goes to
stderr, so stdout carries only the answers.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    t0 = perf_counter()
    import radscat.cli
    import_s = perf_counter() - t0
    if Path(radscat.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"radscat imported from {radscat.cli.__file__}, not from {SRC}")
    return import_s


def _prepare(jobs, out_dir: Path) -> list[list[tuple]]:
    """Turn job data into calls; CLI configs are written here, outside the timing."""
    cfg_dir = out_dir / "cfg"
    cfg_dir.mkdir(parents=True)
    prepared = []
    for j, job in enumerate(jobs):
        calls = []
        for c, call in enumerate(job):
            stem = f"{j:05d}_{c}"
            if "cli" in call:
                cfg = cfg_dir / f"{stem}.json"
                cfg.write_text(json.dumps(call["config"]))
                out = out_dir / f"{stem}.out"
                calls.append(("cli", [call["cli"], "--config", str(cfg), "--out", str(out)], out))
            else:
                calls.append(("smeared", call["smeared"], out_dir / f"{stem}.json"))
        prepared.append(calls)
    return prepared


def _smeared(spec):
    import radscat
    import radscat.verification

    pot = radscat.Potential(tuple(spec["potential"]["breakpoints"]),
                            tuple(spec["potential"]["heights"]))
    scale = radscat.PhysicalScale(spec["potential"]["kappa"])
    rep = radscat.verification.smeared_delta_check(
        radscat.Family(spec["kind"]), pot, scale, spec["g_center"], spec["g_width"],
        r_max=spec["r_max"], n_r=spec["n_r"], n_e=spec["n_e"])
    return {"lhs": rep.lhs, "rhs": rep.rhs, "converged": rep.converged,
            "relative_error": rep.relative_error, "n_r": rep.n_r, "n_e": rep.n_e}


def run_jobs(prepared, first, stop, tracer=None):
    """Time jobs first..stop-1; a job fails when a call raises or exits non-zero."""
    import radscat.cli

    times, errors, smeared = [], {}, {}
    gc.collect()
    t_loop = perf_counter()
    for j in range(first, stop):
        if tracer is not None:
            tracer.job = j
        t0 = perf_counter()
        try:
            for kind, arg, out in prepared[j]:
                if kind == "cli":
                    code = radscat.cli.main(arg)
                    if code != 0:
                        raise RuntimeError(f"radscat {arg[0]} exited with code {code}")
                else:
                    smeared[str(out)] = _smeared(arg)
        except Exception as exc:
            errors[j] = "".join(traceback.format_exception_only(exc)).strip()
        times.append(perf_counter() - t0)
    return perf_counter() - t_loop, times, errors, smeared


def _write_smeared(smeared):
    for path, record in smeared.items():
        Path(path).write_text(json.dumps(record))


def main(argv):
    workload, seed, seconds, trace, out_dir = argv
    out_dir = Path(out_dir)
    answer, sys.stdout = sys.stdout, sys.stderr
    import_s = _import_program()
    import workloads

    jobs = workloads.make_jobs(workload, int(seed), int(seconds))
    prepared = _prepare(jobs, out_dir / "jobs")
    loop_s, times, errors = 0.0, [], {}
    print("ready", file=answer, flush=True)
    for line in sys.stdin:
        _, first, stop = line.split()
        segment_s, segment_times, segment_errors, smeared = run_jobs(prepared, int(first), int(stop))
        loop_s += segment_s
        times += segment_times
        errors.update(segment_errors)
        _write_smeared(smeared)
        print(json.dumps(segment_errors), file=answer, flush=True)
    if len(times) != len(prepared):
        raise ValueError(f"only {len(times)} of {len(prepared)} jobs were run")
    result = {
        "import_s": import_s,
        "loop_s": loop_s,
        "job_s": times,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced_s, _, traced_errors, smeared = run_jobs(prepared, 0, len(prepared), tracer)
        tracer.uninstall()
        _write_smeared(smeared)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_s - loop_s
        tracer.write(out_dir / "spans.csv")
        result["trace"] = metrics
        result["trace_errors"] = traced_errors
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
