"""radscat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pole_search --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports radscat from its ``src``.
``--trace 0`` measures the end-to-end metrics: set-up time as the median of
several fresh interpreters importing ``radscat.cli``, and the timings of one
worker process that runs the workload's fixed, seeded job list (workloads.py)
in a closed loop on one thread.  The worker runs the list in segments; between
two segments this script times set-up probes and checks the outputs of the
segment just run (checks.py), so the timed jobs are spread over the whole run.
``--trace 1`` reports the per-layer metrics instead, from ``python -X
importtime`` and from a second pass of the job list with timing wrappers
installed (tracing.py).  The last line of stdout is the JSON result; job
outputs, traces and the worker's raw timings go to perfbench/out/, which git
ignores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: the job list runs in this many segments.  This host's speed moves between
#: regimes some 25 % apart that last about a minute; a contiguous loop of
#: 20-odd seconds falls in one of them, while segments spread over the whole
#: run, with the set-up probes and the checks between them, average them.
SEGMENTS = 4
#: segment i starts no sooner than i * SLOT_SHARE * --seconds after the first,
#: so that every workload's timed jobs span a window of similar length; a run
#: whose probes and checks fill the slot does not wait
SLOT_SHARE = 0.36
#: fresh interpreters whose import time gives setup_s, the same number before
#: each segment; one warm-up import first also compiles the bytecode of a new
#: checkout
SETUP_SAMPLES = 8
IMPORTTIME_SAMPLES = 3
RUN_TIMEOUT_S = 170
#: the job-time tail is the highest percentile with this many jobs beyond it
TAIL_JOBS_BEYOND = 10

PROBE = ("import time; t = time.perf_counter(); import radscat.cli; "
         "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the checkout and wait for it to end."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout, check=True)


class WorkerError(RuntimeError):
    pass


class Worker:
    """The worker process (worker.py), driven one segment at a time over pipes."""

    def __init__(self, args, run_dir: Path):
        self.log_path = run_dir / "worker.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(run_dir)],
            cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True)

    def wait_ready(self) -> None:
        if self._answer() != "ready":
            raise self._error("did not start")

    def _answer(self) -> str:
        return self.proc.stdout.readline().strip()

    def _error(self, what: str) -> WorkerError:
        self.log.flush()
        tail = self.log_path.read_text()[-2000:]
        return WorkerError(f"worker {what}\n{tail}")

    def run(self, first: int, stop: int) -> dict[int, str]:
        """Time jobs first..stop-1; their errors by job number."""
        self.proc.stdin.write(f"run {first} {stop}\n")
        self.proc.stdin.flush()
        line = self._answer()
        if not line:
            raise self._error(f"ended during jobs {first}..{stop - 1}")
        return {int(j): e for j, e in json.loads(line).items()}

    def finish(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise self._error(f"exited with code {self.proc.returncode}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def _timeout(signum, frame):
    raise TimeoutError(f"the run took over {RUN_TIMEOUT_S} s")


def import_seconds(n: int) -> list[float]:
    """In-process import times of radscat.cli in n fresh interpreters."""
    return [float(_python(["-c", PROBE], 60).stdout) for _ in range(n)]


def import_profile() -> dict[str, float]:
    """Cumulative import times from -X importtime, medians over fresh interpreters."""
    samples = {"setup.import_radscat_s": [], "setup.import_scipy_integrate_s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        err = _python(["-X", "importtime", "-c", "import radscat.cli"], 60).stderr
        cumulative = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        samples["setup.import_radscat_s"].append(cumulative["radscat.cli"])
        samples["setup.import_scipy_integrate_s"].append(cumulative["scipy.integrate"])
    return {name: statistics.median(values) for name, values in samples.items()}


def end_to_end(result: dict, failed_jobs) -> dict[str, float]:
    ok = sorted(t for j, t in enumerate(result["job_s"]) if j not in failed_jobs)
    if len(ok) < 4 * TAIL_JOBS_BEYOND:
        raise RuntimeError(f"only {len(ok)} jobs completed; the tail needs 40")
    return {
        "job_s_p50": statistics.median(ok),
        "job_s_tail": ok[len(ok) - TAIL_JOBS_BEYOND - 1],
        "jobs_per_s": len(ok) / result["loop_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through subprocess.run and Worker.close, which
    # kill and wait for their children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "radscat" / "cli.py").is_file():
        print(f"no radscat sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
    bounds = [round(i * len(jobs) / SEGMENTS) for i in range(SEGMENTS + 1)]
    check = checks.CHECKS[args.workload]
    slot_s = SLOT_SHARE * args.seconds
    setup, failed, problems, t_first = [], 0, [], None
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    worker = None
    try:
        import_seconds(1)
        worker = Worker(args, run_dir)
        worker.wait_ready()
        for i, (first, stop) in enumerate(zip(bounds, bounds[1:])):
            if not args.trace:
                setup += import_seconds(SETUP_SAMPLES // SEGMENTS)
                if t_first is None:
                    t_first = time.monotonic()
                time.sleep(max(0.0, t_first + i * slot_s - time.monotonic()))
            errors = worker.run(first, stop)
            n_failed, found = check(jobs, run_dir / "jobs", errors, range(first, stop))
            failed += n_failed
            problems += found
        worker.finish()
        metrics = import_profile() if args.trace else {"setup_s": statistics.median(setup)}
    except subprocess.CalledProcessError as exc:
        print(f"{exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    except (WorkerError, TimeoutError) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if worker is not None:
            worker.close()
    result = json.loads((run_dir / "result.json").read_text())
    errors = {int(j): e for j, e in result["errors"].items()}
    if args.trace and result["trace_errors"] != result["errors"]:
        problems.append("the traced pass failed on other jobs than the bare pass")
    shutil.rmtree(run_dir / "jobs")
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)

    metrics.update(result["trace"] if args.trace else end_to_end(result, errors))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
