"""The names and imports of radscat that the benchmark in perfbench/ relies on.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of its ``TARGETS`` for
every ``--trace 1`` run, and ``perfbench/run.py`` reads the cumulative import
time of ``scipy.integrate`` under ``import radscat.cli``.  A renamed or
deleted traced name, or a module that no longer loads ``scipy.integrate``,
stops those runs.  ``perfbench/checks.py`` accepts the failure of the three
narrow-limit ``pole_search`` jobs only as a ``ValueError`` carrying
``NARROW_MESSAGE``; any other outcome makes a run incorrect.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

import radscat.cli

ROOT = Path(__file__).resolve().parents[1]


def load(name, as_name=None):
    spec = importlib.util.spec_from_file_location(
        as_name or f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load("tracing").TARGETS


@pytest.mark.parametrize("name, target", sorted(load_targets().items()))
def test_traced_name_resolves(name, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_cli_import_loads_scipy_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, radscat.cli; sys.exit('scipy.integrate' not in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("index", range(len(load("workloads").NARROW_SHELLS)))
def test_narrow_shell_fails_as_the_checks_accept(index, monkeypatch, tmp_path):
    # checks.py imports its siblings by their plain names
    for name in ("workloads", "reference"):
        monkeypatch.setitem(sys.modules, name, load(name, name))
    checks = load("checks")
    (call,) = [c for job in sys.modules["workloads"].pole_search_jobs(1, 1) for c in job
               if c["tag"] == f"narrow:{index}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(call["config"]))
    argv = [call["cli"], "--config", str(cfg), "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError) as raised:
        radscat.cli.main(argv)
    # the error as perfbench/worker.py records it
    error = "".join(traceback.format_exception_only(raised.value)).strip()
    assert error.startswith(checks.NARROW_ERROR) and checks.NARROW_MESSAGE in error
