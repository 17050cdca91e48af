"""The names and imports of radscat that the benchmark in perfbench/ relies on.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of its ``TARGETS`` for
every ``--trace 1`` run, and ``perfbench/run.py`` reads the cumulative import
time of ``scipy.integrate`` under ``import radscat.cli``.  A renamed or
deleted traced name, or a module that no longer loads ``scipy.integrate``,
stops those runs.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
