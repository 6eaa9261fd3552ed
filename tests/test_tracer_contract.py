"""The benchmark tracer (perfbench/traced.py) wraps plmkit names; they must stay bound.

The tracer is imported by path and never installed, so this test reads
perfbench/ and changes nothing there.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from plmkit import cli, fields
from plmkit.report import IdentityRecord, InvariantReport

_TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_traced", _TRACED_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACED = _load_tracer().TRACED


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns])
def test_traced_function_is_bound(name):
    modname, fname = name.split(".")
    assert callable(getattr(importlib.import_module(f"plmkit.{modname}"), fname, None))


def test_traced_hooks_are_bound():
    assert callable(cli._collect_tasks)
    assert issubclass(cli.ThreadPoolExecutor, ThreadPoolExecutor)
    assert isinstance(IdentityRecord.__dict__["from_field"], classmethod)
    assert callable(InvariantReport.to_json)


def test_traced_file_arguments_keep_their_positions():
    # the tracer sizes the file at args[0] of read_grid and args[1] of write_grid
    assert list(inspect.signature(fields.read_grid).parameters)[0] == "path"
    assert list(inspect.signature(fields.write_grid).parameters)[1] == "path"


def test_traced_verify_runs_and_keeps_the_report(tmp_path):
    # the tracer wraps each (name, thunk) unit of cli._collect_tasks
    root = _TRACED_PY.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["verify", "--scenario", "ell-paraboloid", "--no-meta", "--report"]
    traced = subprocess.run([sys.executable, str(_TRACED_PY), str(tmp_path / "trace.json"), "--", *argv, "r.json"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert traced.returncode == 0, traced.stderr
    plain = subprocess.run([sys.executable, "-m", "plmkit.cli", *argv, "plain.json"],
                           cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert plain.returncode == 0, plain.stderr
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    stats = json.loads((tmp_path / "trace.json").read_text())["stats"]
    # a pool built outside cli.ThreadPoolExecutor would leave cli.pool.wall_s at 0
    assert stats["cli.pool"]["calls"] >= 1
    assert stats["cli.pool.task"]["calls"] >= 1
    assert stats["multilinear.star_of_wedge"]["calls"] > 0


# the functions verify's suites run, by the fixture whose verify runs them
_SUITE_SPANS = {
    "hypar": ["smooth.plm_residual", "smooth.orthogonality_report", "smooth.det_invariance_report",
              "affine.affine_forms", "affine.closure_residual"],
    "ell-paraboloid": ["hyper.hyper_plm_residual", "hyper.hyper_compat_residual"],
    "hypar-lattice": ["discrete.discrete_residual", "discrete.discrete_det_invariance", "discrete.moutard_residual"],
}


@pytest.mark.parametrize("fixture", sorted(_SUITE_SPANS))
def test_traced_verify_sees_every_suite_function(tmp_path, fixture):
    # a suite that holds its function from import time would bypass the
    # tracer's wrapper, and its span would read 0 s
    env = dict(os.environ, PYTHONPATH=str(_TRACED_PY.parent.parent / "src"))
    traced = subprocess.run([sys.executable, str(_TRACED_PY), str(tmp_path / "trace.json"), "--",
                             "verify", "--scenario", fixture, "--no-meta"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert traced.returncode == 0, traced.stderr
    stats = json.loads((tmp_path / "trace.json").read_text())["stats"]
    calls = {name: stats.get(name, {}).get("calls", 0) for name in _SUITE_SPANS[fixture]}
    assert all(calls.values()), calls
