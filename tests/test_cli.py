"""Command-line interface: exit codes, artifacts, determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plmkit import cli
from plmkit.cli import main
from plmkit.errors import DomainError
from plmkit.fields import FieldGrid, read_grid, read_lattice, write_grid
from plmkit.scenarios import list_scenarios, scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify ---------------------------------------------------------------


def test_verify_hypar_smooth_suite(capsys, tmp_path):
    rep = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--scenario", "hypar",
                       "--suite", "smooth-asymptotic", "--report", str(rep))
    assert code == 0
    assert "PASS" in out
    data = json.loads(rep.read_text())
    assert data["pass"] is True
    assert data["schema_version"] == 1
    assert "cross_sign_anchor" in data["conventions"]
    names = [r["name"] for r in data["identities"]]
    assert any("det_mixed" in n for n in names)
    for r in data["identities"]:
        assert r["pass"] and r["max_residual"] <= r["tolerance"]


def test_verify_all_suites_on_each_scenario(capsys):
    for name in ("hypar", "conj-paraboloid", "ell-paraboloid", "hypar-lattice"):
        code, out, _ = run(capsys, "verify", "--scenario", name)
        assert code == 0, (name, out)


def test_verify_moutard_seeded(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "moutard-random",
                       "--seed", "42", "--size", "32", "--suite", "discrete")
    assert code == 0
    assert "PASS" in out


def test_verify_reports_are_byte_identical_without_meta(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--scenario", "moutard-random", "--seed", "1",
                         "--suite", "discrete", "--report", str(path), "--no-meta")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_metadata_records_the_argv_main_parsed(capsys, tmp_path, monkeypatch):
    # used to record sys.argv[1:], the arguments of whatever process called main
    monkeypatch.setattr(sys, "argv", ["pytest", "-k", "zzz"])
    argv = ["verify", "--scenario", "hypar-lattice", "--report", str(tmp_path / "m.json")]
    assert run(capsys, *argv)[0] == 0
    assert json.loads((tmp_path / "m.json").read_text())["metadata"]["argv"] == argv


def test_verify_unrelated_file_pair_fails(capsys, tmp_path):
    scn = scenario("hypar", h=0.1)
    nu_path, f_path = tmp_path / "nu.csv", tmp_path / "f.csv"
    write_grid(scn.nu_grid, nu_path)
    # same sampling box, but a surface unrelated to that conormal
    bad = FieldGrid(origin=scn.f_grid.origin, spacing=scn.f_grid.spacing,
                    values=scn.f_grid.values + 0.3 * np.sin(scn.f_grid.values))
    write_grid(bad, f_path)
    code, out, _ = run(capsys, "verify", "--nu", str(nu_path), "--f", str(f_path),
                       "--suite", "smooth-asymptotic")
    assert code == 1
    assert "FAIL" in out


def test_verify_matching_file_pair_passes(capsys, tmp_path):
    scn = scenario("hypar", h=0.1)
    nu_path, f_path = tmp_path / "nu.csv", tmp_path / "f.csv"
    write_grid(scn.nu_grid, nu_path)
    write_grid(scn.f_grid, f_path)
    code, _, _ = run(capsys, "verify", "--nu", str(nu_path), "--f", str(f_path),
                     "--suite", "smooth-asymptotic")
    assert code == 0


def test_verify_file_input_takes_the_chart_of_the_suite(capsys, tmp_path):
    # the hypar pair is asymptotic: its conjugate-chart identities run and fail
    nu_path, f_path = _grid_files(tmp_path)
    code, out, _ = run(capsys, "verify", "--nu", nu_path, "--f", f_path, "--suite", "smooth-conjugate")
    assert code == 1 and "FAIL  smooth-conjugate/defining_relation/" in out


@pytest.mark.parametrize("suite", ["smooth-asymptotic", "smooth-conjugate"])
@pytest.mark.parametrize("f_comps, nu_comps", [(3, 4), (4, 3), (4, 5), (5, 5)])
def test_verify_file_pair_of_other_component_counts_is_one_usage_error(capsys, tmp_path, suite, f_comps, nu_comps):
    # a surface and its conormal have 4 components each: every smooth suite
    # refuses any other count with one error line that names it, not a traceback
    grid = scenario("hypar", h=0.1).nu_grid
    paths = []
    for tag, comps in (("f", f_comps), ("nu", nu_comps)):
        values = np.concatenate([grid.values, grid.values[..., :1]], axis=-1)[..., :comps]
        paths.append(tmp_path / f"{tag}.csv")
        write_grid(FieldGrid(origin=grid.origin, spacing=grid.spacing, values=values), paths[-1])
    code, out, err = run(capsys, "verify", "--f", str(paths[0]), "--nu", str(paths[1]), "--suite", suite)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\b4 components\n", err), err


@pytest.mark.parametrize("suite, name", [("smooth-asymptotic", "hypar"), ("smooth-conjugate", "conj-paraboloid")])
@pytest.mark.parametrize("key", ["spacing", "origin"])
def test_verify_file_pair_on_other_sites_is_one_usage_error(capsys, tmp_path, suite, name, key):
    # the identities compare values site by site: on sites twice as far apart
    # the surface used to fail them, and on shifted sites to pass them
    scn = scenario(name, h=0.1)
    f = scn.f_grid
    moved = {"spacing": (f.origin, (0.2, 0.2)), "origin": (tuple(o + 0.3 for o in f.origin), f.spacing)}[key]
    nu_path, f_path = tmp_path / "nu.csv", tmp_path / "f.csv"
    write_grid(scn.nu_grid, nu_path)
    write_grid(FieldGrid(*moved, values=f.values), f_path)
    want = [getattr(read_grid(path), key) for path in (f_path, nu_path)]
    code, out, err = run(capsys, "verify", "--nu", str(nu_path), "--f", str(f_path), "--suite", suite)
    assert (code, out) == (2, "")
    assert err == f"error: --f grid {key} {want[0]} differs from --nu grid {key} {want[1]}\n"


def test_the_suite_table_declares_what_verify_runs(capsys, tmp_path):
    # --suite takes the table's families and all; every row of the table runs
    # on some fixture; and on each fixture --suite all reports, in order, the
    # records of each family that applies, run alone
    families = list(dict.fromkeys(s.family for s in cli._SUITES))
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out).group(1).split(",") == [*families, "all"]

    def records(name, suite):
        path = tmp_path / f"{name}-{suite}.json"
        code, _, err = run(capsys, "verify", "--scenario", name, "--suite", suite, "--no-meta", "--report", str(path))
        if code == 2:
            assert err == f"error: suite {suite!r} is not applicable to this input\n"
            return []
        assert code == 0, err
        return json.loads(path.read_text())["identities"]

    ran = set()
    for name in list_scenarios():
        whole = records(name, "all")
        assert whole == [rec for family in families for rec in records(name, family)]
        ran |= {"/".join(rec["name"].split("/")[:2]) for rec in whole}
    assert ran == {f"{s.family}/{s.name}" for s in cli._SUITES}


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    code, _, err = run(capsys, "verify", "--scenario", "nosuch")
    assert code == 2
    assert "available" in err


@pytest.mark.parametrize("name", ["moutard-random", "hypar-lattice"])
@pytest.mark.parametrize("size", [0, 1, 2])
def test_verify_tiny_lattice_is_usage_error(capsys, name, size):
    code, _, err = run(capsys, "verify", "--scenario", name, "--size", str(size))
    assert code == 2
    assert "Traceback" not in err
    assert "at least 3" in err


_SEEDED = sorted(cmd for cmd, takes in cli._TAKES.items() if any("seed" in opts for opts in takes.values()))


@pytest.mark.parametrize("cmd", _SEEDED)
def test_negative_seed_is_usage_error(capsys, tmp_path, cmd):
    # the generator takes no negative seed: a usage error naming the option (exit 2), not a traceback
    extra = {"forms": ["--which", "discrete"], "scenario-dump": ["--out", str(tmp_path / "d")]}
    code, out, err = run(capsys, cmd, "--scenario", "moutard-random", "--seed", "-5", *extra.get(cmd, []))
    assert (code, out, err) == (2, "", "error: --seed must be a non-negative integer, got -5\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,rejected",
    [(["hypar", "--size", "5"], "size"), (["moutard-random", "--grid", "0:1"], "x0")],
)
def test_verify_inapplicable_scenario_parameter_is_usage_error(capsys, argv, rejected):
    code, _, err = run(capsys, "verify", "--scenario", *argv)
    assert code == 2
    assert "Traceback" not in err
    assert f"does not take {rejected}" in err


@pytest.mark.parametrize("name", ["hypar", "ell-paraboloid"])
@pytest.mark.parametrize(
    "argv",
    [["--h", "0"], ["--h", "-0.1"], ["--h", "nan"], ["--h", "1e-320"],
     ["--grid", "1:0"], ["--grid", "0:1,0:-1"], ["--grid", "0:inf"], ["--grid", "0:x"]],
)
def test_verify_bad_grid_parameter_is_usage_error(capsys, name, argv):
    code, _, err = run(capsys, "verify", "--scenario", name, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize("h", ["0", "-0.0", "nan", "inf"])
def test_verify_degenerate_hypar_lattice_is_usage_error(capsys, h):
    # at h = 0 the conormal is constant and the integrated surface one point
    code, out, err = run(capsys, "verify", "--scenario", "hypar-lattice", "--h", h)
    assert code == 2
    assert "Traceback" not in err and "PASS" not in out
    assert err.startswith("error: lattice spacing h")


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_non_finite_moutard_strip_spacing_is_usage_error(capsys, h):
    # -0 * h is not finite: the error is at the first strip site, before any site evolves
    code, out, err = run(capsys, "verify", "--scenario", "moutard-random", "--h", h)
    assert (code, out, err) == (2, "", "error: non-finite value in initial_row at index 0\n")


_OVERFLOWING = [
    ("--scenario hypar-lattice --h 1e308 --size 4", "lattice contains non-finite entries"),
    # the products of the closure test overflow to a NaN residual, which fails
    ("--scenario moutard-random --size 4 --h 1e200", "Moutard closure violated (residual nan) at plaquette (0, 0)"),
    ("--scenario ell-paraboloid --grid 0:1e300 --h 1e299", "jet contains non-finite entries"),
    ("--scenario cubic-graph --grid 0:1e300 --h 1e299", "jet contains non-finite entries"),
    ("--scenario hypar --h 1e-300 --grid 0:1e-299", "jet contains non-finite entries"),
]


def _plmkit(*argv):
    """A fresh process, which prints each floating-point warning, from any worker thread, to stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "plmkit.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("argv, message", _OVERFLOWING)
def test_overflowing_fixture_input_prints_one_error_line(argv, message):
    # the finiteness check that follows the overflow is the only line
    proc = _plmkit("verify", *argv.split())
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [argv for argv, _ in _OVERFLOWING] + [
    # finite fields whose forms' products overflow, which printed numpy's
    # RuntimeWarnings while forms ran outside an error state; the lattice's
    # F2d determinants are not finite
    "--scenario moutard-random --size 8 --h 1e90",
    "--scenario cubic-graph --grid 0:1e80 --h 1e79",
])
@pytest.mark.parametrize("which", ["projective", "affine", "discrete"])
def test_forms_of_overflowing_input_write_finite_values_or_one_error_line(tmp_path, argv, which):
    # a form value that is not finite is refused, as a non-finite input is,
    # and no file is written; a table written holds finite values alone, but
    # for the nan of a discrete form outside its stencil
    out = tmp_path / "forms.csv"
    proc = _plmkit("forms", "--which", which, *argv.split(), "--out", str(out))
    err = proc.stderr.splitlines()
    if proc.returncode:
        assert (proc.returncode, len(err)) == (2, 1) and err[0].startswith("error: ") and not out.exists()
    else:
        assert err == [] and which != "discrete"
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=2)).all()
    if which == "discrete" and "1e90" in argv:
        assert err == ["error: form F2d is not finite at 49 of its 49 sites"]


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        ("reconstruct --nu {nu} --out {dir}/r.csv", 4,
         ["error: 9 degenerate/mismatched points (first at x=0.25, y=0.25); a grid CSV cannot leave them out (--obj can)"]),
        ("verify --nu {nu} --f {nu} --suite smooth-conjugate --no-meta", 1, []),
    ],
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_grid_files_print_no_numpy_warning(tmp_path, argv, code, stderr, threads):
    # conormal entries near 1e150 overflow the determinants, norms and
    # bivector norms of every site; each such value is judged afterwards, as a
    # bad site or a failing NaN record, and numpy's warnings stay off stderr,
    # in the worker threads as in the calling one
    rng = np.random.default_rng(0)
    nu = tmp_path / "big.csv"
    write_grid(FieldGrid(origin=(0.0, 0.0), spacing=(0.25, 0.25), values=1e150 * (1 + rng.standard_normal((5, 5, 4)))),
               nu)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "plmkit.cli", *argv.format(nu=nu, dir=tmp_path).split()],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src), "PLM_NUM_THREADS": threads})
    assert (proc.returncode, proc.stderr.splitlines()) == (code, stderr)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --scenario hypar --h 1e-300", "grid box [-1.0, 1.0] x [-1.0, 1.0] holds too many steps of h = 1e-300"),
        ("verify --scenario hypar --grid 0:1e300 --h 1",
         "grid box [0.0, 1e+300] x [0.0, 1e+300] holds too many steps of h = 1.0"),
        ("scenario-dump --scenario ell-paraboloid --h 1e-300",
         "grid box [-1.0, 1.0] x [-1.0, 1.0] holds too many steps of h = 1e-300"),
        ("verify --scenario moutard-random --size 10000000000000000000",
         "a lattice of size 10000000000000000000 holds more sites than numpy can index"),
        ("verify --scenario hypar-lattice --size 10000000000000000000",
         "a lattice of size 10000000000000000000 holds more sites than numpy can index"),
    ],
)
def test_a_grid_numpy_cannot_index_is_usage_error(capsys, tmp_path, argv, message):
    # each site count is past numpy's index type, so the check comes before any allocation
    code, out, err = run(capsys, *argv.split(), *(["--out", str(tmp_path / "d")] if "dump" in argv else []))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_units_that_finish_out_of_order_join_in_report_order(monkeypatch):
    # the first unit waits until the last has finished, so at two workers
    # every later unit finishes first; the records still come in report order
    scn = scenario("hypar")
    monkeypatch.setattr(cli, "TILE_SITES", 200)
    monkeypatch.setenv("PLM_NUM_THREADS", "1")
    expected = cli.verify(scn).to_json()
    units = cli._collect_tasks(scn)
    assert len({name.split("[")[0] for name, _ in units}) == 3 and len(units) > 6
    last_done, finished = threading.Event(), []

    def unit(k, thunk):
        if k == 0:
            assert last_done.wait(timeout=60)
        result = thunk()
        finished.append(k)
        if k == len(units) - 1:
            last_done.set()
        return result

    collect = cli._collect_tasks
    monkeypatch.setattr(cli, "_collect_tasks", lambda *args: [
        (name, lambda k=k, thunk=thunk: unit(k, thunk)) for k, (name, thunk) in enumerate(collect(*args))])
    monkeypatch.setenv("PLM_NUM_THREADS", "2")
    assert cli.verify(scn).to_json() == expected
    assert finished[-1] == 0 and sorted(finished) == list(range(len(units)))


@pytest.mark.parametrize("value", ["abc", "2.5", "two"])
def test_non_integer_thread_count_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("PLM_NUM_THREADS", value)
    code, out, err = run(capsys, "verify", "--scenario", "hypar")
    assert code == 2
    assert "Traceback" not in err and "PASS" not in out
    assert "PLM_NUM_THREADS" in err and repr(value) in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_thread_count_is_usage_error(capsys, monkeypatch, value):
    # README: the value must be a positive integer; one worker is not a fallback
    monkeypatch.setenv("PLM_NUM_THREADS", value)
    code, out, err = run(capsys, "verify", "--scenario", "hypar")
    assert code == 2
    assert "PASS" not in out
    assert err.splitlines() == [f"error: PLM_NUM_THREADS must be a positive integer, got {value!r}"]


def test_worker_count_is_capped_by_the_units(monkeypatch):
    # checked without a pool: no thread is started for a huge value
    monkeypatch.setenv("PLM_NUM_THREADS", str(10**18))
    assert cli._worker_count(7) == 7
    monkeypatch.setenv("PLM_NUM_THREADS", "1")
    assert cli._worker_count(7) == 1
    monkeypatch.delenv("PLM_NUM_THREADS")
    assert 1 <= cli._worker_count(3) <= 3


@pytest.mark.parametrize("name", ["moutard-random", "hypar-lattice"])
def test_verify_smallest_lattice_passes(capsys, name):
    code, _, _ = run(capsys, "verify", "--scenario", name, "--size", "3")
    assert code == 0


def test_verify_nu_without_f_is_usage_error(capsys, tmp_path):
    # it used to read the grid and then call the suite not applicable
    write_grid(scenario("hypar", h=0.1).nu_grid, tmp_path / "nu.csv")
    code, out, err = run(capsys, "verify", "--nu", str(tmp_path / "nu.csv"), "--suite", "smooth-asymptotic")
    assert (code, out, err) == (2, "", "error: verify --nu needs --f\n")


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "verify", "--nu", "/nonexistent.csv", "--f", "/x.csv",
                       "--suite", "smooth-asymptotic")
    assert code == 3


# --- reconstruct ----------------------------------------------------------


def test_reconstruct_writes_surface_and_obj(capsys, tmp_path):
    out, obj = tmp_path / "f.csv", tmp_path / "f.obj"
    code, _, _ = run(capsys, "reconstruct", "--scenario", "hypar",
                     "--out", str(out), "--obj", str(obj))
    assert code == 0
    grid = read_grid(out)
    assert grid.ncomp == 4
    # z == x * y on the affine normalization
    aff = grid.values[..., :3] / -grid.values[..., 3:]
    xs, ys = grid.axes
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    assert np.max(np.abs(aff[..., 2] - X * Y)) < 1e-10
    text = obj.read_text().splitlines()
    nv = sum(1 for ln in text if ln.startswith("v "))
    nf = sum(1 for ln in text if ln.startswith("f "))
    nx, ny = grid.dims
    assert nv == nx * ny
    assert nf == 2 * (nx - 1) * (ny - 1)
    # fixed triangulation: first cell split along the (+x,+y) diagonal
    first = [ln for ln in text if ln.startswith("f ")][0].split()[1:]
    assert first == ["1", "2", str(ny + 2)] or first == ["1", "2", str(nx + 2)]


def _conj_nu(tmp_path):
    """The conj-paraboloid conormal, dumped as a grid file: a fixture's chart is the one its data satisfy,
    but a grid file's is --chart."""
    path = tmp_path / "conj_nu.csv"
    write_grid(scenario("conj-paraboloid").nu_grid, path)
    return str(path)


def test_reconstruct_wrong_chart_strict_exit4(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "reconstruct", "--nu", _conj_nu(tmp_path), "--chart", "asymptotic", "--strict",
                       "--out", str(out))
    assert (code, err) == (4, "error: degenerate point at grid index (0, 0)\n")
    assert not out.exists()


def test_reconstruct_degenerate_grid_csv_is_exit4(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "reconstruct", "--nu", _conj_nu(tmp_path), "--chart", "asymptotic", "--out", str(out))
    assert code == 4
    assert "307 degenerate/mismatched points (first at x=0.25, y=0.25)" in err
    assert "Traceback" not in err
    assert not out.exists()


def _partly_flat_nu(tmp_path):
    """hypar conormal, held constant in x on its first five columns."""
    nu = scenario("hypar").nu_grid
    vals = nu.values.copy()
    vals[:5] = vals[0]
    path = tmp_path / "nu.csv"
    write_grid(FieldGrid(origin=nu.origin, spacing=nu.spacing, values=vals), path)
    return path


def test_reconstruct_degenerate_obj_only_leaves_points_out(capsys, tmp_path):
    from plmkit.fields import jet_grid
    from plmkit.smooth import ChartKind, reconstruct_field

    nu_path, obj = _partly_flat_nu(tmp_path), tmp_path / "f.obj"
    _, bad = reconstruct_field(jet_grid(read_grid(nu_path), order=2), ChartKind.ASYMPTOTIC)
    assert 0 < bad.sum() < bad.size
    code, _, err = run(capsys, "reconstruct", "--nu", str(nu_path), "--obj", str(obj))
    assert code == 0
    assert f"warning: {int(bad.sum())} degenerate/mismatched points (first at x=" in err
    assert "Traceback" not in err
    text = obj.read_text().splitlines()
    assert sum(1 for ln in text if ln.startswith("v ")) == bad.size - bad.sum()
    assert all("nan" not in ln for ln in text)
    code, _, err = run(capsys, "reconstruct", "--nu", str(nu_path), "--out", str(tmp_path / "f.csv"))
    assert code == 4
    assert "Traceback" not in err


def test_reconstruct_lattice_integration(capsys, tmp_path):
    from plmkit.fields import write_lattice

    scn = scenario("hypar-lattice")
    nu_path = tmp_path / "nu_lat.csv"
    write_lattice(scn.nu3_lattice, nu_path)
    out = tmp_path / "f_lat.csv"
    code, _, _ = run(capsys, "reconstruct", "--lattice", str(nu_path),
                     "--f0", "0,0,0", "--out", str(out))
    assert code == 0
    lat = read_lattice(out)
    assert np.max(np.abs(lat.values - scn.f3_lattice.values)) < 1e-12


def _lattice_file(tmp_path):
    from plmkit.fields import write_lattice

    path = tmp_path / "nu3_lat.csv"
    write_lattice(scenario("moutard-random", size=8).nu3_lattice, path)
    return path


@pytest.mark.parametrize("f0", ["zap", "1,2", "1,2,3,4", "nan,0,0", "inf,0,0"])
def test_reconstruct_bad_base_point_is_usage_error(capsys, tmp_path, f0):
    # used to be a ValueError traceback (exit 1), or a non-finite-lattice error that blamed the file
    out = tmp_path / "o.csv"
    code, stdout, err = run(capsys, "reconstruct", "--lattice", str(_lattice_file(tmp_path)),
                            "--f0", f0, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: --f0") and repr(f0) in err
    assert "Traceback" not in err and "lattice" not in err
    assert not out.exists()


def _grid_files(tmp_path):
    scn = scenario("hypar", h=0.1)
    nu_path, f_path = tmp_path / "nu.csv", tmp_path / "f.csv"
    write_grid(scn.nu_grid, nu_path)
    write_grid(scn.f_grid, f_path)
    return str(nu_path), str(f_path)


def _exit_code(argv):
    """main's exit code, also for an argparse error (SystemExit)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _assert_not_applicable(capsys, tmp_path, argv, message):
    """``argv`` exits 2 with ``message`` on stderr, prints no traceback and nothing else, and writes no file."""
    before = sorted(tmp_path.iterdir())
    code = _exit_code([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


_SCENARIO_OPTIONS = [["--h", "0.5"], ["--grid", "0:1"], ["--seed", "3"], ["--size", "5"],
                     ["--scenario", "ell-paraboloid"]]


@pytest.mark.parametrize("option", _SCENARIO_OPTIONS)
def test_verify_file_input_rejects_scenario_options(capsys, tmp_path, option):
    # each used to be ignored: exit 0 and PASS on the files
    nu_path, f_path = _grid_files(tmp_path)
    _assert_not_applicable(capsys, tmp_path, ["verify", "--nu", nu_path, "--f", f_path, "--suite", "smooth-asymptotic",
                                              *option], f"error: {option[0]} does not apply: the input comes from --nu")


@pytest.mark.parametrize("source", ["--nu", "--lattice"])
@pytest.mark.parametrize("option", _SCENARIO_OPTIONS)
def test_reconstruct_file_input_rejects_scenario_options(capsys, tmp_path, source, option):
    path = _grid_files(tmp_path)[0] if source == "--nu" else str(_lattice_file(tmp_path))
    _assert_not_applicable(capsys, tmp_path, ["reconstruct", source, path, "--out", tmp_path / "r.csv", *option],
                           f"error: {option[0]} does not apply: the input comes from {source}")


@pytest.mark.parametrize("argv,option,source", [
    # each used to exit 0 with the option ignored
    ("verify --scenario hypar --f {f} --suite smooth-asymptotic", "--f", "--scenario"),
    ("reconstruct --scenario hypar --f0 zap --out {o}", "--f0", "--scenario"),
    ("reconstruct --scenario hypar --stencil 4 --out {o}", "--stencil", "--scenario"),
    ("reconstruct --nu {nu} --f0 1,2,3 --out {o}", "--f0", "--nu"),
    ("reconstruct --lattice {lat} --nu {nu} --out {o}", "--nu", "--lattice"),
    ("reconstruct --lattice {lat} --chart conjugate --out {o}", "--chart", "--lattice"),
    ("reconstruct --lattice {lat} --stencil 4 --out {o}", "--stencil", "--lattice"),
    ("reconstruct --lattice {lat} --strict --out {o}", "--strict", "--lattice"),
    ("reconstruct --lattice {lat} --obj {o}.obj", "--obj", "--lattice"),
    # a fixture's chart is the one its data satisfy
    ("reconstruct --scenario hypar --chart conjugate --out {o}", "--chart", "--scenario"),
    # options that no source took are gone from their command: argparse refuses them
    ("reconstruct --nu {nu} --gauge projective --out {o}", "--gauge projective", None),
    ("scenario-dump --scenario hypar --stencil 4 --out {o}", "--stencil 4", None),
    ("scenario-dump --scenario hypar --strict --out {o}", "--strict", None),
    ("verify --scenario hypar --strict", "--strict", None),
    ("forms --scenario hypar --which projective --strict --out {o}", "--strict", None),
])
def test_an_option_its_source_does_not_take_is_usage_error(capsys, tmp_path, argv, option, source):
    nu, f = _grid_files(tmp_path)
    paths = dict(nu=nu, f=f, lat=_lattice_file(tmp_path), o=tmp_path / "out")
    message = f"error: {option} does not apply: the input comes from {source}\n" if source else \
        f"error: unrecognized arguments: {option}\n"
    _assert_not_applicable(capsys, tmp_path, [a.format(**paths) for a in argv.split()], message)


# A valid value of each option of the table (a falsy one where there is one),
# the base command line of each (command, source) on tiny inputs, and the
# scenario parameters its fixture takes.
_VALUES = {"seed": "--seed 0", "size": "--size 4", "h": "--h 0.1", "grid": "--grid 0:1", "stencil": "--stencil 4",
           "chart": "--chart asymptotic", "strict": "--strict", "obj": "--obj {out}/o.obj", "f0": "--f0 1,2,3",
           "f": "--f {inp}/f.csv", "nu": "--nu {inp}/nu.csv", "lattice": "--lattice {inp}/lat.csv",
           "scenario": "--scenario hypar"}
_BASE = {
    ("verify", "nu"): "verify --nu {inp}/nu.csv --f {inp}/f.csv --suite smooth-asymptotic",
    ("verify", "scenario"): "verify --scenario moutard-random",
    ("reconstruct", "lattice"): "reconstruct --lattice {inp}/lat.csv --out {out}/r.csv",
    ("reconstruct", "nu"): "reconstruct --nu {inp}/nu.csv --out {out}/r.csv",
    ("reconstruct", "scenario"): "reconstruct --scenario hypar --out {out}/r.csv",
    ("forms", "scenario"): "forms --scenario hypar --which projective --out {out}/forms.csv",
    ("scenario-dump", "scenario"): "scenario-dump --scenario moutard-random --out {out}/d",
}
_FIXTURE_TAKES = {"moutard-random": {"seed", "size", "h"}, "hypar": {"grid", "h"}}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    from plmkit.fields import write_lattice

    inp = tmp_path_factory.mktemp("inputs")
    scn = scenario("hypar", h=0.1)
    write_grid(scn.nu_grid, inp / "nu.csv")
    write_grid(scn.f_grid, inp / "f.csv")
    write_lattice(scenario("hypar-lattice", size=4).nu3_lattice, inp / "lat.csv")
    return inp


@st.composite
def _command_lines(draw):
    """(argv template, table options given): a base command line and a random subset of its other options."""
    cmd, source = draw(st.sampled_from(sorted(_BASE)))
    base = _BASE[cmd, source].split()
    takes = cli._TAKES[cmd]
    listed = set(takes).union(*takes.values())
    given = {a[2:] for a in base if a.startswith("--")} & listed
    fixture = base[base.index("--scenario") + 1] if source == "scenario" else None
    options = [o for o in sorted(listed - given)
               if not (fixture and o in {"seed", "size", "h", "grid"} and o not in _FIXTURE_TAKES[fixture])]
    drawn = draw(st.lists(st.sampled_from(options), unique=True, max_size=4)) if options else []
    return base + [a for o in drawn for a in _VALUES[o].split()], given | set(drawn)


@settings(max_examples=40, deadline=None)
@given(line=_command_lines())
def test_an_option_is_refused_exactly_when_its_source_does_not_take_it(tiny_inputs, line):
    # every other line exits 0: forms reads the projective forms, because the affine ones of
    # the hypar exit 4 at --stencil 4 (a wrong-sign radicand from round-off)
    template, given_options = line
    takes = cli._TAKES[template[0]]
    source = next(s for s in takes if s in given_options)
    refused = given_options & set(takes).union(*takes.values()) - takes[source] - {source}
    with tempfile.TemporaryDirectory() as out, redirect_stdout(StringIO()) as stdout, \
            redirect_stderr(StringIO()) as stderr:
        code = _exit_code([a.format(inp=tiny_inputs, out=out) for a in template])
        written = list(Path(out).iterdir())
    err = stderr.getvalue()
    assert "Traceback" not in err
    if refused:
        match = re.fullmatch(rf"error: --(\w+) does not apply: the input comes from --{source}\n", err)
        assert code == 2 and match and match.group(1) in refused, err
        assert stdout.getvalue() == "" and written == []
    else:
        assert code == 0, err


def test_verify_has_no_chart_option(capsys, tmp_path):
    # the chart of a smooth suite comes from --suite; --chart was read nowhere
    nu_path, f_path = _grid_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nu", nu_path, "--f", f_path, "--suite", "smooth-asymptotic", "--chart", "conjugate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --chart" in capsys.readouterr().err


# --- forms ----------------------------------------------------------------


def test_forms_affine_constant_F(capsys, tmp_path):
    out = tmp_path / "aform.csv"
    code, _, _ = run(capsys, "forms", "--scenario", "hypar", "--which", "affine",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")  # sign-convention provenance
    header = lines[1].split(",")
    fcol = header.index("F")
    vals = [float(ln.split(",")[fcol]) for ln in lines[2:]]
    assert np.max(np.abs(np.array(vals) + 1.0)) < 1e-10


def test_forms_discrete_omega2(capsys, tmp_path):
    out = tmp_path / "dform.csv"
    code, _, _ = run(capsys, "forms", "--scenario", "hypar-lattice", "--h", "0.1",
                     "--which", "discrete", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    ocol = header.index("Omega2")
    vals = np.array([float(ln.split(",")[ocol]) for ln in lines[2:]])
    vals = vals[~np.isnan(vals)]
    assert np.max(np.abs(vals + 0.01)) < 1e-15


def test_forms_projective_nonzero_F3(capsys, tmp_path):
    out = tmp_path / "pform.csv"
    code, _, _ = run(capsys, "forms", "--scenario", "cubic-graph",
                     "--which", "projective", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index("F3")
    vals = np.array([float(ln.split(",")[col]) for ln in lines[2:]])
    assert np.all(np.abs(vals - 0.5) < 1e-10)


@pytest.mark.parametrize("sampling,stencil", [("0:0.1:0.05", 2), ("0:0.15:0.05", 2), ("0:0.25:0.05", 4)])
def test_forms_affine_on_small_grids_uses_the_jets_of_affine_forms(capsys, sampling, stencil):
    # affine_forms takes order-2 jets on these boxes x0:x1 of spacing h; the rows are its sites
    from plmkit.affine import AffineSurfacePair, affine_forms
    from plmkit.fields import jet_grid

    x0, x1, h = sampling.split(":")
    code, out, err = run(capsys, "forms", "--scenario", "hypar", "--grid", f"{x0}:{x1}", "--h", h,
                         "--stencil", str(stencil), "--which", "affine")
    assert (code, err) == (0, "")
    x0, x1, h = map(float, (x0, x1, h))
    scn = scenario("hypar", x0=x0, x1=x1, y0=x0, y1=x1, h=h)
    forms, rep = affine_forms(AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid), stencil=stencil)
    assert rep.metadata["jet_order"] == 2
    jets = jet_grid(scn.nu3_grid, order=2, stencil=stencil)
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    want = [[repr(float(v)) for v in (x, y, forms.F[i, j], forms.A_cubic[i, j], forms.B_cubic[i, j])]
            for j, y in enumerate(jets.ys) for i, x in enumerate(jets.xs)]
    assert rows == want and len(rows) == forms.F.size > 0


# --- scenario-dump --------------------------------------------------------


def test_scenario_dump_round_trip(capsys, tmp_path):
    prefix = str(tmp_path / "hl")
    code, out, _ = run(capsys, "scenario-dump", "--scenario", "hypar-lattice",
                       "--out", prefix)
    assert code == 0
    lat = read_lattice(prefix + "_nu3_lat.csv")
    assert np.array_equal(lat.values, scenario("hypar-lattice").nu3_lattice.values)


# sha256 of the hypar's f, nu, f3 and nu3 files on the box 0:1 x 0:1 at h = 0.1, concatenated
_BOX_DIGEST = "f0d7754c1d5a3267797b094ce30b717e4e7c67e85fd54ba7bca5314bbeddd9be"

_GRID_COMMANDS = [
    ["verify"], ["reconstruct", "--out", "f.csv"], ["forms", "--which", "projective"], ["scenario-dump", "--out", "d"],
]


def _assert_grid_refused(capsys, tmp_path, monkeypatch, command, grid, *extra):
    """``--grid grid`` on ``command`` exits 2 naming --h, prints nothing else and writes no file."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command[0], "--scenario", "hypar", "--grid", grid, *extra, *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: --grid expects the box x0:x1[,y0:y1], got {grid!r}; the spacing is --h\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["0:1:0.1", "0:1,0:1:0.1"])
@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_grid_with_a_step_is_usage_error_that_names_h(capsys, tmp_path, monkeypatch, command, grid):
    # --grid is the box only: its old x0:x1:h form is refused, and the message points to --h
    _assert_grid_refused(capsys, tmp_path, monkeypatch, command, grid)


@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_grid_with_unequal_spacings_is_usage_error(capsys, tmp_path, monkeypatch, command):
    # --grid used to keep hy and drop hx silently; now it takes no spacing at all
    _assert_grid_refused(capsys, tmp_path, monkeypatch, command, "0:1:0.1,0:1:0.5")


@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_grid_step_and_h_that_differ_are_usage_error(capsys, tmp_path, monkeypatch, command):
    # --h used to override the step of --grid silently; now --h is the one spacing
    _assert_grid_refused(capsys, tmp_path, monkeypatch, command, "0:1:0.1", "--h", "0.5")


def test_grid_box_with_h_writes_the_fixture_on_that_box(capsys, tmp_path):
    # the bytes --grid 0:1:0.1 wrote when --grid carried the step
    prefix = str(tmp_path / "d")
    code, _, err = run(capsys, "scenario-dump", "--scenario", "hypar", "--grid", "0:1", "--h", "0.1", "--out", prefix)
    assert code == 0, err
    digest = hashlib.sha256(b"".join(Path(f"{prefix}_{tag}.csv").read_bytes() for tag in ("f", "nu", "f3", "nu3")))
    assert digest.hexdigest() == _BOX_DIGEST
    assert read_grid(prefix + "_f.csv").dims == (11, 11)


@pytest.mark.parametrize("argv", ["verify --no-meta", "forms --which affine"])
def test_data_in_the_wrong_chart_is_exit4(capsys, argv):
    # at stencil 4 the hypar's vanishing cubics give a wrong-sign radicand from round-off
    code, _, err = run(capsys, *argv.split(), "--scenario", "hypar", "--stencil", "4")
    assert (code, err) == (4, "error: det|bf_x, bf_xx, bf_xxx| < 0: wrong-sign radicand for the x cubic\n")


@given(text=st.lists(st.sampled_from([*"0123456789.:,- e", "inf", "nan"]), max_size=30).map("".join))
@example(text="-0.3:0.3")
@example(text=" 0 : 1e300 ,nan:-inf")
@example(text="0:1:0.1")
def test_grid_box_parser_returns_the_box_or_a_usage_error(text):
    # parse only: a box that parses is not built, so no draw allocates a grid
    try:
        box = cli._grid_spec(text)
    except DomainError:
        return
    assert list(box) == ["x0", "x1", "y0", "y1"] and all(type(v) is float for v in box.values())


def test_parse_error_names_the_file_and_line(capsys, tmp_path):
    scn = scenario("hypar", h=0.25)
    ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
    write_grid(scn.f_grid, ok)
    write_grid(scn.nu_grid, bad)
    lines = bad.read_text().splitlines()
    cells = lines[4].split(",")
    cells[4] = "zap"
    lines[4] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["--nu", bad, "--f", ok], ["--nu", ok, "--f", bad]):
        code, _, err = run(capsys, "verify", *map(str, argv), "--suite", "smooth-asymptotic")
        assert code == 3
        assert err == f"error: {bad}:5: bad number: 'zap' in column v3\n"


def test_parse_error_without_a_line_names_the_file(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "reconstruct", "--nu", str(empty), "--out", str(tmp_path / "o.csv"))
    assert code == 3
    assert err == f"error: {empty}: empty file\n"


@pytest.mark.parametrize("which,name", [("projective", "cubic-graph"), ("affine", "hypar"),
                                        ("discrete", "hypar-lattice")])
def test_forms_writes_the_same_bytes_to_stdout_and_out(capsys, tmp_path, which, name):
    path = tmp_path / "forms.csv"
    code, out, _ = run(capsys, "forms", "--scenario", name, "--which", which, "--out", str(path))
    assert (code, out) == (0, f"wrote {path}\n")
    code, out, _ = run(capsys, "forms", "--scenario", name, "--which", which)
    assert code == 0
    assert out == path.read_text()
    assert out.startswith("# sign conventions: ")


def test_readme_command_line_section_matches_the_cli(capsys, tmp_path, monkeypatch):
    # each plmkit line of its sh block runs, in order, and its option table is _TAKES
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## File formats")]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("plmkit ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    table = {}
    for cmd, source, options in re.findall(r"^\| `([\w-]+)` \| `--(\w+)` \| (.*) \|$", section, re.M):
        table.setdefault(cmd, {})[source] = set(re.findall(r"`--(\w+)`", options))
    assert table == cli._TAKES
    assert [list(rows) for rows in table.values()] == [list(rows) for rows in cli._TAKES.values()]
