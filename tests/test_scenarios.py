"""Fixture self-checks, determinism, and the symbolic oracle of the closed-form jets."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from plmkit import cli, scenarios
from plmkit.affine import AffineSurfacePair, affine_forms
from plmkit.discrete import DiscreteSurfacePair, discrete_residual
from plmkit.errors import DomainError
from plmkit.hyper import hyper_plm_residual
from plmkit.scenarios import list_scenarios, scenario
from plmkit.smooth import plm_residual


def test_listing_is_sorted_and_complete():
    names = list_scenarios()
    assert names == sorted(names)
    for expected in ("hypar", "cubic-graph", "conj-paraboloid", "ell-paraboloid",
                     "hypar-lattice", "moutard-random"):
        assert expected in names


def test_unknown_name_lists_available():
    with pytest.raises(DomainError) as err:
        scenario("nope")
    for name in list_scenarios():
        assert name in str(err.value)


def test_unknown_parameter_names_the_accepted_ones():
    with pytest.raises(DomainError) as err:
        scenario("hypar", size=5, seed=1)
    msg = str(err.value)
    assert "does not take seed, size" in msg
    for accepted in ("x0", "x1", "y0", "y1", "h"):
        assert accepted in msg


@pytest.mark.parametrize("name", list_scenarios())
def test_every_scenario_passes_its_own_residual_check(name):
    scn = scenario(name)
    checked = False
    if scn.f_jets is not None:
        rep = plm_residual(scn.f_jets, scn.nu_jets, chart=scn.chart)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.hyper_f_jet is not None:
        rep = hyper_plm_residual(scn.hyper_f_jet, scn.hyper_nu_jet, scn.amatrix)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.nu_lattice is not None:
        pairn = DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice)
        rep = discrete_residual(pairn)
        assert rep.max_residual() < 1e-12, name
        checked = True
    if scn.f3_grid is not None:
        _, rep = affine_forms(AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid))
        assert rep.passed, name
        checked = True
    assert checked, f"scenario {name} emitted nothing checkable"


def test_seeded_generation_is_deterministic():
    a = scenario("moutard-random", seed=7, size=10)
    b = scenario("moutard-random", seed=7, size=10)
    assert np.array_equal(a.nu3_lattice.values, b.nu3_lattice.values)
    assert np.array_equal(a.f3_lattice.values, b.f3_lattice.values)
    c = scenario("moutard-random", seed=8, size=10)
    assert not np.array_equal(a.nu3_lattice.values, c.nu3_lattice.values)


def test_parameter_overrides():
    scn = scenario("hypar", h=0.1, x0=0.0, x1=0.5, y0=0.0, y1=0.5)
    assert scn.f_grid.dims == (6, 6)
    assert scn.meta["h"] == 0.1
    lat = scenario("hypar-lattice", h=0.2, size=5)
    assert lat.nu3_lattice.extent == (5, 5)
    assert np.isclose(lat.ground_truth["Omega2"], -0.04)


def test_ground_truth_fields_present():
    assert scenario("hypar").ground_truth["blaschke_F"] == -1.0
    assert scenario("cubic-graph").ground_truth["F3_abs"] == 0.5
    assert scenario("ell-paraboloid").ground_truth["A"] == [[1.0, 0.0], [0.0, 1.0]]


# --- symbolic oracle ------------------------------------------------------
#
# The grid scenarios write their jets in closed form.  The oracle below
# differentiates the same polynomials symbolically and evaluates each
# component with sympy.lambdify; the closed forms must match it bit for bit.

U, V = sp.symbols("u v")
_JET_NAMES = ("value", "d_x", "d_y", "d_xx", "d_xy", "d_yy", "d_xxx", "d_yyy")


def _sym_jets(fexpr, xs, ys, order=3):
    """Evaluate a sympy vector expression and its partials on a grid."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    def ev(expr):
        comps = []
        for e in expr:
            val = np.asarray(sp.lambdify((U, V), e, "numpy")(X, Y), dtype=float)
            comps.append(np.broadcast_to(val, X.shape))
        return np.stack(comps, axis=-1)

    d = {
        "value": fexpr,
        "d_x": [sp.diff(e, U) for e in fexpr],
        "d_y": [sp.diff(e, V) for e in fexpr],
        "d_xx": [sp.diff(e, U, 2) for e in fexpr],
        "d_xy": [sp.diff(e, U, V) for e in fexpr],
        "d_yy": [sp.diff(e, V, 2) for e in fexpr],
    }
    if order >= 3:
        d["d_xxx"] = [sp.diff(e, U, 3) for e in fexpr]
        d["d_yyy"] = [sp.diff(e, V, 3) for e in fexpr]
    return {k: ev(e) for k, e in d.items()}


def _sym_cross4(rows):
    """[a, b, c] in dimension 4 with the package sign convention."""
    M = sp.Matrix([list(r) for r in rows])
    comps = []
    sign = 1
    for i in range(4):
        keep = [c for c in range(4) if c != i]
        comps.append(sign * M[:, keep].det())
        sign = -sign
    return comps


def _cubic_f():
    return [U, V - U**2 / 4, U * V - U**3 / 12, sp.Integer(-1)]


def _cubic_nu():
    f = _cubic_f()
    return [sp.expand(e) for e in _sym_cross4([f, [sp.diff(e, U) for e in f], [sp.diff(e, V) for e in f]])]


_R = (U**2 + V**2) / 2
_ORACLE = {
    "hypar": (3, [U, V, U * V, sp.Integer(-1)], [-V, -U, sp.Integer(1), -U * V]),
    "cubic-graph": (3, _cubic_f(), _cubic_nu()),
    "conj-paraboloid": (2, [U, -V, _R, sp.Integer(-1)], [-U, V, sp.Integer(1), -_R]),
    "ell-paraboloid": (2, [U, V, _R, sp.Integer(-1)], [-U, -V, sp.Integer(1), -_R]),
}


def _assert_bytes_equal(got, want, what):
    got = np.asarray(got)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("h", [None, 0.01])
@pytest.mark.parametrize("name", ["hypar", "cubic-graph", "conj-paraboloid"])
def test_smooth_jets_equal_the_symbolic_oracle(name, h):
    scn = scenario(name) if h is None else scenario(name, h=h)
    order, f, nu = _ORACLE[name]
    for jets, expr in ((scn.f_jets, f), (scn.nu_jets, nu)):
        assert jets.order == order
        want = _sym_jets(expr, jets.xs, jets.ys, order)
        for k in _JET_NAMES:
            if k in want:
                _assert_bytes_equal(getattr(jets, k), want[k], (name, k))
    for grid, jets in ((scn.f_grid, scn.f_jets), (scn.nu_grid, scn.nu_jets)):
        _assert_bytes_equal(grid.values, jets.value, name)


@pytest.mark.parametrize("h", [None, 0.01])
def test_hyper_jets_equal_the_symbolic_oracle(h):
    scn = scenario("ell-paraboloid") if h is None else scenario("ell-paraboloid", h=h)
    _, f, nu = _ORACLE["ell-paraboloid"]
    g = scn.hyper_nu_grid
    xs, ys = (g.origin[a] + g.spacing[a] * np.arange(g.values.shape[a]) for a in (0, 1))
    for jet, expr in ((scn.hyper_f_jet, f), (scn.hyper_nu_jet, nu)):
        want = _sym_jets(expr, xs, ys, order=2)
        d1 = np.stack([want["d_x"], want["d_y"]])
        d2 = np.stack([want["d_xx"], want["d_xy"], want["d_yy"]])
        _assert_bytes_equal(jet.d1, d1, "d1")
        _assert_bytes_equal(jet.d2, d2, "d2")
        assert np.array_equal(jet.value, want["value"])


def test_cubic_graph_conormal_is_the_symbolic_cross_product():
    want = [U**2 / 4 + V, U, sp.Integer(-1), U**3 / 12 + U * V]
    assert all(sp.expand(a - b) == 0 for a, b in zip(_cubic_nu(), want))
    f = _cubic_f()
    fu, fv = [sp.diff(e, U) for e in f], [sp.diff(e, V) for e in f]
    assert sp.Matrix([f, fu, fv, _cubic_nu()]).det() != 0  # the conormal is not in span(f, f_u, f_v)


@pytest.mark.parametrize("name", ["hypar", "cubic-graph", "conj-paraboloid"])
def test_value_grids_are_the_grids_of_one_closed_form_evaluation(name, monkeypatch, tmp_path, capsys):
    evaluations = []
    key = f"_{name.replace('-', '_')}_jets"
    jets = getattr(scenarios, key)
    monkeypatch.setattr(scenarios, key, lambda xs, ys: evaluations.append(len(xs)) or jets(xs, ys))
    scn = scenario(name)
    rows = len(scn.closed.axes[0])
    f, nu = scn.value_grids()
    assert evaluations == [rows]
    for got, want in ((f, scn.f_grid), (nu, scn.nu_grid)):
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.origin, got.spacing) == (want.origin, want.spacing)
    evaluations.clear()
    assert cli.main(["scenario-dump", "--scenario", name, "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    assert evaluations == [rows]  # one evaluation gives both dumped value grids


@pytest.mark.parametrize("argv", [["scenario-dump"], ["forms", "--which", "affine"]])
def test_the_commands_evaluate_the_affine_pair_once(argv, monkeypatch, tmp_path, capsys):
    # the hypar's affine grids are computed on each access: each command binds them once
    evaluations = []
    pair = scenarios._hypar_affine
    monkeypatch.setattr(scenarios, "_hypar_affine", lambda xs, ys: evaluations.append(len(xs)) or pair(xs, ys))
    scn = scenario("hypar")
    rows = len(scn.affine_closed.axes[0])
    f3, nu3 = scn.value_grids(affine=True)
    assert evaluations == [rows]
    for got, want in ((f3, scn.f3_grid), (nu3, scn.nu3_grid)):
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.origin, got.spacing) == (want.origin, want.spacing)
    evaluations.clear()
    assert cli.main([*argv, "--scenario", "hypar", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert evaluations == [rows]


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf, 1e-320])
@pytest.mark.parametrize("name", ["hypar", "cubic-graph", "conj-paraboloid", "ell-paraboloid"])
def test_bad_spacing_is_domain_error(name, h):
    with pytest.raises(DomainError):
        scenario(name, h=h)


@pytest.mark.parametrize("box", [dict(x0=1.0, x1=0.0), dict(y0=0.5, y1=0.4), dict(x1=math.inf), dict(y0=math.nan)])
def test_bad_box_is_domain_error(box):
    with pytest.raises(DomainError):
        scenario("hypar", **box)


def test_runtime_does_not_import_sympy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import plmkit, plmkit.cli, sys; assert not any(m == 'sympy' or m.startswith('sympy.') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_sympy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not any(dep.startswith("sympy") for dep in project["dependencies"])
    assert any(dep.startswith("sympy") for dep in project["optional-dependencies"]["test"])
