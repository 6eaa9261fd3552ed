"""Row-tiled verify: the joined tiles give the report of one call per suite.

``verify`` runs every suite as tiles of a group of suites that share their
inputs, cut into row tiles of about ``cli.TILE_SITES`` sites.  A ``discrete``
tile owns the base sites of its lattice rows and reads the rows past them
that its stencils reach: one for a plaquette, two for Omega3.  These tests
shrink the tile to a few rows (or sites) and compare the joined report, byte
for byte, with the report built from one call of each suite function on the
full inputs; an input that makes the untiled suites raise must make the
tiled run raise the same error.  A closed-form fixture's tiles evaluate the
jets of their own rows, which must equal those rows of the whole-grid jets,
so no tiled suite holds a whole-grid jet, and no lattice tile builds a
temporary over the whole lattice.  Each unit hands the join a summary of each
field it computes, not the field.
"""

import dataclasses
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plmkit import cli
from plmkit.affine import AffineSurfacePair, affine_forms, closure_residual
from plmkit.discrete import (
    DiscreteSurfacePair,
    discrete_det_invariance,
    discrete_forms,
    discrete_residual,
    moutard_residual,
)
from plmkit.errors import ChartMismatchError, DegeneratePointError
from plmkit.fields import FieldGrid, JetGrid, _margin, jet_grid
from plmkit.hyper import AMatrix, hyper_compat_residual, hyper_plm_residual
from plmkit.report import InvariantReport, ResidualTile
from plmkit.scenarios import Scenario, scenario
from plmkit.smooth import ChartKind, det_invariance_report, orthogonality_report, plm_residual

_H = 0.05
_CHART = {"hypar": "smooth-asymptotic", "cubic-graph": "smooth-asymptotic", "conj-paraboloid": "smooth-conjugate"}


def _outcome(build):
    """The report JSON, or the type and message of the error it raised."""
    try:
        return build().to_json()
    except Exception as exc:  # the untiled suites may raise any error; the tiled run must match it
        return type(exc).__name__, str(exc)


def _untiled(calls):
    """One call of each suite on the full inputs, records named as verify names them."""
    rep = InvariantReport()
    for prefix, call in calls:
        for rec in call().records:
            rec.name = f"{prefix}/{rec.name}"
            rep.records.append(rec)
    return rep


def _smooth_untiled(suite, f, nu, stencil):
    """Sampled grids take whole-grid jets first: order 2, and order 3 for the
    asymptotic determinants."""
    chart = ChartKind.ASYMPTOTIC if suite == "smooth-asymptotic" else ChartKind.CONJUGATE

    def jets(order):
        if isinstance(f, JetGrid):
            return f, nu
        return tuple(jet_grid(g, order=order, stencil=stencil) for g in (f, nu))

    det_order = 3 if chart is ChartKind.ASYMPTOTIC else 2
    return _untiled([
        (f"{suite}/defining_relation", lambda: plm_residual(*jets(2), chart)),
        (f"{suite}/orthogonality", lambda: orthogonality_report(*jets(2), chart)),
        (f"{suite}/det_invariance", lambda: det_invariance_report(*jets(det_order), chart)),
    ])


def _hyper_untiled(fj, nj, A):
    return _untiled([
        ("hyper/defining_relation", lambda: hyper_plm_residual(fj, nj, A)),
        ("hyper/compatibility", lambda: hyper_compat_residual(nj, A)),
    ])


def _affine_untiled(pairg, stencil):
    def closure():
        rep = InvariantReport()
        rep.add("conormal_closure", closure_residual(pairg.nu, stencil=stencil)[0], 1e-8)
        return rep

    return _untiled([
        ("affine/form_identities", lambda: affine_forms(pairg, stencil=stencil)[1]),
        ("affine/conormal_closure", closure),
    ])


def _discrete_untiled(scn):
    pairp = DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice)
    paira = DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)

    def closure():
        rep = InvariantReport()
        rep.add("moutard_closure", moutard_residual(scn.nu3_lattice), 1e-10)
        return rep

    return _untiled([
        ("discrete/defining_relation", lambda: discrete_residual(pairp)),
        ("discrete/volume_invariance", lambda: discrete_det_invariance(paira)),
        ("discrete/form_identities", lambda: discrete_forms(paira)[1]),
        ("discrete/moutard_closure", closure),
    ])


def _tiled(rows_per_tile, sites_per_row, suite, stencil=2, scn=None, f=None, nu=None):
    """verify's records for these inputs, with tiles of ``rows_per_tile`` rows."""
    if scn is None:  # sampled grids, as verify --nu --f reads them
        chart = next(s.chart for s in cli._SUITES if s.family == suite)  # as _input takes it from --suite
        scn = Scenario(name="files", chart=chart, f_grid=f, nu_grid=nu)
    with mock.patch.object(cli, "TILE_SITES", rows_per_tile * sites_per_row):
        return cli.verify(scn, suite, stencil)


def _box(name, nx, ny):
    """The scenario on an nx x ny box of spacing _H (default lower corner)."""
    x0 = 0.2 if name == "conj-paraboloid" else -1.0
    return scenario(name, x0=x0, x1=x0 + (nx - 1) * _H, y0=x0, y1=x0 + (ny - 1) * _H, h=_H)


@st.composite
def _extents(draw):
    """(rows per tile, interior rows, interior columns); the rows hit the tile edges."""
    per_tile = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["empty", "one", "one tile", "one tile plus a row", "last tile of one row", "any"]))
    rows = {
        "empty": 0,
        "one": 1,
        "one tile": per_tile,
        "one tile plus a row": per_tile + 1,
        "last tile of one row": draw(st.integers(2, 3)) * per_tile + 1,
        "any": draw(st.integers(1, 13)),
    }[kind]
    return per_tile, rows, draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    extents=_extents(),
    name=st.sampled_from(sorted(_CHART)),
    stencil=st.sampled_from([2, 4]),
    from_file=st.booleans(),
    other_chart=st.booleans(),
)
def test_tiled_smooth_report_is_byte_identical(extents, name, stencil, from_file, other_chart):
    per_tile, rows, cols = extents
    suite = _CHART[name]
    if from_file:
        if other_chart:  # a sampled grid can be checked in either chart
            suite = "smooth-conjugate" if suite == "smooth-asymptotic" else "smooth-asymptotic"
        # ``rows`` counts the interior of the widest jets: order 3 in the asymptotic chart
        m = (1 if stencil == 2 else 2) + (suite == "smooth-asymptotic")
        scn = _box(name, rows + 2 * m, cols + 2 * m)
        f, nu = scn.f_grid, scn.nu_grid
        sites_per_row = cols + 2 * m
        tiled = lambda: _tiled(per_tile, sites_per_row, suite, stencil, f=f, nu=nu)  # noqa: E731
    else:
        scn = _box(name, max(rows, 1), cols)
        if rows == 0:
            scn = dataclasses.replace(scn, f_jets=scn.f_jets[0:0], nu_jets=scn.nu_jets[0:0])
        f, nu = scn.f_jets, scn.nu_jets
        tiled = lambda: _tiled(per_tile, cols, suite, stencil, scn=scn)  # noqa: E731
    expected = _outcome(lambda: _smooth_untiled(suite, f, nu, stencil))
    assert _outcome(tiled) == expected
    if rows == 0:
        assert isinstance(expected, tuple)  # an empty interior is an error, tiled or not


@settings(max_examples=30, deadline=None)
@given(extents=_extents())
def test_tiled_hyper_report_is_byte_identical(extents):
    per_tile, rows, cols = extents
    scn = _box("ell-paraboloid", max(rows, 1), cols)
    if rows == 0:
        scn = dataclasses.replace(scn, hyper_f_jet=scn.hyper_f_jet[0:0], hyper_nu_jet=scn.hyper_nu_jet[0:0])
    expected = _outcome(lambda: _hyper_untiled(scn.hyper_f_jet, scn.hyper_nu_jet, scn.amatrix))
    assert _outcome(lambda: _tiled(per_tile, cols, "hyper", scn=scn)) == expected


_LATTICE_H = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


def test_suites_that_share_their_inputs_share_a_group():
    # one set of inputs per tile serves a group: a fixture's jets serve its
    # family, the jets of each order of sampled grids the suites of that order,
    # and each lattice and affine suite reads its own; at these sizes every
    # group is one tile, so the units name the groups
    def groups(scn, suite="all"):
        units = cli._collect_tasks(scn, suite=suite)
        return [name.split("[")[0] for name, _ in units]

    assert groups(scenario("hypar")) == ["smooth-asymptotic/jets", "affine/form_identities", "affine/conormal_closure"]
    assert groups(scenario("ell-paraboloid")) == ["hyper/jets"]
    assert groups(scenario("moutard-random")) == [
        f"discrete/{name}" for name in ("defining_relation", "volume_invariance", "form_identities", "moutard_closure")]
    hypar = scenario("hypar", h=0.1)
    for chart, suite, orders in ((ChartKind.ASYMPTOTIC, "smooth-asymptotic", (2, 3)),
                                 (ChartKind.CONJUGATE, "smooth-conjugate", (2,))):
        files = Scenario(name="files", chart=chart, f_grid=hypar.f_grid, nu_grid=hypar.nu_grid)
        assert groups(files, suite) == [f"{suite}/order{order}" for order in orders]


@settings(max_examples=40, deadline=None)
@given(
    lattice=st.tuples(st.just("moutard-random"), st.integers(3, 40), st.integers(0, 2**32 - 1))
    | st.tuples(st.just("hypar-lattice"), st.integers(3, 40), _LATTICE_H),
    rows_per_tile=st.integers(1, 6),
)
def test_discrete_records_equal_direct_calls_of_the_four_suites(lattice, rows_per_tile):
    name, size, param = lattice
    scn = scenario(name, size=size, **{"seed" if name == "moutard-random" else "h": param})
    expected = _outcome(lambda: _discrete_untiled(scn))
    # four groups of row tiles; the halos of the plaquettes and of Omega3
    # reach past the last rows of every tile but the last
    with mock.patch.object(cli, "TILE_SITES", rows_per_tile * size):
        units = cli._collect_tasks(scn, suite="discrete")
    assert len(units) == 4 * -(-size // rows_per_tile)
    for threads in ("1", "2"):
        with mock.patch.dict(os.environ, {"PLM_NUM_THREADS": threads}):
            assert _outcome(lambda: _tiled(rows_per_tile, size, "discrete", scn=scn)) == expected


def test_discrete_records_at_the_real_tile_size_equal_direct_calls(monkeypatch):
    # 300 rows make five tiles of 54 rows and one of 30 per suite; the
    # golden lattice reports are of one tile
    scn = scenario("moutard-random", size=300, seed=42)
    expected = _discrete_untiled(scn).to_json()
    assert len(cli._collect_tasks(scn, suite="discrete")) == 4 * 6
    for threads in ("1", "2"):
        monkeypatch.setenv("PLM_NUM_THREADS", threads)
        assert cli.verify(scn, "discrete").to_json() == expected


def test_tiled_discrete_units_peak_below_one_whole_lattice_temporary():
    # each tile reads its own rows and a halo: no unit builds a temporary over
    # the whole lattice, such as the packed bivectors of its plaquettes
    scn = scenario("moutard-random", size=300)
    m1, m2 = scn.nu_lattice.extent
    whole = (m1 - 1) * (m2 - 1) * 6 * np.dtype(float).itemsize
    units = cli._collect_tasks(scn, suite="discrete")
    peaks = []
    tracemalloc.start()
    try:
        for _, unit in units:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            unit()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert max(peaks) < whole, (max(peaks), whole)


def _affine_scenario(name, nx, ny):
    """An affine pair on an nx x ny box of spacing _H: the hypar, whose F is
    constant and whose cubics vanish, or nu = (x, y, 1 + x^2 + y^2) with its
    Lelieuvre integral, where neither holds."""
    if name == "hypar":
        return _box("hypar", nx, ny)
    xs, ys = -0.3 + _H * np.arange(nx), -0.2 + _H * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = lambda v: FieldGrid(origin=(xs[0], ys[0]), spacing=(_H, _H), values=v)  # noqa: E731
    f = np.stack([X**2 * Y + Y - Y**3 / 3, X - X**3 / 3 + X * Y**2, -X * Y], axis=-1)
    return Scenario(name=name, f3_grid=grid(f), nu3_grid=grid(np.stack([X, Y, 1 + X**2 + Y**2], axis=-1)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    extents=_extents(),
    cols=st.integers(4, 7),
    name=st.sampled_from(["hypar", "paraboloid"]),
    stencil=st.sampled_from([2, 4]),
)
def test_tiled_affine_report_is_byte_identical(extents, cols, name, stencil):
    per_tile, rows, _ = extents
    # ``cols`` sites across, on both sides of the order-3 switch of the form
    # identities; ``rows`` counts the rows of their sites at the order the box takes
    m3 = _margin(stencil, 3)
    m = m3 if cols >= 2 * m3 + 1 and rows > 0 else _margin(stencil, 2)
    scn = _affine_scenario(name, rows + 2 * m, cols)
    pairg = AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)
    expected = _outcome(lambda: _affine_untiled(pairg, stencil))
    assert _outcome(lambda: _tiled(per_tile, max(1, cols - 2 * m), "affine", stencil, scn=scn)) == expected
    if rows == 0:
        assert isinstance(expected, tuple)  # no sites is an error, tiled or not


def test_tiled_affine_sign_test_raises_the_untiled_error():
    # at stencil 4 the hypar's vanishing cubics give roundoff radicands that
    # fail the x-cubic sign test; a failing tile reruns the suite over the
    # whole batch, which raises the untiled error
    scn = scenario("hypar")
    pairg = AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)
    with pytest.raises(ChartMismatchError) as whole:
        affine_forms(pairg, stencil=4)
    with pytest.raises(ChartMismatchError) as tiled:
        _tiled(3, scn.f3_grid.dims[1] - 6, "affine", 4, scn=scn)
    assert str(tiled.value) == str(whole.value)


def test_tiled_affine_suite_peaks_below_half_a_whole_grid_call(monkeypatch):
    # the tiles lift and take jets of their own rows: no whole-grid temporaries
    monkeypatch.setenv("PLM_NUM_THREADS", "1")
    scn = scenario("hypar", h=0.005)
    pairg = AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)
    units = cli._collect_tasks(scn, suite="affine")
    tracemalloc.start()
    try:
        affine_forms(pairg)
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli._run_units(units)
        tiled = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tiled < whole / 2, (tiled, whole)


@pytest.mark.parametrize("name, suite", [("ell-paraboloid", "hyper"), ("hypar", "smooth-asymptotic")])
def test_tiled_closed_form_suite_peaks_below_one_whole_grid_jet(monkeypatch, name, suite):
    # each tile evaluates the closed form on its own rows: no whole-grid jet is built
    monkeypatch.setenv("PLM_NUM_THREADS", "1")
    scn = scenario(name, h=0.005)
    jet = scn.hyper_nu_jet if suite == "hyper" else scn.f_jets
    whole = sum(a.nbytes for a in (jet.value, jet.d1, jet.d2, jet.d3) if a is not None)
    del jet
    units = cli._collect_tasks(scn, suite=suite)
    tracemalloc.start()
    try:
        cli._run_units(units)
        tiled = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tiled < whole, (tiled, whole)


def test_finished_units_hand_back_less_than_one_tile_of_residuals(monkeypatch):
    # each unit reduces the fields it computes: what it hands back to the join
    # is a summary per field, not the field, so the parts of every group's
    # tiles, all held until the join, hold less than the residual fields of
    # one smooth tile
    monkeypatch.setenv("PLM_NUM_THREADS", "1")
    scn = scenario("hypar", h=0.005)
    units = cli._collect_tasks(scn)
    group = units[0][1]()[0]
    tile = ResidualTile()
    for suite in group.suites:
        suite.run(*group.inputs(cli._row_tiles(group.shape)[0]), report=tile)
    one_tile = sum(f.nbytes for _, f, _ in tile.fields)
    del tile
    parts = []
    kept = [(name, lambda thunk=thunk: parts.append(thunk()) or parts[-1]) for name, thunk in units]
    cli._run_units(kept)  # fills any cache the units fill
    parts.clear()
    tracemalloc.start()
    try:
        cli._run_units(kept)
        handed_back = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(parts) == len(units) > 4
    assert handed_back < one_tile, (handed_back, one_tile)


_CLOSED = {"hypar": "closed", "cubic-graph": "closed", "conj-paraboloid": "closed", "ell-paraboloid": "hyper_closed"}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_CLOSED)),
    corner=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    extent=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    h=st.floats(0.01, 0.5),
    kind=st.sampled_from(["empty", "one row", "to the last row"]),
    data=st.data(),
)
def test_closed_form_rows_equal_the_rows_of_the_whole_grid_jets(name, corner, extent, h, kind, data):
    (x0, y0), (nx, ny) = corner, extent
    scn = scenario(name, x0=x0, x1=x0 + (nx - 1) * h, y0=y0, y1=y0 + (ny - 1) * h, h=h)
    closed = getattr(scn, _CLOSED[name])
    n = closed.shape[0]
    start = data.draw(st.integers(0, n if kind == "empty" else n - 1))
    rows = {"empty": slice(start, start), "one row": slice(start, start + 1), "to the last row": slice(start, n)}[kind]
    whole = (scn.hyper_f_jet, scn.hyper_nu_jet) if name == "ell-paraboloid" else (scn.f_jets, scn.nu_jets)
    for part, full in zip(closed.rows(rows), whole):
        full = full[rows]
        for k in ("value", "d1", "d2", "d3"):
            a, b = getattr(part, k), getattr(full, k)
            if b is None:
                assert a is None
                continue
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), k
        assert [a.tobytes() for a in part.axes] == [b.tobytes() for b in full.axes]


def _hyper_pair(rows, cols, flat_rows, seed=0):
    """A random n = 2 jet pair whose conormal has d2 = c * identity on the
    first ``flat_rows`` rows, so every compatibility combination of A = I
    vanishes there and on no other row."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols, 4)
    d2 = rng.standard_normal((3,) + shape)  # xx, xy, yy
    d2[1, :flat_rows] = 0.0
    d2[2, :flat_rows] = d2[0, :flat_rows]
    nu = JetGrid(value=rng.standard_normal(shape), d1=rng.standard_normal((2,) + shape), d2=d2)
    f = JetGrid(value=rng.standard_normal(shape), d1=rng.standard_normal((2,) + shape), d2=np.zeros((3,) + shape))
    return f, nu


def _hyper_scenario(f, nu):
    return dataclasses.replace(scenario("ell-paraboloid"), hyper_f_jet=f, hyper_nu_jet=nu, amatrix=AMatrix(np.eye(2)))


def test_compat_zero_shortcut_is_decided_over_the_whole_batch():
    # every combination vanishes on the first tile only: a per-tile shortcut
    # would give zeros there, the whole batch takes the span solve everywhere
    f, nu = _hyper_pair(rows=9, cols=3, flat_rows=3)
    scn = _hyper_scenario(f, nu)
    expected = _hyper_untiled(f, nu, scn.amatrix).to_json()
    assert _tiled(3, 3, "hyper", scn=scn).to_json() == expected


def test_compat_rank_check_is_not_skipped_on_an_all_zero_tile():
    # the span basis is rank deficient on the first tile, where every
    # combination vanishes; the whole-batch suite still makes the rank check
    f, nu = _hyper_pair(rows=9, cols=3, flat_rows=3)
    nu.d1[1, 1, 1] = nu.d1[0, 1, 1]
    scn = _hyper_scenario(f, nu)
    with pytest.raises(DegeneratePointError) as whole:
        hyper_compat_residual(nu, scn.amatrix)
    with pytest.raises(DegeneratePointError) as tiled:
        _tiled(3, 3, "hyper", scn=scn)
    assert str(tiled.value) == str(whole.value)


def test_jet_grid_rows_equal_the_rows_of_the_full_jets():
    grid = _box("cubic-graph", 11, 7).f_grid
    for order, stencil in ((2, 2), (3, 2), (2, 4), (3, 4)):
        full = cli.jet_grid(grid, order=order, stencil=stencil)
        for rows in (slice(0, 1), slice(2, 5), slice(4, None)):
            part = cli.jet_grid(grid, order=order, stencil=stencil, rows=rows)
            for name in ("xs", "value", "d_x", "d_y", "d_xx", "d_xy", "d_yy", "d_xxx", "d_yyy"):
                a, b = getattr(part, name), getattr(full, name)
                if b is None:
                    assert a is None
                    continue
                assert a.tobytes() == b[rows].tobytes() and a.shape == b[rows].shape


def test_many_threads_give_the_one_thread_report(monkeypatch, tmp_path, capsys):
    # more workers than cores, and a switch interval that interleaves them
    # at almost every bytecode, must not change a byte of the report
    monkeypatch.setattr(cli, "TILE_SITES", 200)
    outcome = {}

    def run():
        for threads in ("1", "8"):
            monkeypatch.setenv("PLM_NUM_THREADS", threads)
            for name in ("hypar", "ell-paraboloid"):
                path = tmp_path / f"{name}-{threads}.json"
                outcome[name, threads] = cli.main(["verify", "--scenario", name, "--no-meta", "--report", str(path)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    capsys.readouterr()
    assert not worker.is_alive(), "verify did not finish within 120 s"
    assert set(outcome.values()) == {0}
    for name in ("hypar", "ell-paraboloid"):
        assert (tmp_path / f"{name}-8.json").read_bytes() == (tmp_path / f"{name}-1.json").read_bytes()
