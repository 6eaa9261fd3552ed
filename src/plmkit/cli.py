"""Command-line front end: verification suites, reconstruction, forms.

``_input`` is the one input path of every command: it turns a fixture
(``--scenario``), grid files (``--nu``, ``--f``) or a lattice file
(``--lattice``) into one ``Scenario``, checked against the option table ``_TAKES``.

Exit codes: 0 all checks pass, 1 identity failure, 2 usage error,
3 I/O error, 4 degenerate input: fatal with --strict, and for
``reconstruct --out``, since a grid CSV cannot leave a point out (``--obj``
alone writes the mesh without the degenerate points and exits 0).

``verify``'s suites are the rows of one table, ``_SUITES``, in report order:
each row names a suite's ``--suite`` family and name, its input source (jets,
the affine pair or lattice rows), its jet order or lattice halo, its chart (for
a smooth suite) and its runner.  ``verify(scn, suite, stencil)``, the
in-process call behind ``plmkit verify``, runs them on a pool of
``PLM_NUM_THREADS`` workers (default: the CPU count).  Consecutive suites of one
family whose source gives one group key share their inputs as a group, and each
unit of work is one row tile of a group, of about ``TILE_SITES`` sites: it takes the
inputs of its own rows (a fixture's closed form evaluated on those rows, views
of given jets, the jets of those rows of a sampled grid, stencil halo included,
or the rows of a lattice that hold its base sites and the rows past them that
its stencils reach), so no whole-grid jet or whole-lattice temporary is built,
and reduces each residual field it computes to a record that keeps a small
summary (``IdentityRecord.from_field``), so the fields die with the unit.  The
engine maps every unit over the pool, then joins each suite once from its
tiles' summaries, in table order.  The join is exact for max and argmax, and
the mean is the sum of per-row sums over the site count wherever the tiles
cut, so the report is the same bytes at any thread count.  A group not cut
into rows (a mismatched, empty or too small input) is one tile over the whole
batch: the untiled run is the one-tile run.
A tiled suite that raises on a tile, or whose tiles make different
whole-batch choices (the one such choice is the zero shortcut of
``hyper_compat_residual``), runs again as its group's one tile over the whole
batch, in the calling thread.
"""

import argparse
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import __version__
from .affine import AffineSurfacePair, _jet_order, affine_forms, closure_residual
from .discrete import (
    DiscreteSurfacePair,
    _omega_identities,
    discrete_affine_integrate,
    discrete_det_invariance,
    discrete_forms,
    discrete_residual,
    moutard_residual,
)
from .errors import (
    ChartMismatchError,
    DegeneratePointError,
    DomainError,
    ParseError,
    PlmError,
)
from .fields import (
    LatticeField,
    _margin,
    _write_table,
    grid_on_sites,
    jet_grid,
    read_grid,
    read_lattice,
    write_grid,
    write_lattice,
)
from .hyper import hyper_compat_residual, hyper_plm_residual, write_hyper_grid
from .report import AFFINE_TOL, LATTICE_TOL, IdentityRecord, InvariantReport, ResidualTile, _Summary
from .scenarios import Scenario, list_scenarios, scenario
from .smooth import (
    ChartKind,
    det_invariance_report,
    fubini_forms,
    orthogonality_report,
    plm_residual,
    reconstruct_field,
)

__all__ = ["main", "verify"]

# For each command, its sources in order of precedence, each with the options
# it takes among those that depend on the source.  A second source, or an
# option that only other sources take, does not apply.
_TAKES = {
    "verify": {"nu": {"f", "stencil"}, "scenario": {"seed", "size", "h", "grid", "stencil"}},
    "reconstruct": {
        "lattice": {"f0"},
        "nu": {"stencil", "chart", "strict", "obj"},
        "scenario": {"seed", "size", "h", "grid", "chart", "strict", "obj"},
    },
    "forms": {"scenario": {"seed", "size", "h", "grid", "stencil"}},
    "scenario-dump": {"scenario": {"seed", "size", "h", "grid"}},
}

# Defaults that would hide whether an option was given: applied after the check.
_DEFAULTS = {"stencil": 2, "strict": False, "f0": "0,0,0"}

# Sites per row tile of a tiled suite.  On component-major fields, in-process
# verify at h = 0.005 (401^2 sites) took, in seconds for 8192 / 16384 / 32768
# sites per tile (medians of 11 interleaved runs, 2 vCPUs, numpy 2.4):
#   hypar, one thread:           0.283 / 0.257 / 0.326; two: 0.320 / 0.219 / 0.222
#   ell-paraboloid, one thread:  0.134 / 0.125 / 0.140; two: 0.144 / 0.100 / 0.110
# so no size beats 16384 on both.  It is not sized to a cache: a unit's traced
# peak is 3.8 to 13.7 MiB.  An affine tile lifts and differentiates only its
# rows of the pair, halo included.
TILE_SITES = 16384


def _worker_count(n_units):
    """PLM_NUM_THREADS (default: the CPU count), at most one worker per unit."""
    env = os.environ.get("PLM_NUM_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise DomainError(f"PLM_NUM_THREADS must be a positive integer, got {env!r}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_units))


def _scenario_from_args(args):
    params = dict(_grid_spec(args))
    if args.seed is not None:
        if args.seed < 0:  # the generator takes no negative seed
            raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
        params["seed"] = args.seed
    if args.size is not None:
        params["size"] = args.size
    if args.h is not None:
        if "h" in params and repr(params["h"]) != repr(args.h):
            raise DomainError(f"--grid step {params['h']!r} and --h {args.h!r} differ; give one spacing")
        params["h"] = args.h
    return scenario(args.scenario, **params)


def _input(args):
    """The command's input as one Scenario, from the first source of _TAKES given."""
    takes = _TAKES[args.cmd]
    source = next((s for s in takes if getattr(args, s)), None)
    if source is None:
        raise DomainError(f"{args.cmd} needs " + " or ".join(f"--{s}" for s in takes))
    for key in sorted(set(takes).union(*takes.values()) - takes[source] - {source}):
        if getattr(args, key) is not None:
            raise DomainError(f"--{key} does not apply: the input comes from --{source}")
    for key, value in _DEFAULTS.items():
        if getattr(args, key, value) is None:
            setattr(args, key, value)
    if source == "scenario":
        return _scenario_from_args(args)
    if source == "lattice":
        args.f0 = _base_point(args.f0)  # named before the file is read
        return Scenario(name=args.lattice, nu3_lattice=read_lattice(args.lattice))
    # sampled grids carry no chart: verify takes it from --suite, reconstruct from --chart
    suite, charts = getattr(args, "suite", None), {s.family: s.chart for s in _SUITES if s.chart}
    if suite not in (None, *charts):
        raise DomainError(f"--nu takes --suite {' or '.join(charts)}, not {suite!r}")
    f = getattr(args, "f", None)
    if "f" in takes[source] and f is None:
        raise DomainError(f"{args.cmd} --nu needs --f")
    nu, f = read_grid(args.nu), f and read_grid(f)
    # the identities compare the two fields site by site, so the grids must share
    # their sites, to the 1e-12 (of the spacing) to which the reader takes a grid as uniform
    for key in ("spacing", "origin") if f else ():
        a, b = getattr(f, key), getattr(nu, key)
        if not all(abs(x - y) <= 1e-12 * h for x, y, h in zip(a, b, nu.spacing)):
            raise DomainError(f"--f grid {key} {a} differs from --nu grid {key} {b}")
    return Scenario(name=args.nu, chart=suite and charts[suite], nu_grid=nu, f_grid=f)


def _base_point(text):
    """--f0 as three finite numbers x,y,z."""
    try:
        f0 = [float(v) for v in text.split(",")]
    except ValueError:
        f0 = []
    if len(f0) != 3 or not all(np.isfinite(f0)):
        raise DomainError(f"--f0 expects three finite numbers x,y,z, got {text!r}")
    return f0


def _grid_spec(args):
    """Parse --grid x0:x1:h[,y0:y1:h] into scenario box parameters (one h for both axes)."""
    if not args.grid:
        return {}
    parts = args.grid.split(",")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise DomainError("--grid expects x0:x1:h[,y0:y1:h]")
    out, steps = {}, []
    for key, part in zip(("x", "y"), parts):
        nums = part.split(":")
        if len(nums) != 3:
            raise DomainError("--grid expects x0:x1:h[,y0:y1:h]")
        try:
            out[key + "0"], out[key + "1"], h = (float(v) for v in nums)
        except ValueError:
            raise DomainError(f"--grid expects numbers, got {part!r}") from None
        steps.append(h)
    if repr(steps[0]) != repr(steps[1]):  # nan equals nan here: its own error follows
        raise DomainError(f"--grid spacings differ: hx = {steps[0]!r}, hy = {steps[1]!r}; both axes take one h")
    out["h"] = steps[0]
    return out


@dataclass(frozen=True, eq=False)
class _Suite:
    """A row of the suite table: ``verify --suite family`` runs suite
    ``family/name``, whose ``run(*inputs, report=)`` adds its residual fields
    to ``report``.  ``source(suite, scn, stencil)`` gives None when the
    scenario lacks the suite's inputs, else ``(key, shape, inputs)``: the
    group key and batch shape, and ``inputs(rows)`` on those rows of the
    batch.  The source reads ``reach``: the order of the jets of sampled grids
    (``_jets``) or of the pair (``_affine_grids``; None: its own), or the rows
    past its own that a ``_lattices`` tile reads; else None.  ``chart``: a smooth suite's."""

    family: str
    name: str
    source: Callable
    reach: int | None
    chart: ChartKind | None
    run: Callable


@dataclass(eq=False)
class _Group:
    """Consecutive suites of one family whose sources give one key share
    ``inputs(rows)`` on those rows of a batch of ``shape`` (a lattice's rows
    of base sites).  Its units are its row tiles; with ``shape`` None (a
    mismatched, empty or too small input, on which each suite raises its own
    error) it is one tile over the whole batch."""

    name: str
    suites: list
    shape: tuple
    inputs: Callable

    def run(self, rows, suites):
        """The part of each of ``suites`` on ``rows`` (see ``_tile``), or
        the PlmError that it or the inputs raised.

        Every value that over- or underflows here is judged afterwards, as a
        failing NaN record or a bad site, so numpy's warnings are off (the
        error state is per thread, and this is where every unit runs)."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inputs = _attempt(self.inputs, rows)
            if isinstance(inputs, PlmError):
                return [inputs] * len(suites)
            return [_attempt(_tile, s, inputs) for s in suites]

    def units(self):
        return [(f"{self.name}[{r.start}:{r.stop}]", lambda r=r: (self, self.run(r, self.suites)))
                for r in _row_tiles(self.shape)]


def _attempt(fn, *args, **kwargs):
    """``fn``'s result, or the PlmError it raised: errors are raised in report order."""
    try:
        return fn(*args, **kwargs)
    except PlmError as exc:
        return exc


class _Part(NamedTuple):
    """A suite's part on one tile: the whole-batch choices it made, and
    (name, summary, tolerance) of each of its residual fields."""

    decisions: list
    fields: list


def _tile(suite, inputs):
    """The suite's _Part on one tile, each summary through its field's record,
    so the fields themselves go when this returns.  A row tile may hold no
    site of a field (a lattice's last rows): it has a summary but no record."""
    tile = ResidualTile()
    suite.run(*inputs, report=tile)
    fields = [(name, IdentityRecord.from_field(name, r, tol).summary if r.size else _Summary.of(r), tol)
              for name, r, tol in tile.fields]
    return _Part(tile.decisions, fields)


def _row_tiles(shape):
    """Row slices of about TILE_SITES sites that cover a batch of ``shape``;
    the whole batch when ``shape`` is None."""
    if shape is None:
        return [slice(None)]
    step = max(1, TILE_SITES // int(np.prod(shape[1:])))
    return [slice(r, min(r + step, shape[0])) for r in range(0, shape[0], step)]


def _common_shape(a, b):
    """The batch shape two jets share, or None when it is not a tileable one."""
    return a if a == b and len(a) > 0 and min(a) > 0 else None


def _interior(grids, order, stencil):
    """The batch shape of the jets of this order that sampled grids share, or None."""
    return _common_shape(*(tuple(N - 2 * _margin(stencil, order) for N in grid.dims) for grid in grids))


def _jets(suite, scn, stencil):
    """Jets, given or a fixture's closed form, else a smooth suite's jets of
    the sampled grids: (f, nu, A) for a hyper suite, (f, nu, chart) for a
    smooth one on the scenario's chart."""
    if suite.chart is None:
        pair, param = scn.jet_pair(hyper=True), scn.amatrix
    elif scn.chart is suite.chart:
        pair, param = scn.jet_pair(), suite.chart
    else:
        return None
    if pair:  # jets have no stencil margin: one set per tile serves the family
        rows, shapes = pair
        return f"{suite.family}/jets", _common_shape(*shapes), lambda r: (*rows(r), param)
    if suite.chart is None or scn.f_grid is None:
        return None
    # one set of jets per tile serves every suite of its order; the asymptotic
    # determinants take order-3 jets, whose wider margin covers fewer sites
    grids, order = (scn.f_grid, scn.nu_grid), suite.reach
    return (f"{suite.family}/order{order}", _interior(grids, order, stencil),
            lambda r: (*(jet_grid(g, order=order, stencil=stencil, rows=r) for g in grids), param))


def _affine_grids(suite, scn, stencil):
    """(pair, stencil, rows): a tile lifts and differentiates its rows of the pair, halo included."""
    if scn.f3_grid is None:
        return None
    pair = AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)
    order = suite.reach or _jet_order(pair.f.dims, stencil)
    return f"{suite.family}/{suite.name}", _interior((pair.f, pair.nu), order, stencil), lambda r: (pair, stencil, r)


def _lattices(gauges, suite, scn, stencil):
    """(*pairs, own): only the lattice pairs of ``gauges`` ("affine", "projective"),
    on the rows of the base sites n1 in ``rows`` and the ``suite.reach`` rows past
    them, as views; ``own`` counts the rows in ``rows`` (None: all)."""
    if scn.nu_lattice is None:
        return None
    pairs = [DiscreteSurfacePair(*((scn.nu3_lattice, scn.f3_lattice) if gauge == "affine"
                                   else (scn.nu_lattice, scn.f_lattice))) for gauge in gauges]

    def inputs(rows):
        cut = slice(rows.start, None if rows.stop is None else rows.stop + suite.reach)
        own = None if rows.stop is None else rows.stop - rows.start
        return (*(DiscreteSurfacePair(*(LatticeField(values=lat.values[cut]) for lat in (p.nu, p.f))) for p in pairs),
                own)

    return f"{suite.family}/{suite.name}", _common_shape(pairs[0].extent, pairs[-1].extent), inputs


def _late(fn):
    """``fn`` called by its name here when it runs, so a rebinding (a tracing wrapper) is called."""
    return lambda *inputs, report: globals()[fn.__name__](*inputs, report=report)


# The suites of verify in report order: family, name, input source, jet order
# or lattice halo, chart and runner.  A lattice tile reads the rows past its
# own that its stencils reach: one for a plaquette, two for Omega3.  The
# volume suite takes the scenario's projective lattices as the lift of its
# affine ones, and the form suite keeps the sites anchored in its own rows.
_SUITES = (
    _Suite("smooth-asymptotic", "defining_relation", _jets, 2, ChartKind.ASYMPTOTIC, _late(plm_residual)),
    _Suite("smooth-asymptotic", "orthogonality", _jets, 2, ChartKind.ASYMPTOTIC, _late(orthogonality_report)),
    _Suite("smooth-asymptotic", "det_invariance", _jets, 3, ChartKind.ASYMPTOTIC, _late(det_invariance_report)),
    _Suite("smooth-conjugate", "defining_relation", _jets, 2, ChartKind.CONJUGATE, _late(plm_residual)),
    _Suite("smooth-conjugate", "orthogonality", _jets, 2, ChartKind.CONJUGATE, _late(orthogonality_report)),
    _Suite("smooth-conjugate", "det_invariance", _jets, 2, ChartKind.CONJUGATE, _late(det_invariance_report)),
    _Suite("hyper", "defining_relation", _jets, None, None, _late(hyper_plm_residual)),
    _Suite("hyper", "compatibility", _jets, None, None,
           lambda f, nu, A, report: hyper_compat_residual(nu, A, report=report)),
    _Suite("discrete", "defining_relation", partial(_lattices, ["projective"]), 1, None,
           lambda pairp, own, report: discrete_residual(pairp, report=report)),
    _Suite("discrete", "volume_invariance", partial(_lattices, ["affine", "projective"]), 1, None,
           lambda paira, pairp, own, report: discrete_det_invariance(paira, report=report, lift=pairp)),
    _Suite("discrete", "form_identities", partial(_lattices, ["affine"]), 2, None,
           lambda paira, own, report: _omega_identities(paira, report, rows=own)),
    _Suite("discrete", "moutard_closure", partial(_lattices, ["affine"]), 1, None,
           lambda paira, own, report: report.add("moutard_closure", moutard_residual(paira.nu), LATTICE_TOL)),
    _Suite("affine", "form_identities", _affine_grids, None, None, _late(affine_forms)),
    _Suite("affine", "conormal_closure", _affine_grids, 2, None, lambda pair, stencil, rows, report: report.add(
        "conormal_closure", closure_residual(pair.nu, stencil, rows)[0], AFFINE_TOL)),
)


def _collect_tasks(scn, suite="all", stencil=2):
    """(name, thunk) work units for every suite of family ``suite`` ("all":
    every family) applicable to the scenario, in report order: group by
    group, each group's suites next in the report.  Each thunk runs one unit
    of a group and returns (group, parts): each of its suites' part on the
    unit's rows (see ``_tile``), or the PlmError it raised."""
    groups = []
    for row in _SUITES:
        if suite in ("all", row.family) and (found := row.source(row, scn, stencil)):
            key, shape, inputs = found
            if groups and groups[-1].name == key:
                groups[-1].suites.append(row)
            else:
                groups.append(_Group(key, [row], shape, inputs))
    return [unit for group in groups for unit in group.units()]


def _suite_report(group, suite, parts):
    """The suite's records: the join of its parts (tiles in row order).

    A tiled suite with a part that raised, or whose tiles made different
    whole-batch choices, first runs again as its group's one tile over the
    whole batch, so its errors and results are those of an untiled run.
    """
    if group.shape is not None and any(
            isinstance(p, PlmError) or p.decisions != parts[0].decisions for p in parts):
        parts = group.run(slice(None), [suite])
    if isinstance(parts[0], PlmError):  # the one part of an untiled run
        raise parts[0]
    return [IdentityRecord.join(name, [p.fields[k][1] for p in parts], tol)
            for k, (name, _, tol) in enumerate(parts[0].fields)]


def _run_units(units):
    """Run the work units, given in report order, on the pool, then join each
    suite from its parts (summaries, not fields); every suite's records, in
    report order."""
    with ThreadPoolExecutor(max_workers=_worker_count(len(units))) as pool:
        results = list(pool.map(lambda unit: unit[1](), units))
    tiles = {}  # suite -> (group, parts), in table order
    for group, parts in results:
        for suite, part in zip(group.suites, parts):
            tiles.setdefault(suite, (group, []))[1].append(part)
    records = []
    for suite, (group, parts) in tiles.items():
        for rec in _suite_report(group, suite, parts):
            rec.name = f"{suite.family}/{suite.name}/{rec.name}"
            records.append(rec)
    return records


def verify(scn, suite="all", stencil=2):
    """The report, without metadata, of the suites of family ``suite`` ("all":
    every family) that apply to the scenario, with jets of sampled grids
    taken at this ``stencil`` (2 or 4); a DomainError when none applies."""
    units = _collect_tasks(scn, suite, stencil)
    if not units:
        raise DomainError(f"suite {suite!r} is not applicable to this input")
    return InvariantReport(records=_run_units(units))


def cmd_verify(args):
    combined = verify(_input(args), args.suite, args.stencil)
    combined.metadata = {} if args.no_meta else _run_meta(args)
    for rec in combined.records:
        status = "pass" if rec.passed else "FAIL"
        print(f"{status}  {rec.name}  max={rec.max_residual:.3e}  tol={rec.tolerance:g}")
    if args.report:
        _write_text(args.report, combined.to_json(include_meta=not args.no_meta) + "\n")
    print(("PASS" if combined.passed else "FAIL") + f"  ({len(combined.records)} identities)")
    return 0 if combined.passed else 1


def _run_meta(args):
    meta = {"tool_version": __version__, "argv": args.argv}
    for key in ("scenario", "seed", "size", "stencil", "suite"):
        val = getattr(args, key, None)
        if val is not None:
            meta[key] = val
    return meta


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _write_obj(path, points, mask):
    """Triangulated OBJ of (nx, ny, 3) points without the masked ones; each
    cell split along the (+x,+y) diagonal."""
    nx, ny = mask.shape
    idx = -np.ones((nx, ny), dtype=int)
    lines = []
    k = 0
    for j in range(ny):
        for i in range(nx):
            if mask[i, j]:
                continue
            x, y, z = points[i, j]
            lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
            k += 1
            idx[i, j] = k
    for j in range(ny - 1):
        for i in range(nx - 1):
            a, b, c, d = idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1]
            if min(a, b, c, d) < 0:
                continue
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    _write_text(path, "\n".join(lines) + "\n")


def cmd_reconstruct(args):
    scn = _input(args)
    if args.lattice:
        f = discrete_affine_integrate(scn.nu3_lattice, args.f0)
        if args.out:
            write_lattice(f, args.out)
            print(f"wrote {args.out}")
        return 0
    jets = scn.nu_jets
    if jets is None and scn.nu_grid is not None:
        jets = jet_grid(scn.nu_grid, order=2, stencil=args.stencil)
    if jets is None:
        raise DomainError("scenario has no smooth conormal jets")
    f, bad = reconstruct_field(jets, ChartKind(args.chart or scn.chart or "asymptotic"), strict=args.strict)
    nbad = int(bad.sum())
    if nbad:
        i, j = np.argwhere(bad)[0]
        where = f"{nbad} degenerate/mismatched points (first at x={float(jets.xs[i])!r}, y={float(jets.ys[j])!r})"
        if args.out:
            print(f"error: {where}; a grid CSV cannot leave them out (--obj can)", file=sys.stderr)
            return 4
        print(f"warning: {where}", file=sys.stderr)
    if args.out:
        write_grid(grid_on_sites(jets, f), args.out)
        print(f"wrote {args.out}")
    if args.obj:
        # affine gauge: scale the homogeneous point to last component -1
        last = f[..., 3]
        safe = np.where(np.abs(last) > 1e-300, last, 1.0)
        _write_obj(args.obj, f[..., :3] / -safe[..., None], bad | (np.abs(last) <= 1e-300) | ~np.isfinite(last))
        print(f"wrote {args.obj}")
    return 0


def _pad_full(arr, extent):
    out = np.full(extent, np.nan)
    if arr is not None:
        out[: arr.shape[0], : arr.shape[1]] = arr
    return out


def cmd_forms(args):
    scn = _input(args)
    note = "# sign conventions: eps(1..d)=+1, cross(e1,e2,e3)=-e4, star(e1^e2)=e3^e4, positive sqrt branch"
    if args.which == "affine":
        if scn.f3_grid is None:
            raise DomainError("scenario has no affine-gauge grids")
        forms, rep = affine_forms(AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid), stencil=args.stencil)
        # the coordinates of the interior of the jets affine_forms took
        m = _margin(args.stencil, rep.metadata["jet_order"])
        coords = [c[m : len(c) - m] for c in scn.nu3_grid.axes]
        cols = {"F": forms.F, "A_cubic": forms.A_cubic, "B_cubic": forms.B_cubic}
    elif args.which == "discrete":
        if scn.nu3_lattice is None:
            raise DomainError("scenario has no lattice fields")
        pairn = DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice)
        forms, _ = discrete_forms(pairn)
        ext = pairn.extent
        note += "; forms anchored at the base site of their stencil, nan outside"
        coords = [np.arange(m) for m in ext]
        cols = {name: _pad_full(getattr(forms, name), ext)
                for name in ("Omega2", "Omega3", "Omega3tilde", "F2d", "F3d", "F3dtilde")}
    else:
        fj, nj = scn.f_jets, scn.nu_jets  # a fixture computes each on access
        if fj is None:
            raise DomainError("scenario has no smooth jets")
        forms = fubini_forms(fj, nj)
        missing = np.full_like(forms.F2_coeff, np.nan)
        coords = fj.axes
        cols = {"F2": forms.F2_coeff, "F3": missing if forms.F3_coeff is None else forms.F3_coeff,
                "F3tilde": missing if forms.F3tilde_coeff is None else forms.F3tilde_coeff}
    names = ["n1", "n2"] if args.which == "discrete" else ["x", "y"]
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(note + "\n")
        _write_table(fh, names + list(cols), coords, np.stack(list(cols.values()), axis=-1))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_scenario_dump(args):
    scn = _input(args)
    prefix = args.out or scn.name
    written = []
    f, nu = scn.value_grids()
    pairs = [
        ("f", f, write_grid),
        ("nu", nu, write_grid),
        ("f3", scn.f3_grid, write_grid),
        ("nu3", scn.nu3_grid, write_grid),
        ("f_lat", scn.f_lattice, write_lattice),
        ("nu_lat", scn.nu_lattice, write_lattice),
        ("f3_lat", scn.f3_lattice, write_lattice),
        ("nu3_lat", scn.nu3_lattice, write_lattice),
        ("nu_hyper", scn.hyper_nu_grid, write_hyper_grid),
    ]
    for tag, obj, writer in pairs:
        if obj is None:
            continue
        path = f"{prefix}_{tag}.csv"
        writer(obj, path)
        written.append(path)
    if not written:
        print("error: scenario emitted no dumpable fields", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="plmkit", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"plmkit {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, numerics=True):
        sp.add_argument("--scenario", help=f"fixture name: {', '.join(list_scenarios())}")
        sp.add_argument("--seed", type=int, help="RNG seed for generated scenarios")
        sp.add_argument("--size", type=int, help="lattice extent for generated scenarios")
        sp.add_argument("--h", type=float, help="grid/lattice spacing override")
        sp.add_argument("--grid", help="x0:x1:h[,y0:y1:h] sampling box; a negative x0 takes the form --grid=-1:1:0.1")
        if numerics:
            sp.add_argument("--stencil", type=int, choices=(2, 4), help="finite-difference stencil (default 2)")
            sp.add_argument("--strict", action="store_true", default=None, help="degenerate input is fatal (exit 4)")

    sp = sub.add_parser("verify", help="run identity suites and report residuals")
    common(sp)
    sp.add_argument("--suite", choices=(*dict.fromkeys(s.family for s in _SUITES), "all"), default="all")
    sp.add_argument("--nu", help="conormal grid CSV (file-input mode)")
    sp.add_argument("--f", help="surface grid CSV (file-input mode)")
    sp.add_argument("--report", help="write the JSON report here")
    sp.add_argument("--no-meta", action="store_true", help="omit metadata for byte-stable output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reconstruct", help="surface from conormal data")
    common(sp)
    sp.add_argument("--nu", help="conormal grid CSV")
    sp.add_argument("--lattice", help="conormal lattice CSV")
    sp.add_argument("--f0", help="integration base point x,y,z (default 0,0,0)")
    sp.add_argument("--chart", choices=("asymptotic", "conjugate"))
    sp.add_argument("--out", help="output CSV path")
    sp.add_argument("--obj", help="triangulated OBJ of the affine-gauge surface")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("forms", help="form coefficient fields as CSV")
    common(sp)
    sp.add_argument("--which", choices=("projective", "affine", "discrete"), required=True)
    sp.add_argument("--out", help="output CSV path (stdout if omitted)")
    sp.set_defaults(func=cmd_forms)

    sp = sub.add_parser("scenario-dump", help="write scenario fields as CSV files")
    common(sp, numerics=False)
    sp.add_argument("--out", help="output path prefix (default: scenario name)")
    sp.set_defaults(func=cmd_scenario_dump)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    try:
        return args.func(args)
    except ParseError as exc:
        where = "".join(f"{part}:" for part in (exc.path, exc.line) if part)
        print(f"error: {where} {exc}" if where else f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegeneratePointError, ChartMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if getattr(args, "strict", False) else 1
    except PlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
