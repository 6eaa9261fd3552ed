"""Command-line front end: verification suites, reconstruction, forms.

Exit codes: 0 all checks pass, 1 identity failure, 2 usage error,
3 I/O error, 4 degenerate input: fatal with --strict, and for
``reconstruct --out``, since a grid CSV cannot leave a point out (``--obj``
alone writes the mesh without the degenerate points and exits 0).
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .affine import AffineSurfacePair, affine_forms, closure_residual
from .discrete import (
    DiscreteSurfacePair,
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
from .fields import grid_on_sites, jet_grid, read_grid, read_lattice, write_grid, write_lattice
from .hyper import hyper_compat_residual, hyper_plm_residual, recover_A
from .report import InvariantReport
from .scenarios import list_scenarios, scenario
from .smooth import (
    ChartKind,
    as_jets,
    det_invariance_report,
    fubini_forms,
    orthogonality_report,
    plm_residual,
    reconstruct_field,
)

__all__ = ["main"]

_SUITES = ("smooth-asymptotic", "smooth-conjugate", "hyper", "discrete", "affine", "all")


def _worker_count(n_tasks):
    env = os.environ.get("PLM_NUM_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def _chart_of(suite):
    return ChartKind.ASYMPTOTIC if suite == "smooth-asymptotic" else ChartKind.CONJUGATE


def _scenario_from_args(args):
    params = dict(_grid_spec(args))
    if getattr(args, "seed", None) is not None:
        params["seed"] = args.seed
    if getattr(args, "size", None) is not None:
        params["size"] = args.size
    if getattr(args, "h", None) is not None:
        params["h"] = args.h
    return scenario(args.scenario, **params)


def _grid_spec(args):
    """Parse --grid x0:x1:h[,y0:y1:h] into scenario box parameters."""
    if not getattr(args, "grid", None):
        return {}
    parts = args.grid.split(",")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise DomainError("--grid expects x0:x1:h[,y0:y1:h]")
    out = {}
    for key, part in zip(("x", "y"), parts):
        nums = part.split(":")
        if len(nums) != 3:
            raise DomainError("--grid expects x0:x1:h[,y0:y1:h]")
        try:
            out[key + "0"], out[key + "1"], out["h"] = (float(v) for v in nums)
        except ValueError:
            raise DomainError(f"--grid expects numbers, got {part!r}") from None
    return out


def _smooth_suite_tasks(suite, f_obj, nu_obj, stencil):
    chart = _chart_of(suite)
    # one set of order-2 jets serves every order-2 identity; the asymptotic
    # determinants need order-3 jets, whose wider margin covers fewer sites
    fj, nj = as_jets(f_obj, stencil=stencil), as_jets(nu_obj, stencil=stencil)
    df, dn = (f_obj, nu_obj) if chart is ChartKind.ASYMPTOTIC else (fj, nj)
    return [
        (f"{suite}/defining_relation", lambda: plm_residual(fj, nj, chart=chart, stencil=stencil)),
        (f"{suite}/orthogonality", lambda: orthogonality_report(fj, nj, chart=chart, stencil=stencil)),
        (f"{suite}/det_invariance", lambda: det_invariance_report(df, dn, chart=chart, stencil=stencil)),
    ]


def _collect_tasks(args, scn):
    """(name, thunk) pairs for every suite applicable to the inputs."""
    suites = [args.suite] if args.suite != "all" else list(_SUITES[:-1])
    tasks = []
    for suite in suites:
        if suite in ("smooth-asymptotic", "smooth-conjugate"):
            if scn is not None:
                if scn.f_jets is None or scn.chart is not _chart_of(suite):
                    continue
                tasks += _smooth_suite_tasks(suite, scn.f_jets, scn.nu_jets, args.stencil)
            else:
                tasks += _smooth_suite_tasks(suite, args._f_grid, args._nu_grid, args.stencil)
        elif suite == "hyper" and scn is not None and scn.hyper_f_jet is not None:
            fj, nj, A = scn.hyper_f_jet, scn.hyper_nu_jet, scn.amatrix
            tasks += [
                ("hyper/defining_relation", lambda: hyper_plm_residual(fj, nj, A)),
                ("hyper/compatibility", lambda: hyper_compat_residual(nj, A)),
            ]
        elif suite == "discrete" and scn is not None and scn.nu_lattice is not None:
            pairp = DiscreteSurfacePair(nu=scn.nu_lattice, f=scn.f_lattice, gauge="projective")
            paira = DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice, gauge="affine")

            def moutard_rep():
                rep = InvariantReport()
                rep.add("moutard_closure", moutard_residual(scn.nu3_lattice), 1e-10)
                return rep

            tasks += [
                ("discrete/defining_relation", lambda: discrete_residual(pairp)),
                ("discrete/volume_invariance", lambda: discrete_det_invariance(paira)),
                ("discrete/form_identities", lambda: discrete_forms(paira)[1]),
                ("discrete/moutard_closure", moutard_rep),
            ]
        elif suite == "affine" and scn is not None and scn.f3_grid is not None:
            paira = AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid)

            def closure_rep():
                rep = InvariantReport()
                rep.add("conormal_closure", closure_residual(scn.nu3_grid, stencil=args.stencil)[0], 1e-8)
                return rep

            tasks += [
                ("affine/form_identities", lambda: affine_forms(paira, stencil=args.stencil)[1]),
                ("affine/conormal_closure", closure_rep),
            ]
    return tasks


def cmd_verify(args):
    scn = None
    if args.nu:
        if args.suite not in ("smooth-asymptotic", "smooth-conjugate"):
            print("error: file input supports the smooth suites only", file=sys.stderr)
            return 2
        args._nu_grid = read_grid(args.nu)
        args._f_grid = read_grid(args.f) if args.f else None
        if args._f_grid is None:
            print("error: --nu requires --f for verification", file=sys.stderr)
            return 2
    elif args.scenario:
        scn = _scenario_from_args(args)
    else:
        print("error: verify needs --scenario or --nu/--f", file=sys.stderr)
        return 2

    tasks = _collect_tasks(args, scn)
    if not tasks:
        print(f"error: suite {args.suite!r} is not applicable to this input", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=_worker_count(len(tasks))) as pool:
        results = list(pool.map(lambda t: t[1](), tasks))

    combined = InvariantReport(metadata={} if args.no_meta else _run_meta(args))
    for (name, _), rep in zip(tasks, results):
        for rec in rep.records:
            rec.name = f"{name}/{rec.name}"
            combined.records.append(rec)
    for rec in combined.records:
        status = "pass" if rec.passed else "FAIL"
        print(f"{status}  {rec.name}  max={rec.max_residual:.3e}  tol={rec.tolerance:g}")
    if args.report:
        _write_text(args.report, combined.to_json(include_meta=not args.no_meta) + "\n")
    print(("PASS" if combined.passed else "FAIL") + f"  ({len(combined.records)} identities)")
    return 0 if combined.passed else 1


def _run_meta(args):
    meta = {"tool_version": __version__, "argv": [a for a in sys.argv[1:]]}
    for key in ("scenario", "seed", "size", "stencil", "suite", "chart"):
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
    if args.lattice:
        if args.gauge != "affine":
            print("error: lattice reconstruction supports --gauge affine", file=sys.stderr)
            return 2
        nu = read_lattice(args.lattice)
        f0 = [float(v) for v in args.f0.split(",")]
        f = discrete_affine_integrate(nu, f0)
        if args.out:
            write_lattice(f, args.out)
            print(f"wrote {args.out}")
        return 0
    if args.scenario:
        scn = _scenario_from_args(args)
        jets = scn.nu_jets
        chart = ChartKind(args.chart) if args.chart else scn.chart
        if jets is None or chart is None:
            print("error: scenario has no smooth conormal jets", file=sys.stderr)
            return 2
    elif args.nu:
        grid = read_grid(args.nu)
        jets = jet_grid(grid, order=2, stencil=args.stencil)
        chart = ChartKind(args.chart or "asymptotic")
    else:
        print("error: reconstruct needs --scenario, --nu, or --lattice", file=sys.stderr)
        return 2
    try:
        f, bad = reconstruct_field(jets, chart, strict=args.strict)
    except (DegeneratePointError, ChartMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
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
    scn = _scenario_from_args(args)
    header_note = "# sign conventions: eps(1..d)=+1, cross(e1,e2,e3)=-e4, star(e1^e2)=e3^e4, positive sqrt branch"
    if args.which == "affine":
        if scn.f3_grid is None:
            print("error: scenario has no affine-gauge grids", file=sys.stderr)
            return 2
        forms, _ = affine_forms(AffineSurfacePair(f=scn.f3_grid, nu=scn.nu3_grid), stencil=args.stencil)
        nj = jet_grid(scn.nu3_grid, order=3 if forms.A_cubic is not None else 2, stencil=args.stencil)
        lines = [header_note, "x,y,F,A_cubic,B_cubic"]
        for j, y in enumerate(nj.ys):
            for i, x in enumerate(nj.xs):
                vals = (x, y, forms.F[i, j], forms.A_cubic[i, j], forms.B_cubic[i, j])
                lines.append(",".join(repr(float(v)) for v in vals))
    elif args.which == "discrete":
        if scn.nu3_lattice is None:
            print("error: scenario has no lattice fields", file=sys.stderr)
            return 2
        pairn = DiscreteSurfacePair(nu=scn.nu3_lattice, f=scn.f3_lattice, gauge="affine")
        forms, _ = discrete_forms(pairn)
        ext = pairn.extent
        cols = {
            "Omega2": _pad_full(forms.Omega2, ext),
            "Omega3": _pad_full(forms.Omega3, ext),
            "Omega3tilde": _pad_full(forms.Omega3tilde, ext),
            "F2d": _pad_full(forms.F2d, ext),
            "F3d": _pad_full(forms.F3d, ext),
            "F3dtilde": _pad_full(forms.F3dtilde, ext),
        }
        lines = [header_note + "; forms anchored at the base site of their stencil, nan outside",
                 "n1,n2," + ",".join(cols)]
        for n2 in range(ext[1]):
            for n1 in range(ext[0]):
                lines.append(",".join([str(n1), str(n2)] + [repr(float(c[n1, n2])) for c in cols.values()]))
    elif args.which == "projective":
        if scn.f_jets is None:
            print("error: scenario has no smooth jets", file=sys.stderr)
            return 2
        forms = fubini_forms(scn.f_jets, scn.nu_jets, stencil=args.stencil)
        lines = [header_note, "x,y,F2,F3,F3tilde"]
        F3 = forms.F3_coeff if forms.F3_coeff is not None else np.full_like(forms.F2_coeff, np.nan)
        F3t = forms.F3tilde_coeff if forms.F3tilde_coeff is not None else np.full_like(forms.F2_coeff, np.nan)
        for j, y in enumerate(scn.f_jets.ys):
            for i, x in enumerate(scn.f_jets.xs):
                vals = (x, y, forms.F2_coeff[i, j], F3[i, j], F3t[i, j])
                lines.append(",".join(repr(float(v)) for v in vals))
    else:
        print(f"error: unknown forms kind {args.which!r}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_scenario_dump(args):
    scn = _scenario_from_args(args)
    prefix = args.out or scn.name
    written = []
    pairs = [
        ("f", scn.f_grid, write_grid),
        ("nu", scn.nu_grid, write_grid),
        ("f3", scn.f3_grid, write_grid),
        ("nu3", scn.nu3_grid, write_grid),
        ("f_lat", scn.f_lattice, write_lattice),
        ("nu_lat", scn.nu_lattice, write_lattice),
        ("f3_lat", scn.f3_lattice, write_lattice),
        ("nu3_lat", scn.nu3_lattice, write_lattice),
    ]
    for tag, obj, writer in pairs:
        if obj is None:
            continue
        path = f"{prefix}_{tag}.csv"
        writer(obj, path)
        written.append(path)
    if scn.hyper_nu_grid is not None:
        from .hyper import write_hyper_grid

        path = f"{prefix}_nu_hyper.csv"
        write_hyper_grid(scn.hyper_nu_grid, path)
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

    def common(sp, scenario_opt=True):
        if scenario_opt:
            sp.add_argument("--scenario", help="fixture name; see 'verify --scenario help'")
            sp.add_argument("--seed", type=int, help="RNG seed for generated scenarios")
            sp.add_argument("--size", type=int, help="lattice extent for generated scenarios")
            sp.add_argument("--h", type=float, help="grid/lattice spacing override")
        sp.add_argument("--grid", help="x0:x1:h[,y0:y1:h] sampling box")
        sp.add_argument("--stencil", type=int, choices=(2, 4), default=2)
        sp.add_argument("--strict", action="store_true", help="degenerate input is fatal (exit 4)")

    sp = sub.add_parser("verify", help="run identity suites and report residuals")
    common(sp)
    sp.add_argument("--suite", choices=_SUITES, default="all")
    sp.add_argument("--nu", help="conormal grid CSV (file-input mode)")
    sp.add_argument("--f", help="surface grid CSV (file-input mode)")
    sp.add_argument("--chart", choices=("asymptotic", "conjugate"))
    sp.add_argument("--report", help="write the JSON report here")
    sp.add_argument("--no-meta", action="store_true", help="omit metadata for byte-stable output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reconstruct", help="surface from conormal data")
    common(sp)
    sp.add_argument("--nu", help="conormal grid CSV")
    sp.add_argument("--lattice", help="conormal lattice CSV")
    sp.add_argument("--gauge", default="affine", help="lattice gauge (affine)")
    sp.add_argument("--f0", default="0,0,0", help="integration base point")
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
    common(sp)
    sp.add_argument("--out", help="output path prefix (default: scenario name)")
    sp.set_defaults(func=cmd_scenario_dump)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
