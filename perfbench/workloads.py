"""The four benchmark workloads: CLI commands, inputs and correctness gates.

Each workload is a list of ``plmkit`` CLI commands run in one work
directory, the code a fresh process runs to build the same inputs inside
the program (the ``setup_s`` probe), and the identity names every
``verify`` report must list.  Sizes come in two scales: ``full`` for the
benchmark and ``tiny`` for the self-check.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

_SMOOTH = [
    "smooth-asymptotic/defining_relation/bivector_x",
    "smooth-asymptotic/defining_relation/bivector_y",
    "smooth-asymptotic/orthogonality/<f_x,nu>",
    "smooth-asymptotic/orthogonality/<f_x,nu_x>",
    "smooth-asymptotic/orthogonality/<f_xx,nu>",
    "smooth-asymptotic/orthogonality/<f,nu_xx>",
    "smooth-asymptotic/orthogonality/<f_xx,nu_xx>",
    "smooth-asymptotic/orthogonality/<f_y,nu>",
    "smooth-asymptotic/orthogonality/<f_y,nu_y>",
    "smooth-asymptotic/orthogonality/<f_yy,nu>",
    "smooth-asymptotic/orthogonality/<f,nu_yy>",
    "smooth-asymptotic/orthogonality/<f_yy,nu_yy>",
    "smooth-asymptotic/det_invariance/det_mixed_invariance",
    "smooth-asymptotic/det_invariance/det_xx_invariance",
    "smooth-asymptotic/det_invariance/det_yy_invariance",
]
_AFFINE = [
    "affine/form_identities/blaschke_pairing",
    "affine/form_identities/cubic_pairing_x",
    "affine/form_identities/cubic_pairing_y",
    "affine/form_identities/blaschke_squared",
    "affine/form_identities/cubic_squared_x",
    "affine/form_identities/cubic_squared_y",
    "affine/form_identities/lift_mixed_det_is_F_squared",
    "affine/conormal_closure/conormal_closure",
]
_DISCRETE = [
    "discrete/defining_relation/bivector_1",
    "discrete/defining_relation/bivector_2",
    "discrete/defining_relation/<f,nu>",
    "discrete/defining_relation/<f1,nu>",
    "discrete/defining_relation/<f2,nu>",
    "discrete/defining_relation/<f,nu1>",
    "discrete/defining_relation/<f,nu2>",
    "discrete/defining_relation/<f1,nu2>-<f2,nu1>",
    "discrete/defining_relation/<f,nu12>-<f12,nu>",
    "discrete/volume_invariance/affine_volume_factorization",
    "discrete/volume_invariance/volume_invariance",
    "discrete/form_identities/omega2_det_identity",
    "discrete/form_identities/omega3_det_identity",
    "discrete/form_identities/omega3tilde_det_identity",
    "discrete/moutard_closure/moutard_closure",
]
# Identities of the discrete suite that fail at size 300 because |nu|
# outgrows the absolute tolerance (NOTES.md, fact 1).
_LATTICE_OVERFLOW = frozenset(
    f"discrete/{name}"
    for name in (
        "defining_relation/bivector_1",
        "defining_relation/bivector_2",
        "volume_invariance/affine_volume_factorization",
        "form_identities/omega2_det_identity",
        "form_identities/omega3_det_identity",
        "form_identities/omega3tilde_det_identity",
    )
)
_HYPER = [
    "hyper/defining_relation/bivector_x1",
    "hyper/defining_relation/bivector_x2",
    "hyper/defining_relation/<f_x1,nu>",
    "hyper/defining_relation/<f,nu_x1>",
    "hyper/defining_relation/<f_x2,nu>",
    "hyper/defining_relation/<f,nu_x2>",
] + [
    f"hyper/compatibility/compat_{code}"
    for code in ("1112", "1121", "1211", "1212", "1221", "1222", "2111", "2112", "2121", "2122", "2212", "2221")
]

# Grid spacing on [-1, 1]^2 (0.005 gives 401^2 sites) and lattice extent.
_SCALES = {"full": {"h": 0.005, "size": 300}, "tiny": {"h": 0.1, "size": 16}}

# Half-width of the csv-roundtrip box: [-0.5, 0.5]^2 is 201^2 sites at
# h = 0.005, so a 30 s run fits three or more rounds of its two CLI processes.
_CSV_HALF = 0.5

# Tolerance of the rec.csv check: reconstruction from an exactly sampled
# quadratic conormal is exact up to rounding.
_REC_TOL = 1e-9


@dataclass
class Command:
    """One CLI process of a workload."""

    argv: list
    expected: list = None  # identity names of the verify report, None for reconstruct
    report: str = None  # --report file, relative to the work directory
    output: str = None  # --out file checked against the closed-form surface


@dataclass
class Workload:
    name: str
    commands: list
    setup_code: str  # run by a fresh process; prints the seconds taken
    # Identities allowed to fail.  Closed-form fixtures must pass every
    # identity; the random Moutard lattice overflows at this size (see
    # NOTES.md), and those known failures are reported through
    # identity_fail_frac.  Any other failing identity makes a run incorrect.
    may_fail: frozenset = frozenset()
    hot: list = field(default_factory=list)  # traced functions that must be called


def _verify(argv, expected):
    return Command(argv=["verify", *argv, "--report", "report.json", "--no-meta"], expected=expected, report="report.json")


def _setup_code(build):
    return (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import plmkit\n"
        f"{build}\n"
        "print(repr(time.perf_counter() - t0))\n"
    )


def make(name, seed, scale="full"):
    """Workload ``name`` at ``scale``; only ``lattice`` uses ``seed``."""
    h, size = _SCALES[scale]["h"], _SCALES[scale]["size"]
    if name == "smooth-grid":
        return Workload(
            name,
            [_verify(["--scenario", "hypar", "--h", repr(h)], _SMOOTH + _AFFINE)],
            _setup_code(f"plmkit.scenario('hypar', h={h!r})"),
            hot=["multilinear.det_n"],
        )
    if name == "lattice":
        return Workload(
            name,
            [_verify(["--scenario", "moutard-random", "--size", str(size), "--seed", str(seed)], _DISCRETE)],
            _setup_code(f"plmkit.scenario('moutard-random', size={size}, seed={seed})"),
            may_fail=_LATTICE_OVERFLOW,
            hot=["discrete.moutard_evolve"],
        )
    if name == "hyper-grid":
        return Workload(
            name,
            [_verify(["--scenario", "ell-paraboloid", "--h", repr(h)], _HYPER)],
            _setup_code(f"plmkit.scenario('ell-paraboloid', h={h!r})"),
            hot=["multilinear.star_of_wedge"],
        )
    if name == "csv-roundtrip":
        return Workload(
            name,
            [
                Command(argv=["reconstruct", "--nu", "nu.csv", "--out", "rec.csv"], output="rec.csv"),
                _verify(["--nu", "nu.csv", "--f", "f.csv", "--suite", "smooth-asymptotic"], _SMOOTH),
            ],
            _setup_code("plmkit.read_grid('nu.csv'); plmkit.read_grid('f.csv')"),
            hot=["fields.read_grid"],
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("smooth-grid", "lattice", "hyper-grid", "csv-roundtrip")


def _csv_axis(scale):
    h = _SCALES[scale]["h"]
    return -_CSV_HALF + h * np.arange(int(round(2 * _CSV_HALF / h)) + 1)


def _write_grid_csv(path, xs, ys, values):
    """Grid CSV in plmkit's format: x,y,v1..vd, y outer, repr floats."""
    d = values.shape[-1]
    lines = ["x,y," + ",".join(f"v{k + 1}" for k in range(d))]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            lines.append(",".join(repr(float(c)) for c in (x, y, *values[i, j])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def prepare(workload, workdir, scale="full"):
    """Write the input files a workload reads (untimed)."""
    os.makedirs(workdir, exist_ok=True)
    if workload.name != "csv-roundtrip":
        return
    xs = _csv_axis(scale)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    one = np.ones_like(X)
    _write_grid_csv(os.path.join(workdir, "f.csv"), xs, xs, np.stack([X, Y, X * Y, -one], axis=-1))
    _write_grid_csv(os.path.join(workdir, "nu.csv"), xs, xs, np.stack([-Y, -X, one, -X * Y], axis=-1))


def clear_outputs(workload, workdir):
    """Remove every file a command writes, so a stale one is never checked."""
    for cmd in workload.commands:
        for name in (cmd.report, cmd.output):
            if name:
                try:
                    os.remove(os.path.join(workdir, name))
                except FileNotFoundError:
                    pass


def _check_rec(path, scale):
    """rec.csv must be the hypar (x, y, xy, -1) up to projective scale."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xs = _csv_axis(scale)[1:-1]  # reconstruct drops one stencil margin
    if data.shape != (len(xs) ** 2, 6):
        return f"rec.csv has shape {data.shape}, expected {(len(xs) ** 2, 6)}"
    x, y, f = data[:, 0], data[:, 1], data[:, 2:]
    if np.max(np.abs(x - np.tile(xs, len(xs)))) > 1e-12 or np.max(np.abs(y - np.repeat(xs, len(xs)))) > 1e-12:
        return "rec.csv sites differ from the interior grid"
    if np.min(np.abs(f[:, 3])) == 0.0:
        return "rec.csv has a point at infinity"
    aff = f / -f[:, 3:4]
    err = np.max(np.abs(aff - np.stack([x, y, x * y, -np.ones_like(x)], axis=-1)))
    if not err <= _REC_TOL:
        return f"rec.csv deviates from (x, y, xy, -1) by {err:.3e}"
    return None


def check(cmd, rc, stderr, workdir, scale="full"):
    """Judge one CLI process.

    Returns ``(error, identities)``: ``error`` is None for a valid
    verdict, else the reason; ``identities`` lists ``(name, passed)``
    from the report.
    """
    if "Traceback (most recent call last)" in stderr:
        return "printed a traceback", []
    if rc not in (0, 1) or (cmd.expected is None and rc != 0):
        return f"exit code {rc}: {stderr.strip()[-200:]}", []
    if cmd.output:
        path = os.path.join(workdir, cmd.output)
        if not os.path.exists(path):
            return f"{cmd.output} missing", []
        err = _check_rec(path, scale)
        if err:
            return err, []
    if cmd.expected is None:
        return None, []
    try:
        with open(os.path.join(workdir, cmd.report)) as fh:
            rep = json.load(fh)
        idents = [(rec["name"], bool(rec["pass"])) for rec in rep["identities"]]
        verdict = bool(rep["pass"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"report unreadable: {exc}", []
    if [name for name, _ in idents] != cmd.expected:
        return "identity names differ from the expected list", idents
    if rc != (0 if verdict else 1) or verdict != all(ok for _, ok in idents):
        return f"exit code {rc} disagrees with the report verdict", idents
    return None, idents
