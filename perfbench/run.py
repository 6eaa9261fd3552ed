"""Benchmark of ``plmkit`` CLI runs, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload smooth-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole CLI processes, untraced, and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the same
commands under ``perfbench/traced.py`` and reports the per-layer metrics.
Progress and one line per metric go to stdout; the last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every sample, with the machine it ran on, is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

The benchmark is one sequential closed loop: it starts the next process
only after the previous one has exited, so it never runs more than the
CLI's own worker pool (``PLM_NUM_THREADS``) at a time.
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

NPROC = os.cpu_count() or 1
SETUP_SAMPLES = 3  # fresh-process set-ups per run, at least; setup_s is their median
CHILD_TIMEOUT_S = 120


def _env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PLM_NUM_THREADS"] = str(threads)
    return env


def spawn(argv, workdir, threads):
    """Run a child to exit; returns (wall_s, exit code, max RSS in MiB, stdout, stderr).

    A child still running after CHILD_TIMEOUT_S is killed (exit code -9).
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=_env(threads), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()


class Gate:
    """Counts CLI runs with no valid verdict and identities that failed.

    Identities are counted once per distinct command: they are a property
    of the input, so rounds that repeat a command must report the same
    verdicts, and a repeat that does not is a run without a valid verdict.
    """

    def __init__(self, wl, scale):
        self.wl, self.scale = wl, scale
        self.attempted = self.failed = 0
        self.identities = self.identity_failures = 0
        self.unexpected = 0  # failing identities outside the workload's may_fail list
        self.probe_failures = 0  # set-up and import probes that did not exit 0
        self.verdicts = {}  # command argv -> [(identity, passed)] of its first run
        self.errors = []

    def judge(self, label, cmd, rc, stderr, workdir):
        self.attempted += 1
        error, idents = workloads.check(cmd, rc, stderr, workdir, self.scale)
        failing = [name for name, ok in idents if not ok]
        if failing:
            print(f"  {label}: {len(failing)} of {len(idents)} identities failed: {', '.join(failing)}")
        key = tuple(cmd.argv)
        if not error and idents:
            if key not in self.verdicts:
                self.verdicts[key] = idents
                self.identities += len(idents)
                self.identity_failures += len(failing)
                unexpected = [name for name in failing if name not in self.wl.may_fail]
                if unexpected:
                    self.unexpected += len(unexpected)
                    self.errors.append(f"{label}: unexpected identity failures: {', '.join(unexpected)}")
                    print(f"  {label}: UNEXPECTED identity failures: {', '.join(unexpected)}")
            elif idents != self.verdicts[key]:
                error = "verdicts differ from an earlier run of the same command"
        if error:
            self.failed += 1
            self.errors.append(f"{label}: {error}")
            print(f"  {label}: NO VALID VERDICT: {error}")

    @property
    def correct(self):
        return self.failed == 0 and self.unexpected == 0 and self.probe_failures == 0 and self.attempted > 0

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(self.attempted, 1),
            "identities": self.identities,
            "identity_failures": self.identity_failures,
            "identity_fail_frac": self.identity_failures / max(self.identities, 1),
            "errors": self.errors[:20],
        }


def run_commands(wl, workdir, threads, gate, label, traced=False):
    """One CLI run of the workload: every command in order.

    Returns (wall_s, peak RSS MiB, list of trace files).
    """
    workloads.clear_outputs(wl, workdir)
    wall, rss, traces = 0.0, 0.0, []
    for k, cmd in enumerate(wl.commands):
        if not traced:
            argv = [sys.executable, "-m", "plmkit.cli", *cmd.argv]
        else:
            trace_file = workdir / f"trace{k}.json"
            if trace_file.exists():
                trace_file.unlink()
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_file), "--", *cmd.argv]
            traces.append(trace_file)
        dt, rc, mib, _, stderr = spawn(argv, workdir, threads)
        wall += dt
        rss = max(rss, mib)
        gate.judge(f"{label} `{cmd.argv[0]}`", cmd, rc, stderr, workdir)
    return wall, rss, traces


def probe(argv, workdir, gate, what):
    """Run a measuring child; a failure counts against the gate and gives None."""
    _, rc, _, stdout, stderr = spawn(argv, workdir, NPROC)
    if rc == 0:
        return stdout, stderr
    gate.probe_failures += 1
    gate.errors.append(f"{what} probe: exit code {rc}: {stderr.strip()[-200:]}")
    print(f"  {what} probe FAILED with exit code {rc}")
    return None


def median(xs):
    """Median of the samples; counts stay whole numbers."""
    if not xs:
        return float("nan")
    if all(isinstance(x, int) for x in xs):
        return statistics.median_low(xs)
    return statistics.median(xs)


def run_for(seconds, steps):
    """Run ``(round, kind, step)`` triples in order for about ``seconds``.

    The first round runs whole.  After it, the loop stops before a step
    that would end after ``seconds`` if it took as long as the last step of
    its kind, so a run never measures much longer than asked.
    """
    t0 = time.perf_counter()
    last = {}
    for rnd, kind, step in steps:
        started = time.perf_counter()
        if rnd and started - t0 + last.get(kind, 0.0) > seconds:
            return
        step()
        last[kind] = time.perf_counter() - started


def setup_sample(wl, workdir, gate, into):
    out = probe([sys.executable, "-c", wl.setup_code], workdir, gate, "set-up")
    if out:
        into.append(float(out[0].strip().splitlines()[-1]))


def measure(wl, workdir, seconds, gate):
    """Untraced: alternate nproc and 1-thread CLI runs, each after a set-up probe."""
    samples = {"run_s": [], "run_1t_s": [], "setup_s": [], "peak_rss_mb": []}

    def setup():
        setup_sample(wl, workdir, gate, samples["setup_s"])

    def cli_run(metric, threads, rnd):
        wall, rss, _ = run_commands(wl, workdir, threads, gate, f"round {rnd} ({threads} threads)")
        samples[metric].append(wall)
        if metric == "run_s":
            samples["peak_rss_mb"].append(rss)

    def steps():
        for rnd in itertools.count():
            order = [("run_s", NPROC), ("run_1t_s", 1)]
            for metric, threads in order if rnd % 2 == 0 else order[::-1]:
                yield rnd, "setup", setup
                yield rnd, metric, functools.partial(cli_run, metric, threads, rnd)

    run_for(seconds, steps())
    while len(samples["setup_s"]) < SETUP_SAMPLES and not gate.probe_failures:
        setup_sample(wl, workdir, gate, samples["setup_s"])
    metrics = {
        "run_s": (median(samples["run_s"]), "s"),
        "run_1t_s": (median(samples["run_1t_s"]), "s"),
        "setup_s": (median(samples["setup_s"]), "s"),
        "peak_rss_mb": (median(samples["peak_rss_mb"]), "MiB"),
        "ok_frac": (1.0 - gate.summary()["failed_frac"], "frac"),
    }
    return metrics, samples


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(workdir, gate, into):
    """Cumulative import seconds of plmkit and sympy from ``-X importtime``."""
    out = probe([sys.executable, "-X", "importtime", "-c", "import plmkit"], workdir, gate, "import")
    if out is None:
        return
    secs = {"plmkit": 0.0, "sympy": 0.0}
    for line in out[1].splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) in secs:
            secs[m.group(2)] = int(m.group(1)) / 1e6
    into.append(secs)


# Per-layer metrics read from the traced run: (metric, span, field).
_SELF = ("self_s",)
_SPAN_FIELDS = [
    *((f"multilinear.{fn}", ("self_s", "calls", "sites", "bytes"))
      for fn in ("det_n", "cross_n", "wedge2", "hodge_star", "star_of_wedge", "pair")),
    ("fields.jet_grid", ("self_s", "calls")),
    ("fields.read_grid", ("self_s", "calls", "bytes")),
    ("fields.write_grid", ("self_s", "bytes")),
    *((f"smooth.{fn}", _SELF)
      for fn in ("plm_residual", "orthogonality_report", "det_invariance_report", "reconstruct_field")),
    *((f"hyper.{fn}", _SELF) for fn in ("hyper_plm_residual", "hyper_compat_residual")),
    ("discrete.moutard_evolve", ("self_s", "calls")),
    *((f"discrete.{fn}", _SELF)
      for fn in ("discrete_affine_integrate", "lift_to_projective", "moutard_residual", "discrete_residual",
                 "discrete_det_invariance", "discrete_forms")),
    *((f"affine.{fn}", _SELF) for fn in ("affine_forms", "closure_residual")),
]
LAYERS = [(f"{span}.{fld}", span, fld) for span, fields in _SPAN_FIELDS for fld in fields] + [
    ("scenarios.build_s", "scenarios.scenario", "total_s"),
    ("report.reduce_s", "report.reduce", "total_s"),
    ("report.records", "report.reduce", "calls"),
    ("report.sites", "report.reduce", "sites"),
    ("report.to_json_s", "report.to_json", "total_s"),
    ("cli.pool.wall_s", "cli.pool", "total_s"),
    ("cli.pool.busy_s", "cli.pool.task", "total_s"),
    ("cli.pool.tasks", "cli.pool.task", "calls"),
]
_UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "sites": "count", "bytes": "bytes"}


def layer_unit(span, field):
    # kernel bytes are summed array sizes, not measured memory traffic
    return "bytes_computed" if field == "bytes" and span.startswith("multilinear.") else _UNITS[field]


SPAN_SOLVERS = ("smooth._solve_span", "discrete._span_residual", "hyper._span_distance")


def _merge(trace_files):
    stats = {}
    for path in trace_files:
        with open(path) as fh:
            for name, st in json.load(fh)["stats"].items():
                acc = stats.setdefault(name, dict.fromkeys(st, 0))
                for key, val in st.items():
                    acc[key] += val
    return stats


def _layer_values(stats):
    vals = {metric: stats.get(span, {}).get(fld, 0) for metric, span, fld in LAYERS}
    vals["span.calls"] = sum(stats.get(name, {}).get("calls", 0) for name in SPAN_SOLVERS)
    return vals


def trace(wl, workdir, seconds, gate):
    """Traced: alternate traced and untraced nproc runs, plus import probes."""
    samples = {"traced_s": [], "untraced_s": [], "layers": [], "import": []}

    def imports():
        import_times(workdir, gate, samples["import"])

    def traced(rnd):
        wall, _, files = run_commands(wl, workdir, NPROC, gate, f"round {rnd} (traced)", traced=True)
        samples["traced_s"].append(wall)
        if all(f.exists() for f in files):
            samples["layers"].append(_layer_values(_merge(files)))

    def untraced(rnd):
        wall, _, _ = run_commands(wl, workdir, NPROC, gate, f"round {rnd} (untraced)")
        samples["untraced_s"].append(wall)

    def steps():
        for rnd in itertools.count():
            yield rnd, "import", imports
            yield rnd, "traced", functools.partial(traced, rnd)
            yield rnd, "untraced", functools.partial(untraced, rnd)

    run_for(seconds, steps())
    units = {metric: layer_unit(span, fld) for metric, span, fld in LAYERS}
    units["span.calls"] = "count"
    metrics = {
        "import.plmkit_s": (median([s["plmkit"] for s in samples["import"]]), "s"),
        "import.sympy_s": (median([s["sympy"] for s in samples["import"]]), "s"),
    }
    for metric, unit in units.items():
        metrics[metric] = (median([layer[metric] for layer in samples["layers"]]), unit)
    overhead = median(samples["traced_s"]) / median(samples["untraced_s"]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    summary = gate.summary()
    metrics["failed_frac"] = (summary["failed_frac"], "frac")
    metrics["identity_fail_frac"] = (summary["identity_fail_frac"], "frac")
    return metrics, samples


def _git_sha():
    """HEAD of the checkout when it is a git work tree; read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import sympy

    return {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "threads": {"run_s": NPROC, "run_1t_s": 1, "traced": NPROC},
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="input sizes; tiny is for selfcheck.py")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # Without the sources every CLI run would fail, yet a result would be printed.
    if not (SRC / "plmkit" / "cli.py").is_file():
        print(f"error: no plmkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, args.scale)
    workdir = OUT / args.workload
    workloads.prepare(wl, workdir, args.scale)
    # compile bytecode and warm the file cache before anything is timed
    spawn([sys.executable, "-c", "import plmkit.cli"], workdir, NPROC)

    gate = Gate(wl, args.scale)
    if args.trace:
        metrics, samples = trace(wl, workdir, args.seconds, gate)
    else:
        metrics, samples = measure(wl, workdir, args.seconds, gate)

    counts = {k: len(v) for k, v in samples.items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={counts}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    summary = gate.summary()
    print(f"  failed_frac {summary['failed_frac']:.6g}  identity_fail_frac {summary['identity_fail_frac']:.6g}")

    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    results = {
        "workload": args.workload,
        "environment": environment(args),
        "sample_counts": counts,
        "samples": samples,
        "gate": summary,
        "metrics": reported,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(results, indent=1))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
