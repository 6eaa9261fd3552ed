"""Run one ``plmkit`` CLI command in-process with a span around each layer.

Usage: python3 perfbench/traced.py OUT.json -- <plmkit CLI arguments>

Every traced function is replaced by a timing wrapper in each ``plmkit``
module namespace that holds it, so calls through names bound at import
time (``from .multilinear import det_n``) are seen as well.  Spans are
kept per thread, so self time stays correct under the CLI's worker pool.
The aggregate per span name is written to OUT.json when the command ends;
the process exits with the command's exit code.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

# Functions, by defining module, wrapped in every namespace that binds them.
TRACED = {
    "multilinear": ["det_n", "cross_n", "wedge2", "hodge_star", "star_of_wedge", "pair"],
    "fields": ["jet_grid", "read_grid", "write_grid"],
    "smooth": ["plm_residual", "orthogonality_report", "det_invariance_report", "reconstruct_field", "_solve_span"],
    "hyper": ["hyper_plm_residual", "hyper_compat_residual", "_span_distance"],
    "discrete": [
        "moutard_evolve",
        "discrete_affine_integrate",
        "lift_to_projective",
        "moutard_residual",
        "discrete_residual",
        "discrete_det_invariance",
        "discrete_forms",
        "_span_residual",
    ],
    "affine": ["affine_forms", "closure_residual"],
    "scenarios": ["scenario"],
    "cli": ["main"],
}

# Trailing axes of the result that are not sites, per kernel function.
_KERNEL_TAIL = {"det_n": 0, "pair": 0, "cross_n": 1, "wedge2": 2, "hodge_star": 2, "star_of_wedge": 2}


def _nbytes(obj):
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


class Tracer:
    """In-memory spans: one stack per thread, aggregated by name."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = {}
        self.spans = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name, total, self_s, sites=0, nbytes=0):
        with self._lock:
            st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sites": 0, "bytes": 0})
            st["calls"] += 1
            st["total_s"] += total
            st["self_s"] += self_s
            st["sites"] += sites
            st["bytes"] += nbytes
            self.spans += 1

    def span(self, name, fn, measure=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure(args, kwargs, result)`` returns ``(sites, bytes)``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)  # time covered by child spans
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
            sites, nbytes = measure(args, kwargs, result) if measure else (0, 0)
            tracer._add(name, dt, dt - children, sites, nbytes)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _kernel_measure(tail):
    def measure(args, kwargs, result):
        shape = getattr(result, "shape", ())
        batch = shape[: len(shape) - tail] if tail else shape
        sites = 1
        for n in batch:
            sites *= int(n)
        return sites, _nbytes(args) + _nbytes(result)

    return measure


def _file_measure(path_arg):
    def measure(args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
        try:
            return 0, os.path.getsize(path)
        except (OSError, TypeError):
            return 0, 0

    return measure


def install(tracer):
    """Import plmkit and wrap every traced function wherever it is bound.

    Returns the ``plmkit.cli`` module, whose ``main`` is then traced too.
    """
    import plmkit.cli as cli
    from plmkit import report

    modules = {name: mod for name, mod in sys.modules.items() if name == "plmkit" or name.startswith("plmkit.")}
    measures = {f"multilinear.{fn}": _kernel_measure(tail) for fn, tail in _KERNEL_TAIL.items()}
    measures["fields.read_grid"] = _file_measure(0)
    measures["fields.write_grid"] = _file_measure(1)
    wrapped = {}
    for modname, fnames in TRACED.items():
        mod = modules[f"plmkit.{modname}"]
        for fname in fnames:
            orig = getattr(mod, fname)
            wrapped[id(orig)] = tracer.span(f"{modname}.{fname}", orig, measures.get(f"{modname}.{fname}"))
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and callable(val):
                setattr(mod, attr, wrapped[id(val)])

    rec_cls = report.IdentityRecord
    from_field = rec_cls.__dict__["from_field"].__func__
    rec_cls.from_field = classmethod(
        tracer.span(
            "report.reduce",
            from_field,
            lambda args, kwargs, result: (int(getattr(args[2], "size", 1)) if len(args) > 2 else 0, 0),
        )
    )
    rep_cls = report.InvariantReport
    rep_cls.to_json = tracer.span("report.to_json", rep_cls.to_json)

    base_pool = cli.ThreadPoolExecutor

    class TimedPool(base_pool):
        def __enter__(self):
            self._t0 = time.perf_counter()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                dt = time.perf_counter() - self._t0
                tracer._add("cli.pool", dt, dt)

    cli.ThreadPoolExecutor = TimedPool
    collect = cli._collect_tasks

    def timed_tasks(*args, **kwargs):
        return [(name, tracer.span("cli.pool.task", thunk)) for name, thunk in collect(*args, **kwargs)]

    cli._collect_tasks = timed_tasks
    return cli


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <plmkit CLI arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer()
    rc = install(tracer).main(cli_args)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "stats": tracer.stats}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
