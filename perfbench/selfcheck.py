"""Fast self-check of the benchmark on tiny inputs (about a minute).

Usage (from the repository root): python3 perfbench/selfcheck.py

For every workload it runs ``run.py --scale tiny`` untraced and traced and
checks that the run is correct, that every metric BENCHMARK.json names is
emitted with its unit, and that the traced run saw the workload's hot
function called.  Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def fail(msg):
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
    argv += ["--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.NAMES):
        fail("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = run(name, trace)
            if proc.returncode != 0:
                fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name} trace={trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{name} trace={trace}: not correct: {proc.stdout[-1500:]}")
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    fail(f"{name} trace={trace}: metric {m['name']} missing or without unit {m['unit']}: {got}")
            if trace:
                for span in workloads.make(name, 7, "tiny").hot:
                    if not metrics[f"{span}.calls"]["value"] > 0:
                        fail(f"{name}: traced run never called {span}")
            print(f"ok  {name} trace={trace}")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
