"""Smoke check for the benchmark, so the harness cannot rot: runs every
workload at a tiny size, untraced and traced, and fails unless every
metric declared in BENCHMARK.json is emitted as a finite number, every
oracle of the workload ran, and no operation failed.

    python3 benchmarks/smoke.py     # from a checkout root; about a minute
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED_ORACLES = {
    "cli_batch": {"exit_zero", "checks_pass", "artifacts_identical"},
    "march_large": {"damped_mass_drift", "positive_hull", "r_max"},
    "viscous_sweep": {"l1_strictly_decreasing"},
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            out = bench.run(name, seed=1, seconds=0, trace=trace, tiny=True)
            res, where = out["result"], f"{name} trace={trace}"
            metrics = res["metrics"]
            if set(metrics) != declared[trace]:
                problems.append(f"{where}: metrics {sorted(set(metrics) ^ declared[trace])} "
                                "differ from BENCHMARK.json")
            bad = [k for k, v in metrics.items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{where}: non-finite values {bad}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: attempted {res['attempted']} failed {res['failed']}")
            ran = set(out["summary"]["oracles_run"])
            if ran != EXPECTED_ORACLES[name]:
                problems.append(f"{where}: oracles run {sorted(ran)}")
            print(f"{where}: {len(metrics)} metrics, oracles {sorted(ran)}", flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
