"""Compare two kkdamp checkouts with the benchmark harness, in interleaved pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload march_large --pairs 10 --seconds 10

Each pair runs `python3 benchmarks/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from that checkout's root and with its
own harness, unchanged. Odd pairs run PARENT first and even pairs CHANGE
first, so drift in the machine's speed falls on both sides alike. Pair k
runs both sides with the environment variable BENCH_PAIRS_PAD set to
512 * (k % 8) filler bytes: nothing reads it, but it shifts where the
process lays out its stack and environment, so a metric that moves with
that layout alone varies within each side instead of splitting them. The
padding is always on and has no option. For each
end-to-end metric the script prints both sides' medians, PARENT's
quartiles, the relative change of the medians and how many pairs CHANGE
won (ties count for neither side). Which direction is better, and the
bound on a metric's relative worsening, come from CHANGE's BENCHMARK.json;
a metric whose median worsens by more than its bound is flagged `worse
beyond bound`, and one flagged `gain resolved` when CHANGE won at least
nine tenths of the pairs and its median beats PARENT's by more than
PARENT's q3 - q1, the rule a claimed gain must meet. After that summary
the script prints one JSON line: the workload, seed, pairs and seconds,
and under "metrics" each metric's `summarise` fields. A run that exits
non-zero or reports `"correct": false` stops the script with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, pad: int) -> dict:
    """The metric values of one untraced harness run in checkout, with
    BENCH_PAIRS_PAD set to pad filler bytes."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "BENCH_PAIRS_PAD": "x" * pad}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: harness exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} "
                           "operations failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(parent: list, change: list, better: str, bound: float | None = None) -> dict:
    """Medians, PARENT's quartiles, the relative change of the medians and
    CHANGE's wins over paired runs of one metric; better is "lower" or
    "higher". worse_beyond_bound says whether CHANGE's median is worse than
    PARENT's by more than bound, a fraction of PARENT's median.
    gain_resolved says whether CHANGE won at least nine tenths of the pairs
    and its median beats PARENT's by more than PARENT's q3 - q1."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    relative = (change_median - med) / abs(med) if med else 0.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
    return {
        "parent_median": med,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "relative": relative,
        "worse_beyond_bound": bound is not None and sign * relative > bound,
        "wins": wins,
        "pairs": len(parent),
        "gain_resolved": 10 * wins >= 9 * len(parent) and sign * (med - change_median) > q3 - q1,
    }


def rules(checkout: Path) -> dict:
    """metric name -> (better, bound): "lower" or "higher", and the bound
    on relative worsening (None where none is set), from the checkout's
    BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: (m["better"], m.get("bound"))
            for m in json.loads(path.read_text())["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict = {"parent": [], "change": []}
    try:
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds,
                                           pad=512 * (k % 8)))
            line = "  ".join(f"{m} {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
                             for m in runs["change"][-1])
            print(f"pair {k + 1}: {line}", flush=True)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rule = rules(args.change)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs:")
    summaries = {}
    for metric in runs["change"][0]:
        s = summaries[metric] = summarise(
            [r[metric] for r in runs["parent"]], [r[metric] for r in runs["change"]],
            *rule.get(metric, ("lower", None)))
        flag = (", worse beyond bound" if s["worse_beyond_bound"] else "") + (
            ", gain resolved" if s["gain_resolved"] else "")
        print(f"  {metric}: {s['parent_median']:.4g} (IQR {s['parent_q1']:.4g}-"
              f"{s['parent_q3']:.4g}) -> {s['change_median']:.4g} ({s['relative']:+.1%}), "
              f"better in {s['wins']} of {s['pairs']}{flag}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "seconds": args.seconds, "metrics": summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
