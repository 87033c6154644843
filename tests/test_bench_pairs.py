"""tools/bench_pairs.py runs each checkout's harness in interleaved,
order-alternating pairs and reports medians, the parent's quartiles, the
relative change, the change's wins and medians worse than their bound."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# a stand-in harness: each run reports the next ns_per_cell_step of values.txt
# (peak_rss_mb too) and appends the checkout's name to log
FAKE_RUN = """\
import json, pathlib
here = pathlib.Path.cwd()
values = (here / "values.txt").read_text().split()
(here / "values.txt").write_text(" ".join(values[1:]))
with open(here.parent / "log", "a") as log:
    log.write(here.name + "\\n")
metrics = {"ns_per_cell_step": float(values[0]), "peak_rss_mb": float(values[0])}
print("{}")
print(json.dumps({"correct": values[0] != "0", "attempted": 1, "failed": int(values[0] == "0"),
                  "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}))
"""


def _checkout(root, name, values):
    (root / name / "benchmarks").mkdir(parents=True)
    (root / name / "benchmarks" / "run.py").write_text(FAKE_RUN)
    (root / name / "values.txt").write_text(" ".join(map(str, values)))
    return root / name


def test_pairs_alternate_and_count_wins(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", [20, 22, 21, 30])
    change = _checkout(tmp_path, "change", [17, 23, 18, 16])
    better = [{"name": "ns_per_cell_step", "better": "lower"},
              {"name": "peak_rss_mb", "better": "higher"}]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": better}))
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    assert (tmp_path / "log").read_text().split() == ["parent", "change", "change", "parent"] * 2
    out = capsys.readouterr().out
    assert "ns_per_cell_step: 21.5 (IQR 20.25-28) -> 17.5 (-18.6%), better in 3 of 4\n" in out
    # where higher is better the same values win only the second pair
    assert "peak_rss_mb: 21.5 (IQR 20.25-28) -> 17.5 (-18.6%), better in 1 of 4\n" in out


def test_a_median_worse_than_its_bound_is_flagged(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", [10, 10])
    change = _checkout(tmp_path, "change", [12, 13])
    rules = [{"name": "ns_per_cell_step", "better": "lower", "bound": 0.25},
             {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": rules}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    # a median worse by exactly its bound passes, as the bound allows it
    assert "ns_per_cell_step: 10 (IQR 10-10) -> 12.5 (+25.0%), better in 0 of 2\n" in out
    assert "peak_rss_mb: 10 (IQR 10-10) -> 12.5 (+25.0%), better in 0 of 2, " \
        "worse beyond bound\n" in out


def test_a_failed_run_stops_with_exit_1(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", [20, 0])
    change = _checkout(tmp_path, "change", [17, 18])
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 1
    assert "parent: 1 of 1 operations failed" in capsys.readouterr().err
