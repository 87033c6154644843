"""tools/bench_pairs.py runs each checkout's harness in interleaved,
order-alternating pairs and reports medians, the parent's quartiles, the
relative change, the change's wins, medians worse than their bound and gains
that clear the nine-tenths and IQR rule."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# a stand-in harness: each run reports the next ns_per_cell_step of values.txt
# (peak_rss_mb too), appends the checkout's name to log and the length of
# the BENCH_PAIRS_PAD layout filler to pads
FAKE_RUN = """\
import json, os, pathlib
here = pathlib.Path.cwd()
values = (here / "values.txt").read_text().split()
(here / "values.txt").write_text(" ".join(values[1:]))
with open(here.parent / "log", "a") as log:
    log.write(here.name + "\\n")
with open(here.parent / "pads", "a") as pads:
    pads.write(str(len(os.environ["BENCH_PAIRS_PAD"])) + "\\n")
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


def test_both_runs_of_a_pair_share_a_layout_padding_that_changes_between_pairs(tmp_path,
                                                                                capsys):
    parent = _checkout(tmp_path, "parent", list(range(10, 20)))
    change = _checkout(tmp_path, "change", list(range(10, 20)))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"]) == 0
    pads = [int(n) for n in (tmp_path / "pads").read_text().split()]
    pairs = list(zip(pads[::2], pads[1::2]))
    assert all(first == second for first, second in pairs)
    assert all(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))
    assert [first for first, _ in pairs] == [512 * (k % 8) for k in range(10)]


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


def test_the_summary_ends_with_one_json_line(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", [10, 12])
    change = _checkout(tmp_path, "change", [11, 9])
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "2", "--seconds", "3",
            "--seed", "7"]
    assert bench_pairs.main(argv) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {k: record[k] for k in ("workload", "seed", "pairs", "seconds")} == {
        "workload": "w", "seed": 7, "pairs": 2, "seconds": 3.0}
    # no BENCHMARK.json in the change: lower is better and no bound is set
    assert record["metrics"]["ns_per_cell_step"] == bench_pairs.summarise([10, 12], [11, 9],
                                                                          "lower")
    assert record["metrics"]["ns_per_cell_step"]["wins"] == 1
    assert set(record["metrics"]) == {"ns_per_cell_step", "peak_rss_mb"}


@pytest.mark.parametrize("parent_values, change_values, resolved", [
    ([10, 11] * 5, [8] * 10, True),
    ([10, 11] * 5, [8] * 8 + [12] * 2, False),
    ([10, 14] * 5, [9.5] * 10, False),
], ids=["resolved", "too-few-wins", "gap-inside-the-iqr"])
def test_a_gain_is_resolved_by_nine_tenths_of_wins_and_a_gap_beyond_the_iqr(
        tmp_path, capsys, parent_values, change_values, resolved):
    # resolved: 10 of 10 wins, medians 10.5 -> 8 against an IQR of 1;
    # too few wins: the same gap, 8 of 10; inside the IQR: 10 of 10, but
    # medians 12 -> 9.5 against an IQR of 4
    parent = _checkout(tmp_path, "parent", parent_values)
    change = _checkout(tmp_path, "change", change_values)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out.splitlines()[-1])
    assert record["metrics"]["ns_per_cell_step"]["gain_resolved"] is resolved
    summary = next(ln for ln in out.splitlines() if ln.startswith("  ns_per_cell_step: "))
    assert summary.endswith(", gain resolved") is resolved
