"""The artifacts of the shipped scenarios are pinned: their lines that do not
start with '#' hash to the digests in benchmarks/reference_artifacts.json,
and the '#' header lines of each table kind are spelled out here."""

import hashlib
import json
from pathlib import Path

import pytest

from kkdamp.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "benchmarks" / "reference_artifacts.json").read_text())


def _digest_lines(data: bytes) -> str:
    """sha256 over the lines that do not start with '#', the rule of
    benchmarks/workloads._digest_lines."""
    h = hashlib.sha256()
    for line in data.splitlines(keepends=True):
        if not line.startswith(b"#"):
            h.update(line)
    return h.hexdigest()


SHIPPED = sorted(str(p) for p in (ROOT / "scenarios").glob("*.cfg"))


def _assert_written_match(out, expected: list) -> None:
    """The files under `out` are `expected`, each with its reference digest."""
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(expected)
    for rel in written:
        assert _digest_lines((out / rel).read_bytes()) == REFERENCE[rel], rel


@pytest.mark.filterwarnings("ignore:const.1 fails the structure condition:UserWarning")
def test_shipped_artifacts_match_the_reference(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    assert main(["run", *SHIPPED, "--output-dir", str(out)]) == 0  # one worker per CPU
    assert main(["entropy-pair", "--m", "2", "--phi", "power:1", "--r-max", "1",
                 "--output-dir", str(out)]) == 0
    expected = [k for k in REFERENCE if not k.startswith("stdout:")]
    assert len(expected) == 21  # the 20 files of `run` and the entropy table
    _assert_written_match(out, expected)

    def header(rel, n):
        return (out / rel).read_text().splitlines()[:n]

    assert header("riemann_shock/riemann_shock_t1.tsv", 3) == [
        "# run=riemann_shock t=1.00000000000000000e+00 n_cells=512",
        "# phi=power:1 boundary=outflow",
        "# x\tu\tv\tr\tW\tZ",
    ]
    assert header("riemann_shock/riemann_shock_norms.tsv", 1) == [
        "# t\tl1\tl2\tl4\tlinf\tsup_abs_z\tsup_r_ratio",
    ]
    assert header("entropy_pair_m2_power_1.tsv", 2) == [
        "# entropy flux table: eta = r**2, phi = power:1",
        "# r\tq",
    ]


@pytest.mark.filterwarnings("ignore:const.1 fails the structure condition:UserWarning")
def test_shipped_artifacts_marched_serially_match_the_reference(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    out = tmp_path / "out"
    assert main(["run", *SHIPPED, "--jobs", "1", "--output-dir", str(out)]) == 0
    _assert_written_match(out, [k for k in REFERENCE if "/" in k])  # the 20 files of `run`
