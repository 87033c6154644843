"""The suite's own pytest configuration: its warning filters turn stray
warnings into errors, but must still let a failing property test report
its falsifying example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails_from_five_on(n):
    assert n < 5
"""


def test_a_failing_property_reports_its_example_and_exits_1(tmp_path):
    # hypothesis reports the example from a plugin hook whose imports warn;
    # an error there ends the session with exit 3 and loses the example
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
