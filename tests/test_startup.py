"""Start-up cost: scipy is imported only by the functions that call it, so
the CLI and the commands that never need it run with numpy alone, and each
command loads only the kkdamp modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kkdamp

SRC = Path(kkdamp.__file__).resolve().parent.parent
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _fresh_python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("KKD_OUTPUT_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_cli_leaves_scipy_out(tmp_path):
    proc = _fresh_python(
        "import sys\n"
        "import kkdamp.cli, kkdamp.scenario, kkdamp.viscous\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eigen_region_check_and_shipped_scenarios_never_import_scipy(tmp_path):
    cfgs = sorted(str(p) for p in SCENARIOS.glob("*.cfg"))
    assert len(cfgs) >= 7
    proc = _fresh_python(
        "import sys\n"
        "from kkdamp.cli import main\n"
        "codes = [\n"
        "    main(['eigen', '--phi', 'power:2', '--state', '3,4']),\n"
        "    main(['region-check', '--phi', 'power:1', '--a', '0.6', '--b', '0.2', '--c1', '0']),\n"
        # --jobs 1: the marches run in this process, where sys.modules shows them
        f"    main(['run', *{cfgs!r}, '--jobs', '1', '--output-dir', {str(tmp_path / 'out')!r}]),\n"
        "]\n"
        "print(codes, 'scipy' in sys.modules)\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.parametrize("phi", ["power:1", "shifted:0.5,1", "const:2"])
def test_entropy_pair_loads_no_scipy(tmp_path, phi):
    # the moment's quadrature and spline are kkdamp's own
    proc = _fresh_python(
        "import sys\n"
        "from kkdamp.cli import main\n"
        f"code = main(['entropy-pair', '--m', '2', '--phi', {phi!r}, '--r-max', '1',\n"
        f"             '--output-dir', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_the_remaining_scipy_imports_are_brentq_and_pchip():
    # every scipy import in the package, by module: a new one on a command
    # path would undo the start-up gains above
    found = set()
    for path in sorted((SRC / "kkdamp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found |= {(path.stem, node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {(path.stem, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "scipy"}
    assert found == {
        ("model", "scipy.optimize", "brentq"),
        ("analysis", "scipy.optimize", "brentq"),
        ("model", "scipy.interpolate", "PchipInterpolator"),
    }


def _loaded_after(code: str, cwd) -> set:
    """The kkdamp and concurrent.futures modules a fresh process holds after
    running `code`."""
    proc = _fresh_python(
        "import json, sys\n" + code + "\n"
        "print(json.dumps([m for m in sys.modules if m.startswith(('kkdamp', 'concurrent'))]))\n",
        cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


CLI_BASE = {"kkdamp", "kkdamp.errors", "kkdamp.model", "kkdamp.cli"}


def _kkdamp_only(modules: set) -> set:
    return {m for m in modules if m.startswith("kkdamp")}


def test_eigen_loads_only_the_model(tmp_path):
    loaded = _loaded_after(
        "from kkdamp.cli import main\nmain(['eigen', '--phi', 'power:2', '--state', '3,4'])",
        tmp_path,
    )
    assert _kkdamp_only(loaded) == CLI_BASE
    assert "concurrent.futures.process" not in loaded


def test_region_check_adds_only_region(tmp_path):
    loaded = _loaded_after(
        "from kkdamp.cli import main\n"
        "main(['region-check', '--phi', 'power:1', '--a', '0.6', '--b', '0.2', '--c1', '0'])",
        tmp_path,
    )
    assert _kkdamp_only(loaded) == CLI_BASE | {"kkdamp.region"}


def test_importing_the_scenario_module_leaves_the_checks_out(tmp_path):
    loaded = _loaded_after("import kkdamp.scenario", tmp_path)
    assert "kkdamp.solver" in loaded
    assert not loaded & {"kkdamp.analysis", "kkdamp.region", "kkdamp.entropy",
                         "kkdamp.viscous"}


def test_a_serial_run_leaves_the_process_pool_out(tmp_path):
    # one scenario, or --jobs 1 over several, marches in this process
    cfgs = sorted(str(p) for p in SCENARIOS.glob("*.cfg"))[:2]
    for argv in ([cfgs[0]], [*cfgs, "--jobs", "1"]):
        loaded = _loaded_after(
            "from kkdamp.cli import main\n"
            f"assert main(['run', *{argv!r}, '--output-dir', {str(tmp_path / 'out')!r}]) == 0",
            tmp_path,
        )
        assert "kkdamp.scenario" in loaded
        assert "concurrent.futures.process" not in loaded, argv
