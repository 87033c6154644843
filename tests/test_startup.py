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
from kkdamp import errors

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


TINY = """\
name = tiny
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 32
boundary = periodic
t_end = 0.2
n_outputs = 9
init = sine_radial
init.mean = 0.5
init.amplitude = 0.2
"""

# the kkdamp modules each command adds to CLI_BASE; the marches load no
# `quadrature`, and `entropy-pair` loads no `scenario`
COMMAND_MODULES = {
    "eigen": ("eigen --phi power:2 --state 3,4", set()),
    "region-check": ("region-check --phi power:1 --a 0.6 --b 0.2 --c1 0", {"kkdamp.region"}),
    "simulate": ("simulate {tiny} --output-dir {out}", {"kkdamp.scenario", "kkdamp.solver"}),
    # --jobs 1: the marches run in this process, where sys.modules shows them
    "run": ("run {shipped} --jobs 1 --output-dir {out}",
            {"kkdamp.scenario", "kkdamp.solver", "kkdamp.analysis", "kkdamp.region"}),
    "decay": ("decay {tiny} --output-dir {out}",
              {"kkdamp.scenario", "kkdamp.solver", "kkdamp.analysis"}),
    "convergence": ("convergence {tiny} --epsilons 0.1,0.05 --output-dir {out}",
                    {"kkdamp.scenario", "kkdamp.solver", "kkdamp.viscous"}),
    "entropy-pair": ("entropy-pair --m 2 --phi power:1 --r-max 1 --output-dir {out}",
                     {"kkdamp.entropy", "kkdamp.quadrature", "kkdamp.solver"}),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_exactly_the_modules_it_runs(tmp_path, command):
    argv, adds = COMMAND_MODULES[command]
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY)
    shipped = " ".join(sorted(str(p) for p in SCENARIOS.glob("*.cfg")))
    args = argv.format(tiny=tiny, shipped=shipped, out=tmp_path / "out").split()
    loaded = _loaded_after(f"from kkdamp.cli import main\nassert main({args!r}) == 0", tmp_path)
    assert _kkdamp_only(loaded) == CLI_BASE | adds
    assert "concurrent.futures.process" not in loaded


def _kkdamp_imports(node) -> set:
    """The kkdamp modules, by stem, that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        base = "kkdamp." * bool(node.level) + (node.module or "")
        if base.rstrip(".") == "kkdamp":
            return {alias.name for alias in node.names}
        return {base.split(".")[1]} if base.startswith("kkdamp.") else set()
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("kkdamp.")}
    return set()


def test_only_entropy_imports_quadrature_and_none_imports_entropy_up_front():
    # a module that imported `quadrature`, or `entropy` at module level, would
    # compile the QUADPACK port on every command that loads it
    importers, up_front = set(), set()
    for path in sorted((SRC / "kkdamp").glob("*.py")):
        tree = ast.parse(path.read_text())
        if any("quadrature" in _kkdamp_imports(node) for node in ast.walk(tree)):
            importers.add(path.stem)
        if any("entropy" in _kkdamp_imports(node) for node in tree.body):
            up_front.add(path.stem)
    assert importers == {"entropy"}
    assert up_front == set()


def test_every_definition_has_a_user_and_every_error_is_raised():
    """Each top-level function and class, and each public method, of
    `kkdamp` is named in some file under src/, benchmarks/ or tools/ apart
    from its own definition: as a name, an attribute, an import alias or a
    whole string (the benchmark tracer names its targets by string). Each
    `KKDampError` subclass is raised in src/. It is a name-level scan: a
    local variable of the same name hides a definition, as `solver`'s
    local `flux` hid `model.flux`, so it can miss an unused name but never
    fail a used one."""
    defined, named, raised = {}, set(), set()
    for path in sorted(p for d in ("src", "benchmarks", "tools")
                       for p in (SRC.parent / d).rglob("*.py")):
        tree, in_src = ast.parse(path.read_text()), path.parent.name == "kkdamp"
        for node in tree.body if in_src else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined |= {f"{path.stem}.{node.name}.{m.name}": m.name for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name, node.asname}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, ast.Raise) and in_src and node.exc:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    unused = sorted(label for label, name in defined.items() if name not in named)
    assert not unused, f"defined but named nowhere else: {unused}"
    kinds = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.KKDampError)}
    never_raised = sorted(kinds - raised - {"KKDampError"})
    assert not never_raised, f"never raised in src/: {never_raised}"


def test_every_parameter_default_is_overridden_by_some_call():
    """Each parameter default of each function and method of `kkdamp` is
    overridden by some call under src/, benchmarks/ or tools/: by keyword,
    by position, or through *args or **kwargs; a class is called through
    its `__init__`. A default that only tests override is a knob no caller
    needs. Calls are matched by name, like the scan above."""
    calls, knobs = {}, []
    for path in sorted(p for d in ("src", "benchmarks", "tools")
                       for p in (SRC.parent / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
            if path.parent.name != "kkdamp" or not isinstance(node, (ast.Module, ast.ClassDef,
                                                                     ast.FunctionDef)):
                continue
            for fn in (n for n in node.body if isinstance(n, ast.FunctionDef)):
                static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
                pos = (fn.args.posonlyargs + fn.args.args)[isinstance(node, ast.ClassDef)
                                                            and not static:]
                name = node.name if fn.name == "__init__" else fn.name
                knobs += [(name, i, p.arg) for i, p in enumerate(pos)
                          if i >= len(pos) - len(fn.args.defaults)]
                knobs += [(name, None, p.arg) for p, default
                          in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    unturned = sorted(f"{name}({arg})" for name, i, arg in knobs if not any(
        any(isinstance(a, ast.Starred) for a in call.args) or (i is not None and len(call.args) > i)
        or any(k.arg in (arg, None) for k in call.keywords) for call in calls.get(name, ())))
    assert not unturned, f"defaults no call overrides: {unturned}"


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
