import argparse
import contextlib
import io
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kkdamp
from kkdamp.cli import build_parser, main

SMALL = """\
name = {name}
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 64
boundary = periodic
t_end = 0.4
n_outputs = 9
init = sine_radial
init.mean = 0.5
init.amplitude = 0.2
check.decay = on
check.invariants = on
snapshots = final
"""


def write_scenario(tmp_path, name="cli_demo", text=None):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text if text is not None else SMALL.format(name=name))
    return path


def _count_marches(monkeypatch) -> list:
    """A list that each march of `run` or of the viscosity sweep appends to."""
    from kkdamp import scenario, viscous

    marches = []
    for module in (scenario, viscous):
        monkeypatch.setattr(module, "simulate",
                            lambda *a, _fn=module.simulate: marches.append(a) or _fn(*a))
    return marches


def test_usage_errors_exit_2(capsys):
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2
    assert main(["entropy-pair"]) == 2  # missing required options


def test_run_single_scenario(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    path = write_scenario(tmp_path)
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli_demo: pass" in out
    assert (tmp_path / "out" / "cli_demo" / "cli_demo_manifest.txt").exists()


def test_run_respects_env_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KKD_OUTPUT_DIR", str(tmp_path / "env_root"))
    path = write_scenario(tmp_path)
    code = main(["run", str(path), "--output-dir", str(tmp_path / "flag_root")])
    assert code == 0
    assert (tmp_path / "env_root" / "cli_demo").exists()
    assert not (tmp_path / "flag_root" / "cli_demo").exists()


@pytest.mark.parametrize(
    "extra, code, error",
    [("", 0, ""), ("cfl = 1e-8\n", 1, "error: cfl: dt = ")],
    ids=["pass", "march-error-in-a-worker"],
)
def test_run_parallel_jobs(tmp_path, capsys, monkeypatch, extra, code, error):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    p1 = write_scenario(tmp_path, "job_one", SMALL.format(name="job_one"))
    p2 = write_scenario(tmp_path, "job_two", SMALL.format(name="job_two") + extra)
    assert main(
        ["run", str(p1), str(p2), "--jobs", "2", "--output-dir", str(tmp_path / "out")]
    ) == code
    # a typed error raised in a worker crosses back and is reported on one line
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == (1 if error else 0)
    assert (tmp_path / "out" / "job_one").exists()
    assert (tmp_path / "out" / "job_two").exists()


@pytest.mark.parametrize("jobs", [["--jobs", "1"], []], ids=["serial", "default"])
@pytest.mark.parametrize("names", [("one", "err", "two"), ("err", "one", "two")])
def test_a_march_error_stops_no_other_march(tmp_path, capsys, jobs, names):
    # every scenario is marched; the finished ones' verdict lines come in
    # scenario order, then one line for the error
    paths = [str(write_scenario(tmp_path, n, SMALL.format(name=n)
                                + ("cfl = 1e-8\n" if n == "err" else ""))) for n in names]
    assert main(["run", *paths, *jobs, "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.partition(":")[0] for line in lines] == ["one", "two"]
    assert all(": pass" in line for line in lines)
    assert captured.err.startswith("error: cfl: dt = ") and captured.err.count("\n") == 1
    for n in ("one", "two"):
        assert (tmp_path / "out" / n / f"{n}_manifest.txt").exists()


@pytest.mark.filterwarnings("default:const.1 fails the structure condition:UserWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_prints_a_warning_as_one_line(tmp_path, capfd, jobs):
    # with --jobs 2 a worker process raises and prints the warning
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "scalar_transport.cfg"
    paths = [str(shipped), str(write_scenario(tmp_path))]
    assert main(["run", *paths, "--jobs", jobs, "--output-dir", str(tmp_path / "out")]) == 0
    err = capfd.readouterr().err
    assert err.count("warning: const:1 fails the structure condition") == 1
    assert err.count("\n") == 1 and "kkdamp/" not in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs
    the scenarios in this process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, workers", [("64", 2), ("2", 2)])
def test_run_jobs_starts_no_more_workers_than_scenarios(tmp_path, capsys, monkeypatch,
                                                        jobs, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    paths = [str(write_scenario(tmp_path, n, SMALL.format(name=n))) for n in ("one", "two")]
    code = main(["run", *paths, "--jobs", jobs, "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert _RecordingPool.workers == [workers]
    assert "one: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "affinity, cpu_count, names, workers",
    [(4, 8, "ab", [2]), (1, 8, "ab", []), (None, 3, "abcd", [3]), (None, None, "abcd", [])],
    ids=["four-cpus", "one-cpu", "no-affinity", "cpu-count-unknown"],
)
def test_run_starts_one_worker_per_usable_cpu_by_default(tmp_path, capsys, monkeypatch,
                                                         affinity, cpu_count, names, workers):
    # the CPUs this process may use, else all of the machine's, else one
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    if affinity is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    paths = [str(write_scenario(tmp_path, n, SMALL.format(name=n))) for n in names]
    assert main(["run", *paths, "--output-dir", str(tmp_path / "out")]) == 0
    assert _RecordingPool.workers == workers
    assert capsys.readouterr().out.count(": pass") == len(names)


_PYTEST_PID = os.getpid()


def _die_in_a_worker(s):
    """Stands in for `cli._run_verdict`: a worker that is killed, as by the
    OOM killer. Module-level, so it pickles by reference."""
    assert os.getpid() != _PYTEST_PID, "must run in a worker process"
    os.kill(os.getpid(), signal.SIGKILL)


def test_run_reports_a_worker_that_died_on_one_line(tmp_path, capsys, monkeypatch):
    import kkdamp.cli

    monkeypatch.setattr(kkdamp.cli, "_run_verdict", _die_in_a_worker)
    paths = [str(write_scenario(tmp_path, n, SMALL.format(name=n))) for n in ("one", "two")]
    assert main(["run", *paths, "--jobs", "2", "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a worker process died")
    assert "--jobs 1 marches in this process" in captured.err
    assert captured.err.count("\n") == 1


def test_run_jobs_marches_the_parents_set_ups(tmp_path, capsys, monkeypatch):
    # workers take the set-ups the parent built: one set-up per scenario
    import concurrent.futures

    import kkdamp.scenario

    calls = []
    real = kkdamp.scenario.set_up

    def counting_set_up(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(kkdamp.scenario, "set_up", counting_set_up)
    paths = [str(write_scenario(tmp_path, n, SMALL.format(name=n))) for n in ("a", "b")]
    assert main(["run", *paths, "--jobs", "2", "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == ["a", "b"]
    assert capsys.readouterr().out.count(": pass") == 2


def test_run_reports_failing_check(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    # claim a decay rate the data cannot deliver by damping far slower
    text = SMALL.format(name="failing") + "check.containment = on\ncheck.containment.c0 = 0.01\n"
    path = write_scenario(tmp_path, "failing", text)
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_simulate_skips_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    text = SMALL.format(name="simonly") + "check.containment = on\ncheck.containment.c0 = 0.01\n"
    path = write_scenario(tmp_path, "simonly", text)
    code = main(["simulate", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0  # the impossible check is not evaluated


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("name = broken\nmystery_key = 3\n")
    code = main(["run", str(path)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_decay_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    path = write_scenario(tmp_path)
    code = main(
        ["decay", str(path), "--p", "2", "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted_rate" in out and "passed = True" in out


@pytest.mark.parametrize("weighted", [[], ["--weighted"]], ids=["plain", "weighted"])
def test_decay_runs_no_scenario_check_and_fits_once(tmp_path, capsys, monkeypatch, weighted):
    # SMALL enables check.decay and check.invariants; add containment too
    from kkdamp import analysis, region
    from kkdamp.model import PhiModel

    calls = {"from_spec": 0}
    from_spec = PhiModel.from_spec

    def counted_from_spec(cls, *a, **k):
        calls["from_spec"] += 1
        return from_spec(*a, **k)

    monkeypatch.setattr(PhiModel, "from_spec", classmethod(counted_from_spec))
    for module, name in ((analysis, "decay_harness"), (region, "trajectory_containment"),
                         (analysis, "riemann_invariant_diagnostics")):
        calls[name] = 0

        def counted(*a, _fn=getattr(module, name), _name=name, **k):
            calls[_name] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(module, name, counted)
    text = SMALL.format(name="counted") + "check.containment = on\n"
    path = write_scenario(tmp_path, "counted", text)
    code = main(["decay", str(path), "--p", "2", *weighted, "--output-dir", str(tmp_path / "out")])
    assert code == 0
    # one phi model: the weighted fit takes the one the run was set up with
    assert calls == {"from_spec": 1, "decay_harness": 1, "trajectory_containment": 0,
                     "riemann_invariant_diagnostics": 0}
    manifest = (tmp_path / "out" / "counted" / "counted_manifest.txt").read_text()
    assert "check." not in manifest


def test_run_weighted_decay_check_matches_the_decay_command(tmp_path, capsys):
    text = SMALL.format(name="weighted") + "check.decay.weighted = on\n"
    path = write_scenario(tmp_path, "weighted", text)
    out_root = str(tmp_path / "out")
    assert main(["decay", str(path), "--p", "2", "--weighted", "--output-dir", out_root]) == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("theorem_rate")]
    assert main(["run", str(path), "--output-dir", out_root]) == 0
    manifest = (tmp_path / "out" / "weighted" / "weighted_manifest.txt").read_text()
    recorded = [ln for ln in manifest.splitlines() if ln.startswith("check.decay.theorem_rate")]
    assert len(printed) == len(recorded) == 1
    assert recorded[0] == "check.decay." + printed[0]


def test_decay_refuses_a_nan_p(tmp_path, capsys):
    code = main(["decay", str(write_scenario(tmp_path)), "--p", "nan",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: p must be >= 1 or inf, got nan\n"


def test_eigen_subcommand(capsys):
    code = main(["eigen", "--phi", "power:1", "--state", "3,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_1 = 5.00000000000000000e+00" in out
    assert "lambda_2 = 1.00000000000000000e+01" in out
    assert "genuinely_nonlinear" in out and "linearly_degenerate" in out


def test_eigen_nan_state_exits_1_with_one_error_line(capsys):
    assert main(["eigen", "--phi", "power:1", "--state", "nan,1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_eigen_at_a_state_whose_phi_overflows_exits_1_with_one_error_line(tmp_path):
    # a fresh process, so that a numpy overflow warning would print as a user sees it
    proc = _cli_process(["eigen", "--phi", "power:400", "--state", "6,6"], tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: phi or lambda_2 is not finite at state radius 8.48528 "
                           "(power:400)\n")
    # phi underflows to 0 there, which is finite
    proc = _cli_process(["eigen", "--phi", "power:400", "--state", "0.1,0.1"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "lambda_2 = 0.00000000000000000e+00" in proc.stdout


def test_eigen_bad_state_exits_2(capsys):
    assert main(["eigen", "--phi", "power:1", "--state", "3;4"]) == 2


def test_entropy_pair_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    out_file = tmp_path / "pair.tsv"
    code = main(
        ["entropy-pair", "--m", "2", "--phi", "power:1", "--r-max", "2", "--n", "201",
         "--out", str(out_file)]
    )
    assert code == 0
    data = np.loadtxt(out_file, comments="#")
    assert data.shape == (201, 2)
    # row 100 is r = 1 exactly: q = 4/3 for eta = r^2, phi = r
    assert data[100, 0] == pytest.approx(1.0, abs=1e-15)
    assert data[100, 1] == pytest.approx(4.0 / 3.0, abs=1e-9)


@pytest.mark.filterwarnings("default:sup phi <= 0 makes the bound vacuous:UserWarning")
@pytest.mark.parametrize("phi, r_max", [("power:1", "1e-300"), ("const:0", "10")],
                         ids=["underflowing-r-max", "zero-phi"])
def test_entropy_pair_flux_bound_counts_zero_over_zero_as_held(tmp_path, capsys, phi, r_max):
    code = main(["entropy-pair", "--m", "2", "--phi", phi, "--r-max", r_max,
                 "--out", str(tmp_path / "pair.tsv")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("-> ok")


def test_entropy_pair_default_output_under_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KKD_OUTPUT_DIR", str(tmp_path / "root"))
    code = main(["entropy-pair", "--m", "1.5", "--phi", "shifted:1,1"])
    assert code == 0
    assert (tmp_path / "root" / "entropy_pair_m1.5_shifted_1_1.tsv").exists()


def test_entropy_pair_refuses_a_nan_r_max_for_a_table(tmp_path, capsys):
    table = tmp_path / "phi.txt"
    rs = np.linspace(0.0, 4.0, 9)
    np.savetxt(table, np.column_stack((rs, 0.5 + rs)))
    code = main(["entropy-pair", "--m", "2", "--phi", f"tabulated:{table}", "--r-max", "nan",
                 "--out", str(tmp_path / "pair.tsv")])
    assert code == 1
    assert capsys.readouterr().err == "error: r_max must be positive and finite, got nan\n"
    assert not (tmp_path / "pair.tsv").exists()


def _cli_process(args, cwd, **kwargs):
    """Run `python -m kkdamp.cli *args` in a fresh process that imports this
    checkout's kkdamp; stdout and stderr are captured as text."""
    env = dict(os.environ)
    src = str(Path(kkdamp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kkdamp.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("r_max", ["1e90", "1e103"])
def test_entropy_pair_at_an_overflowing_r_max_exits_1_without_a_traceback(tmp_path, r_max):
    # a fresh process: in-process, pytest turns the overflow RuntimeWarning into an error
    proc = _cli_process(["entropy-pair", "--m", "2", "--phi", "power:1", "--r-max", r_max,
                         "--out", tmp_path / "pair.tsv"], tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(f"error: cumulative integral on [0, r_max = {float(r_max):g}]: ")


def test_a_multi_line_warning_prints_as_one_line(tmp_path):
    # the quadrature's IntegrationWarning message (quad's text) spans three
    # lines; a fresh process, since in-process pytest turns the warning into
    # an error
    proc = _cli_process(["entropy-pair", "--m", "2", "--phi", "power:1", "--r-max", "1e103",
                         "--out", tmp_path / "pair.tsv"], tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert any(ln.startswith("warning: ") for ln in lines)
    assert all(ln.startswith(("warning: ", "error: ")) for ln in lines), proc.stderr


def test_entropy_pair_flux_bound_over_an_underflowing_cap_prints_no_warning(tmp_path):
    # r**1e4 underflows, so the cap 2 m M r**m is subnormal or 0 where q holds
    # spline noise: the ratio overflows to inf without a numpy warning (a
    # fresh process, so that one would print as it does for a user)
    proc = _cli_process(["entropy-pair", "--m", "1e4", "--phi", "power:1", "--r-max", "1",
                         "--out", tmp_path / "pair.tsv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines()[-1] == ("flux bound |q| <= 2 m M r^m: max ratio inf "
                                            "(M = 1) -> VIOLATED")


@pytest.mark.parametrize("m, r_max, message", [
    ("3e6", "1", "error: power entropy m=3e+06, power:1: q(1) = 3e+06 breaks |q(r)| <= "
     "r**m sup |lambda_2| = 2; the moment's quadrature is wrong there"),
    ("1e8", "1", "error: power entropy m=1e+08, power:1: q(1) = 1e+08 breaks |q(r)| <= "
     "r**m sup |lambda_2| = 2; the moment's quadrature is wrong there"),
    ("1e160", "1", "error: power entropy needs a finite m (m - 1), got m = 1e+160"),
    ("1000", "10", "error: power entropy m=1000: s**(m - 1) overflows on [0, r_max = 10]"),
    ("307", "10", "error: cumulative integral on [0, r_max = 10]: no spline: coefficients "
     "are not finite"),
], ids=["peak-between-nodes", "moment-of-zero", "m-squared-overflows", "s-power-overflows",
        "spline-coefficients-overflow"])
def test_entropy_pair_refuses_an_m_it_cannot_integrate_with_one_line(tmp_path, m, r_max,
                                                                     message):
    # a fresh process, so that a numpy warning would print as it does for a user
    # (the exact q(1) is 2m/(m+1), about 2)
    proc = _cli_process(["entropy-pair", "--m", m, "--phi", "power:1", "--r-max", r_max,
                         "--output-dir", tmp_path / "out"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")
    assert not (tmp_path / "out").exists()


def test_region_check_flags_lower_edge(capsys):
    code = main(["region-check", "--phi", "power:1", "--a", "0.6", "--b", "0.2"])
    assert code == 1  # default region has C1 = 0.5 > 0: outward
    out = capsys.readouterr().out
    assert "Z=C1: OUTWARD" in out
    assert "lower edge" in out

    code = main(
        ["region-check", "--phi", "power:1", "--a", "0.6", "--b", "0.2", "--skip-lower"]
    )
    assert code == 0

    code = main(
        ["region-check", "--phi", "power:1", "--a", "0.6", "--b", "0.2", "--c1", "0"]
    )
    assert code == 0
    assert "Z=C1: inward" in capsys.readouterr().out


def test_region_check_at_a_zero_c0_exits_1(capsys):
    code = main(["region-check", "--a", "0.6", "--b", "0.2", "--c0", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: level radius for C0=0.0 degenerates to r = 0\n"


def test_region_check_equal_damping_errors(capsys):
    code = main(["region-check", "--phi", "power:1", "--a", "0.3", "--b", "0.3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_convergence_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    text = """\
name = sweep_demo
phi = power:1
a = 0.3
b = 0.1
x_lo = -2.0
x_hi = 4.0
n_cells = 128
boundary = outflow
t_end = 0.2
init = riemann_step
init.u_left = 0.7
init.v_left = 0.7
init.u_right = 0.28
init.v_right = 0.28
init.x_jump = 0.0
"""
    path = write_scenario(tmp_path, "sweep_demo", text)
    code = main(
        ["convergence", str(path), "--epsilons", "0.06,0.03,0.015",
         "--output-dir", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strictly_decreasing = True" in out
    sweep = tmp_path / "out" / "sweep_demo" / "sweep_demo_viscosity_sweep.tsv"
    lines = sweep.read_text().splitlines()
    assert lines[0] == "# eps\tl1_distance\tn_steps"
    assert [float(line.split("\t")[0]) for line in lines[1:]] == [0.06, 0.03, 0.015]
    # n_steps is an integer column, written without a decimal point
    assert all(line.split("\t")[2].isdigit() for line in lines[1:])


def test_convergence_skips_the_scenarios_checks(tmp_path, capsys):
    # a check value that `run` refuses does not stop a sweep that runs no check
    text = SMALL.format(name="sweep") + "check.containment = on\ncheck.containment.c1 = 5\n"
    path = write_scenario(tmp_path, "sweep", text)
    main(["convergence", str(path), "--epsilons", "0.06,0.03", "--output-dir",
          str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert err == "" and "strictly_decreasing" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "kkdamp" in capsys.readouterr().out


def test_shipped_scenarios_parse():
    from pathlib import Path

    from kkdamp.scenario import parse_scenario

    here = Path(__file__).resolve().parent.parent / "scenarios"
    cfgs = sorted(here.glob("*.cfg"))
    assert len(cfgs) >= 6
    for cfg in cfgs:
        sc = parse_scenario(cfg)
        sc.phi_model()
        sc.damping()
        sc.grid()
        sc.solver_config()


def _run_text(tmp_path, capsys, name, text):
    """Run one scenario through the CLI; return (exit code, stderr)."""
    path = write_scenario(tmp_path, name, text)
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_missing_init_file_is_a_parse_error(tmp_path, capsys):
    text = SMALL.format(name="resume").replace(
        "init = sine_radial", f"init = from_file\ninit.file = {tmp_path / 'nowhere.tsv'}"
    )
    code, err = _run_text(tmp_path, capsys, "resume", text)
    assert code == 1
    # init.file is on line 12, its value starts in column 13
    assert err.startswith(f"error: {tmp_path / 'resume.cfg'}: line 12, col 13: init.file: "
                          "cannot read")
    assert "nowhere.tsv" in err and "Traceback" not in err


def test_missing_tabulated_phi_file_is_a_parse_error(tmp_path, capsys):
    text = SMALL.format(name="tab").replace(
        "phi = power:1", f"phi = tabulated:{tmp_path / 'no_table.txt'}"
    )
    code, err = _run_text(tmp_path, capsys, "tab", text)
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'tab.cfg'}: line 2, col 7: phi: "
                          "cannot read phi table")
    assert "no_table.txt" in err and "Traceback" not in err


@pytest.mark.parametrize("table_text", ["", "# r phi\n# nothing tabulated\n"],
                         ids=["empty", "comments-only"])
@pytest.mark.parametrize(
    "argv",
    ["eigen --phi tabulated:{table} --state 1,1",
     "region-check --phi tabulated:{table} --a 0.6 --b 0.2",
     "run {cfg} --output-dir {out}"],
    ids=["eigen", "region-check", "scenario"],
)
def test_a_phi_table_without_data_is_refused_with_one_error_line(tmp_path, capsys, argv,
                                                                 table_text):
    table = tmp_path / "table.txt"
    table.write_text(table_text)
    cfg = write_scenario(tmp_path, "tab", SMALL.format(name="tab").replace(
        "phi = power:1", f"phi = tabulated:{table}"))
    assert main(argv.format(table=table, cfg=cfg, out=tmp_path / "out").split()) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith(f"{table}: expected two columns (r, phi)\n") and out == ""


def test_unknown_phi_family_is_a_parse_error_at_the_phi_value(tmp_path, capsys):
    text = SMALL.format(name="fam").replace("phi = power:1", "phi = vortex:2")
    code, err = _run_text(tmp_path, capsys, "fam", text)
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'fam.cfg'}: line 2, col 7: phi: "
                          "unknown phi family 'vortex'")


@pytest.mark.parametrize(
    "line, message",
    [("scheme = lax_friedrichs", "scheme lax_friedrichs was retired; scheme must be 'rusanov'"),
     ("splitting = lie", "splitting lie was retired; splitting must be 'strang'")],
    ids=["lax-friedrichs", "lie"],
)
def test_a_retired_scheme_or_splitting_is_refused(tmp_path, capsys, line, message):
    text = SMALL.format(name="retired") + line + "\n"
    code, err = _run_text(tmp_path, capsys, "retired", text)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "retired").exists()


@pytest.mark.parametrize(
    "schedule, message",
    [("output_times = 0.1, 0.2", "output_times must end at t_end = 0.4, got 0.2"),
     ("n_outputs = 9\noutput_times = 0.2, 0.4",
      "output_times: set n_outputs or output_times, not both")],
    ids=["ends-before-t_end", "both-keys"],
)
def test_a_schedule_that_disagrees_with_itself_is_refused(tmp_path, capsys, schedule, message):
    # an early end would march short of t_end, and n_outputs would be dropped
    text = SMALL.format(name="schedule").replace("n_outputs = 9", schedule)
    code, err = _run_text(tmp_path, capsys, "schedule", text)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "schedule").exists()


def test_output_times_sharing_a_snapshot_name_are_refused(tmp_path, capsys):
    text = (
        SMALL.format(name="clash")
        .replace("n_outputs = 9\n", "output_times = 0.2, 1.0000001, 1.0000002\n")
        .replace("t_end = 0.4", "t_end = 1.0000002")
        .replace("snapshots = final", "snapshots = all")
        .replace("check.decay = on\ncheck.invariants = on\n", "")
    )
    code, err = _run_text(tmp_path, capsys, "clash", text)
    assert code == 1
    assert "t = 1.0000001 and t = 1.0000002 would both be written to clash_t1.tsv" in err
    assert not (tmp_path / "out" / "clash").exists()  # refused before the march
    # one snapshot of the same times is unambiguous
    final_only = text.replace("snapshots = all", "snapshots = final")
    code, _ = _run_text(tmp_path, capsys, "clash", final_only)
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "out" / "clash").glob("*.tsv")) == [
        "clash_norms.tsv", "clash_t1.tsv"
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_refuses_two_scenarios_with_one_name(tmp_path, capsys, jobs):
    first = write_scenario(tmp_path, "first", SMALL.format(name="same"))
    second_text = SMALL.format(name="same").replace("a = 0.5", "a = 0.2")
    second = write_scenario(tmp_path, "second", second_text)
    out = tmp_path / "out"
    code = main(["run", str(first), str(second), "--jobs", jobs, "--output-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: name: 'same' names both")
    assert str(first) in err and str(second) in err
    assert not out.exists()  # refused before anything ran


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("a = 0.5", "a = abc", "line 3, col 5: a: expected a number, got 'abc'"),
        ("snapshots = final", "snapshots = final\ncheck.containment.tol = lots",
         "line 17, col 25: check.containment.tol: expected a finite number >= 0, got 'lots'"),
        ("init = sine_radial", "init = bogus",
         "line 11, col 8: init: expected constant/sine_radial/riemann_step/from_file, "
         "got 'bogus'"),
        ("snapshots = final", "snapshots = first",
         "line 16, col 13: snapshots: expected all/final/none, got 'first'"),
    ],
    ids=["damping", "containment-tol", "init-kind", "snapshots-mode"],
)
def test_run_refuses_a_batch_with_a_malformed_value_before_any_march(tmp_path, capsys,
                                                                     old, new, message):
    good = write_scenario(tmp_path, "good")
    bad = write_scenario(tmp_path, "bad", SMALL.format(name="bad").replace(old, new))
    out = tmp_path / "out"
    code = main(["run", str(good), str(bad), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()  # not even the good scenario ran


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_refuses_a_batch_whose_set_up_fails_before_any_march(tmp_path, capsys, jobs):
    good = write_scenario(tmp_path, "good")
    # each value is well-formed on its own; the damping refuses the pair
    bad = write_scenario(
        tmp_path, "bad", SMALL.format(name="bad").replace("a = 0.5", "a = 0.1")
    )
    out = tmp_path / "out"
    code = main(["run", str(good), str(bad), "--jobs", jobs, "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: damping: need a >= b (damping-order condition C2), got a=0.1 < b=0.2\n"
    )
    # every scenario is set up before any marches, and a set-up writes nothing
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("decay {cfg} --p foo --output-dir {out}",
         "argument --p: expected one number, got 'foo'"),
        ("convergence {cfg} --epsilons a,b --output-dir {out}",
         "argument --epsilons: expected comma-separated numbers, got 'a,b'"),
        ("eigen --phi power:1 --state a,b", "argument --state: expected 2 numbers, got 'a,b'"),
        ("eigen --phi power:1 --state 1,2,3", "argument --state: expected 2 numbers, got '1,2,3'"),
        ("entropy-pair --m 2 --phi power:1 --n -1 --output-dir {out}",
         "argument --n: must be >= 0, got -1"),
        ("entropy-pair --m 2 --phi power:1 --n 2.5 --output-dir {out}",
         "argument --n: expected one integer, got '2.5'"),
        ("run {cfg} --jobs 0 --output-dir {out}", "argument --jobs: must be >= 1, got 0"),
    ],
    ids=["decay-p", "convergence-epsilons", "eigen-state", "eigen-state-count", "entropy-pair-n",
         "entropy-pair-n-integer", "run-jobs"],
)
def test_bad_option_values_exit_2_with_one_line(tmp_path, capsys, argv, message):
    cfg, out = write_scenario(tmp_path), tmp_path / "out"
    code = main(argv.format(cfg=cfg, out=out).split())
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()  # refused before anything ran


def _typed_options() -> list:
    """(command, option) for each option of each command whose value
    argparse converts from text."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[-1]) for name, command in sub.choices.items()
            for action in command._actions if action.option_strings and action.type is not None]


@pytest.mark.parametrize(
    "argv, message",
    [
        *(([command, option, "abc"], f"argument {option}: ")
          for command, option in _typed_options()),
        (["definitely-not-a-command"], "argument command: invalid choice: "),
        (["eigen", "--phi", "power:1", "--state", "3,4", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["entropy-pair", "--phi", "power:1"], "the following arguments are required: --m"),
        (["eigen", "--state", "3,4", "--phi"], "argument --phi: expected one argument"),
    ],
    ids=[*(f"{c} {o}" for c, o in _typed_options()),
         "unknown-command", "unknown-option", "missing-option", "missing-value"],
)
def test_every_usage_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []  # refused before anything ran


@pytest.mark.parametrize(
    "argv, culprit",
    [
        ("run {cfg} --output-dir {afile}", "{afile}/cli_demo"),
        ("run {cfg} {two} --jobs 2 --output-dir {afile}", "{afile}/cli_demo"),
        ("convergence {cfg} --epsilons 0.1,0.05 --output-dir {afile}", "{afile}/cli_demo"),
        ("entropy-pair --m 2 --phi power:1 --output-dir {afile}", "{afile}"),
        ("entropy-pair --m 2 --phi power:1 --out {afile}/x.tsv", "{afile}"),
        ("run {long} --output-dir {out}", "{out}/" + "n" * 300),
        ("run {tmp}/nowhere.cfg --output-dir {out}", "{tmp}/nowhere.cfg"),
    ],
    ids=["run-root-is-a-file", "run-jobs-root-is-a-file", "convergence-root-is-a-file",
         "entropy-pair-root-is-a-file", "entropy-pair-out-under-a-file", "name-too-long",
         "missing-scenario-file"],
)
def test_os_errors_exit_1_with_one_line_naming_the_path(tmp_path, capsys, monkeypatch, argv,
                                                        culprit):
    monkeypatch.delenv("KKD_OUTPUT_DIR", raising=False)
    marches = _count_marches(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("")
    paths = dict(
        cfg=write_scenario(tmp_path),
        two=write_scenario(tmp_path, "two", SMALL.format(name="two")),
        long=write_scenario(tmp_path, "long", SMALL.format(name="n" * 300)),
        afile=afile, out=tmp_path / "out", tmp=tmp_path,
    )
    code = main(argv.format(**paths).split())
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {culprit.format(**paths)}: ") and err.count("\n") == 1
    assert afile.read_text() == ""
    assert marches == []  # the output directory is made before the march


@pytest.mark.parametrize(
    "argv, code, err",
    [("run {cfg} --output-dir {out}", 0, ""),
     ("region-check --a 0.6 --b 0.2 --c0 1e300", 1,
      "error: level phi = 1e+300 not attained on (0, 10.0] for power:1\n")],
    ids=["run-r_max-1e300", "region-check-c0-1e300"],
)
def test_huge_valid_values_print_no_numpy_warning(tmp_path, capsys, argv, code, err):
    # a numpy warning would be a `warning:` line, or an error under this suite's filters
    text = SMALL.format(name="huge").replace("a = 0.5", "r_max = 1e300\na = 0.5")
    cfg = write_scenario(tmp_path, "huge", text)
    assert main(argv.format(cfg=cfg, out=tmp_path / "out").split()) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("samples", ["1", "2"])
def test_region_check_with_too_few_samples_exits_1(capsys, samples):
    # C1 = 0 drops the Z = 0 sample, so one sample or none remains
    code = main(["region-check", "--a", "0.6", "--b", "0.2", "--c1", "0", "--samples", samples])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: boundary flow check needs >= 2 samples with v > 0, got ")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("snapshots", "init.mollify_eps = inf\nsnapshots", "mollifier radius must lie in"),
        ("snapshots", "init.mollify_eps = 1e300\nsnapshots", "mollifier radius must lie in"),
        ("snapshots", "init.mollify_eps = nan\nsnapshots", "mollifier radius must lie in"),
        ("x_hi = 6.283185307179586", "x_hi = 1e-308", "grid: cell width"),
        ("x_hi = 6.283185307179586", "x_hi = inf", "grid: need finite bounds"),
        ("snapshots", "init.angle = 0\ncheck.containment = on\nsnapshots",
         "Z = u/v undefined where v = 0"),
        ("phi = power:1", "phi = power:nan",
         "line 2, col 7: phi: power family needs finite gamma > 0, got nan"),
        ("t_end = 0.4\nn_outputs = 9", "t_end = inf\nn_outputs = 2",
         "t_end must be finite and nonnegative, got inf"),
        ("t_end = 0.4\nn_outputs = 9", "t_end = inf\nn_outputs = 41",
         "t_end must be finite and nonnegative, got inf"),
    ],
    ids=["mollify-inf", "mollify-1e300", "mollify-nan", "subnormal-cell-width", "infinite-bound",
         "containment-auto-on-the-axis", "phi-nan", "t_end-inf-2-outputs",
         "t_end-inf-41-outputs"],
)
def test_out_of_range_inputs_exit_1_with_one_error_line(tmp_path, capsys, old, new, message):
    text = SMALL.format(name="hostile").replace(old, new)
    code, err = _run_text(tmp_path, capsys, "hostile", text)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["run", "simulate", "decay", "convergence"])
def test_a_scenario_file_that_is_not_utf8_exits_1_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe name = x\n")
    code = main([command, str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: line 1, col 1: byte 0xff is not UTF-8\n"


def test_a_scenario_file_that_starts_with_a_byte_order_mark_runs(tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + SMALL.format(name="bom").encode())
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("bom: pass")


@pytest.mark.parametrize(
    "data, line, col",
    [(b"\xef\xbb\xbfname = x\xff\n", 1, 12), (b"\xef\xbb\xbfname = x\n\xff\n", 2, 1)],
    ids=["first-line", "second-line"],
)
def test_a_bad_byte_after_a_byte_order_mark_is_reported_where_it_is(tmp_path, capsys,
                                                                     data, line, col):
    # the mark's three bytes count: the column is the bad byte's in the file
    path = tmp_path / "bom.cfg"
    path.write_bytes(data)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line {line}, col {col}: byte 0xff is not UTF-8\n"
    )


def test_the_retired_diffusion_number_is_an_unknown_key(tmp_path, capsys):
    text = SMALL.format(name="retired") + "viscous.diffusion_number = 0.4\n"
    code, err = _run_text(tmp_path, capsys, "retired", text)
    assert code == 1
    assert err == (f"error: {tmp_path / 'retired.cfg'}: line 17, col 1: "
                   "unknown key 'viscous.diffusion_number'\n")


RIEMANN = ("init = sine_radial\ninit.mean = 0.5\ninit.amplitude = 0.2",
           "init = riemann_step\ninit.u_left = 0.7\ninit.v_left = 0.7\n"
           "init.u_right = 0.3\ninit.v_right = 0.3\ninit.x_jump = {}")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("snapshots", "check.decay.p = 0.5\nsnapshots",
         "{bad}: line 16, col 17: check.decay.p: expected a number >= 1 or inf, got '0.5'"),
        ("snapshots", "check.containment.tol = nan\nsnapshots",
         "{bad}: line 16, col 25: check.containment.tol: expected a finite number >= 0, "
         "got 'nan'"),
        ("snapshots", "check.containment.tol = inf\nsnapshots",
         "{bad}: line 16, col 25: check.containment.tol: expected a finite number >= 0, "
         "got 'inf'"),
        ("snapshots", "check.invariants.tol = -1\nsnapshots",
         "{bad}: line 16, col 24: check.invariants.tol: expected a finite number >= 0, "
         "got '-1'"),
        ("snapshots", "check.containment = on\ncheck.containment.c0 = nan\nsnapshots",
         "region: C0, C1, C2 must be finite"),
        ("snapshots", "check.containment = on\ncheck.containment.c1 = 5\nsnapshots",
         "region: need C1 < C2, got C1=5.0, C2=1.0000000000000002"),
        (RIEMANN[0], RIEMANN[1].format("nan"),
         "{bad}: line 16, col 15: init.x_jump: expected a finite number, got 'nan'"),
        ("snapshots", "init.angle = -inf\nsnapshots",
         "{bad}: line 16, col 14: init.angle: expected a finite number, got '-inf'"),
        ("snapshots", "init.angle_wavenumber = inf\nsnapshots",
         "{bad}: line 16, col 25: init.angle_wavenumber: expected a finite number, got 'inf'"),
    ],
    ids=["decay-p", "containment-tol-nan", "containment-tol-inf", "invariants-tol-negative",
         "containment-c0-nan", "containment-c1-above-c2", "x_jump-nan", "angle-inf", "angle_wavenumber-inf"],
)
def test_a_bad_check_or_init_value_refuses_the_batch_before_any_march(
    tmp_path, capsys, monkeypatch, old, new, message
):
    marches = _count_marches(monkeypatch)
    good = write_scenario(tmp_path, "good")
    bad = write_scenario(tmp_path, "bad", SMALL.format(name="bad").replace(old, new))
    out = tmp_path / "out"
    code = main(["run", str(good), str(bad), "--output-dir", str(out)])
    assert code == 1
    # and no warning line
    assert capsys.readouterr().err == f"error: {message}\n".format(bad=bad)
    assert marches == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "simulate", "decay", "convergence"])
def test_every_command_refuses_a_bad_check_option_at_parse(tmp_path, capsys, monkeypatch,
                                                           command):
    # simulate, decay and convergence skip the checks, but the file is parsed whole first
    marches = _count_marches(monkeypatch)
    text = SMALL.format(name="bad").replace("snapshots", "check.containment.tol = nan\nsnapshots")
    bad, out = write_scenario(tmp_path, "bad", text), tmp_path / "out"
    code = main([command, str(bad), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 16, col 25: check.containment.tol: expected a finite number >= 0, "
        "got 'nan'\n"
    )
    assert marches == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [("convergence {cfg} --epsilons 0.1,nan", "eps must be finite and nonnegative, got nan"),
     ("convergence {cfg} --epsilons 0.1,-0.05", "eps must be finite and nonnegative, got -0.05"),
     ("convergence {cfg} --epsilons 0.1", "need at least two eps values"),
     ("convergence {cfg} --epsilons 0.05,0.1", "eps values must be strictly decreasing"),
     ("decay {cfg} --p 0.5", "p must be >= 1 or inf, got 0.5")],
    ids=["convergence-nan", "convergence-negative", "convergence-one-eps",
         "convergence-increasing", "decay-p"],
)
def test_a_bad_command_value_is_refused_before_any_march(tmp_path, capsys, monkeypatch, argv,
                                                         message):
    marches = _count_marches(monkeypatch)
    cfg, out = write_scenario(tmp_path), tmp_path / "out"
    code = main(argv.format(cfg=cfg).split() + ["--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert marches == []
    assert not out.exists()


@pytest.mark.parametrize(
    "schedule, check, key, got",
    [("n_outputs = 3", "check.decay", "n_outputs", 2),
     ("n_outputs = 5", "check.decay", "n_outputs", 4),
     ("output_times = 0.1,0.2,0.3,0.4", "check.decay", "output_times", 4),
     ("n_outputs = 3", "check.invariants", "n_outputs", 2)],
    ids=["decay-3", "decay-5", "decay-output-times", "invariants-3"],
)
def test_a_schedule_too_short_for_a_rate_fit_is_refused_before_any_march(
    tmp_path, capsys, monkeypatch, schedule, check, key, got
):
    # the fit takes the last 90% of the march, which leaves t = 0 out
    marches = _count_marches(monkeypatch)
    text = SMALL.format(name="few").replace("n_outputs = 9", schedule)
    if check == "check.invariants":
        text = text.replace("check.decay = on\n", "").replace("a = 0.5", "a = 0.3").replace(
            "b = 0.2", "b = 0.1")
    few = write_scenario(tmp_path, "few", text)
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "riemann_shock.cfg"
    out = tmp_path / "out"
    code = main(["run", str(shipped), str(few), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {key}: {check} fits a rate to the output times in the last 90% of the "
        f"march and needs >= 5 of them, got {got}\n"
    )
    assert marches == []
    assert not out.exists()


def test_a_schedule_with_five_times_in_the_fit_window_runs(tmp_path, capsys):
    text = SMALL.format(name="six").replace("n_outputs = 9", "n_outputs = 6")
    path = write_scenario(tmp_path, "six", text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0


def test_equal_damping_leaves_the_invariants_schedule_to_the_march(tmp_path, capsys):
    # with a = b the invariants check fits a rate only if sup |Z| moves;
    # here Z = 1 everywhere, so three outputs pass
    text = SMALL.format(name="equal").replace("n_outputs = 9", "n_outputs = 3").replace(
        "check.decay = on\n", "").replace("a = 0.5", "a = 0.2")
    path = write_scenario(tmp_path, "equal", text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert "equal: pass [invariants=pass]" in capsys.readouterr().out


def test_decay_refuses_a_schedule_too_short_for_its_fit_before_the_march(
    tmp_path, capsys, monkeypatch
):
    # the command fits a rate though it skips the scenario's checks
    marches = _count_marches(monkeypatch)
    text = SMALL.format(name="few").replace("n_outputs = 9", "n_outputs = 5").replace(
        "check.decay = on\ncheck.invariants = on\n", "")
    path, out = write_scenario(tmp_path, "few", text), tmp_path / "out"
    code = main(["decay", str(path), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: n_outputs: decay fits a rate to the output times in the last 90% of the "
        "march and needs >= 5 of them, got 4\n"
    )
    assert marches == []
    assert not out.exists()


def _const_scenario(tmp_path, name):
    text = SMALL.format(name=name).replace("phi = power:1", "phi = const:1")
    return str(write_scenario(tmp_path, name, text))


@pytest.mark.filterwarnings("default:const.1 fails the structure condition:UserWarning")
@pytest.mark.parametrize(
    "argv, names",
    [("run {st1} {st2} --jobs 1", ["st1", "st2"]),
     ("run {st1} {st2} --jobs 2", ["st1", "st2"]),
     ("convergence {st1} --epsilons 0.1,0.05", ["st1"])],
    ids=["run-jobs-1", "run-jobs-2", "convergence"],
)
def test_the_structure_warning_prints_once_per_scenario(tmp_path, capfd, argv, names):
    paths = {name: _const_scenario(tmp_path, name) for name in ("st1", "st2")}
    main(argv.format(**paths).split() + ["--output-dir", str(tmp_path / "out")])
    lines = [ln for ln in capfd.readouterr().err.splitlines()
             if ln.startswith("warning: const:1 fails the structure condition")]
    assert [ln.rsplit(" ", 1)[-1] for ln in lines] == [f"{name})" for name in names]


@pytest.mark.parametrize("n_outputs", ["2", "9"])
def test_a_zero_t_end_is_refused_naming_t_end(tmp_path, capsys, n_outputs):
    text = SMALL.format(name="instant").replace("t_end = 0.4", "t_end = 0").replace(
        "n_outputs = 9", f"n_outputs = {n_outputs}")
    code, err = _run_text(tmp_path, capsys, "instant", text)
    assert code == 1
    assert err.startswith("error: t_end: ") and err.count("\n") == 1


def _address_space_limit():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("run {cfg} --output-dir {out}", 1,
         "n_outputs: 1000000000 snapshots of 64 cells would need more than 1 GiB"),
        ("run {times} --output-dir {out}", 1,
         "output_times: 64 snapshots of 1048576 cells would need more than 1 GiB"),
        ("entropy-pair --m 2 --phi power:1 --n 1000000000 --output-dir {out}", 2,
         "argument --n: must be <= 10000000, got 1000000000"),
        ("region-check --a 0.6 --b 0.2 --samples 1000000000", 2,
         "argument --samples: must be <= 10000000, got 1000000000"),
    ],
    ids=["n_outputs", "output_times", "entropy-pair-n", "region-check-samples"],
)
def test_counts_that_cannot_fit_are_refused_before_they_are_allocated(
    tmp_path, argv, code, message
):
    # a fresh process under a 2 GiB address-space limit: a count allocated
    # before it is checked ends in a MemoryError, not an exhausted machine
    huge = SMALL.format(name="huge").replace("n_outputs = 9", "n_outputs = 1000000000")
    many = SMALL.format(name="many").replace("n_cells = 64", "n_cells = 1048576").replace(
        "n_outputs = 9", "output_times = " + ",".join(f"{0.4 * k / 64!r}" for k in range(1, 65)))
    cfg, times = write_scenario(tmp_path, "huge", huge), write_scenario(tmp_path, "many", many)
    proc = _cli_process(argv.format(cfg=cfg, times=times, out=tmp_path / "out").split(),
                        tmp_path, preexec_fn=_address_space_limit)
    assert (proc.returncode, proc.stderr) == (code, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


TINY = {
    "name": "tiny", "phi": "power:1", "a": "0.5", "b": "0.2", "x_lo": "0.0", "x_hi": "1.0",
    "n_cells": "16", "boundary": "periodic", "t_end": "0.05", "n_outputs": "6",
    "init": "sine_radial", "init.mean": "0.5", "init.amplitude": "0.2",
    "check.decay": "on", "check.containment": "on", "snapshots": "final",
}
HOSTILE_KEYS = sorted(TINY) + [
    "cfl", "viscous.eps", "init.mollify_eps", "output_times",
    "r_max", "scheme", "splitting", "check.decay.p", "check.containment.c0",
    "check.containment.tol",
]
HOSTILE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-308", "abc", "auto", "1,2", "../x",
                  "a/b", "."]


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.sampled_from(HOSTILE_KEYS), st.sampled_from(HOSTILE_VALUES), max_size=2
    )
)
@example({})
@example({"name": "../x"})
@example({"name": "a/b"})
@example({"name": "."})
def test_run_with_hostile_values_exits_0_or_1(overrides):
    # an output_times override replaces n_outputs, since a scenario may not set both
    base = {k: v for k, v in TINY.items() if k != "n_outputs" or "output_times" not in overrides}
    text = "".join(f"{k} = {v}\n" for k, v in {**base, **overrides}.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.cfg"
        path.write_text(text)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["run", str(path), "--output-dir", str(Path(tmp) / "out")])
        assert code in (0, 1)
        if not overrides:  # TINY itself passes every check and reaches its writes
            assert code == 0, sink.getvalue()
        # whatever the name, nothing is written outside the output root
        assert sorted(p.name for p in Path(tmp).iterdir()) in (["tiny.cfg"], ["out", "tiny.cfg"])
