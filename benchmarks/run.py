"""kkdamp benchmark: one workload per invocation, run from a checkout root.

    python3 benchmarks/run.py --workload march_large --seed 1 --seconds 10 --trace 0

With --trace 0 the workload runs untraced in a closed loop for --seconds
and the end-to-end metrics are reported. With --trace 1 a warm-up, an
untraced and a traced operation are run, the per-module metrics are
reported, and the spans are written under .bench_out/spans/. The last line of stdout is the
result object; the line before it carries sample counts, tail percentiles
and the machine record. Every result is also saved under
.bench_out/results/. Exits 2 without a result when the current directory
is not a kkdamp checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
PROBE_TIMEOUT_S = 120

PROBES = 3  # cold set-up and start-up processes per run; medians are reported
SIZES = (512, 2048, 16384, 131072)
STARTUP_ARGV = ["-m", "kkdamp.cli", "eigen", "--phi", "power:2", "--state", "3,4"]

# startup_s (fresh `kkdamp eigen`, cli_batch only) is reported in the
# summary line but carries no bound: across runs it drifted with machine
# load by up to 30% (IQR over median), more than the largest bound allowed.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ns_per_cell_step": "ns",
    "peak_rss_mb": "MB",
}

ERROR_MODULES = ("model", "solver", "viscous", "scenario", "analysis", "region", "entropy")

PER_LAYER = {
    "cli.import_s": "s",
    "model.import_s": "s",
    "scenario.parse_s": "s",
    "scenario.initial_field_s": "s",
    "scenario.run_scenario.self_s": "s",
    "model.phi.calls": "count",
    "model.phi.self_s": "s",
    "model.r_dphi.self_s": "s",
    "solver.steps": "count",
    "solver.max_wavespeed.calls": "count",
    "solver.wavespeed_evals_per_step": "ratio",
    "solver.state_validations_per_step": "ratio",
    "solver.hyperbolic_substep.self_s": "s",
    "solver.damping_substep.self_s": "s",
    "solver.step_once.self_s": "s",
    "solver.simulate.self_s": "s",
    **{f"solver.step_once.ns_per_cell.n{n}": "ns" for n in SIZES},
    **{f"solver.hyperbolic_substep.ns_per_cell.n{n}": "ns" for n in SIZES},
    "solver.write_snapshot.calls": "count",
    "solver.write_snapshot.self_s": "s",
    "solver.write_snapshot.bytes": "B",
    "solver.write_snapshot.mb_per_s": "MB/s",
    "viscous.steps": "count",
    "viscous.viscous_step.self_s": "s",
    "viscous.stable_dt.self_s": "s",
    "viscous.viscous_simulate.self_s": "s",
    "analysis.decay_harness.s": "s",
    "analysis.riemann_invariant_diagnostics.s": "s",
    "analysis.lp_norm.calls": "count",
    "region.trajectory_containment.s": "s",
    "entropy.power_entropy_pair.s": "s",
    "region.boundary_flow_check.s": "s",
    **{f"{m}.errors": "count" for m in ERROR_MODULES},
    "trace.overhead_s": "s",
}


def timing_summary(samples: list) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (none while that percentile is below the median,
    that is, under twenty samples)."""
    n = len(samples)
    out = {"median": statistics.median(samples) if n else None, "n": n, "tail": None}
    if n >= 20:
        ordered = sorted(samples)
        out["tail"] = {f"p{math.floor(100 * (n - 10) / n)}": ordered[n - 11]}
    return out


def machine_record() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    import numpy
    import scipy

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cpus = sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*"))
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind == "Instruction":
            continue
        groups = {read(c / "cache" / idx.name / "shared_cpu_list") for c in cpus}
        caches[f"L{level}"] = {"size_per_instance": read(idx / "size"),
                               "instances": len(groups - {None})}
    n_cells = max(SIZES)
    # About 18 float64 arrays of n+2 cells are live in one step (state,
    # padded copies, phi, fluxes, temporaries): an estimate from array sizes.
    working_set_mib = 18 * 8 * (n_cells + 2) / 2**20
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "working_set": (
            f"computed, not measured: about {working_set_mib:.0f} MiB for a "
            f"{n_cells}-cell step, which fits in L3; no bandwidth figure is claimed"
        ),
    }


def _timed_child(argv: list) -> tuple[float, subprocess.CompletedProcess]:
    from workloads import child_env

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(ROOT),
                          capture_output=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return wall, proc


def attempt(wl, run_fn, outcome, tracer=None):
    """One operation and its oracles. Returns the operation's wall time
    (oracles excluded) and its march clock; a raised exception counts as a
    failed operation. With a tracer, spans cover the operation only."""
    from tracer import march_timer

    with march_timer() as acc, (tracer.installed() if tracer else contextlib.nullcontext()):
        t0 = time.perf_counter()
        try:
            result = run_fn()
        except Exception:
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - t0
    if result is None:
        outcome.attempted += 1
        outcome.failed += 1
        return wall, acc
    try:
        wl.check(result, outcome)
    except Exception:
        traceback.print_exc()
        outcome.attempted += 1
        outcome.failed += 1
    return wall, acc


def cold_processes(wl, count: int, samples: dict, outcome):
    """`count` rounds of fresh processes: a set-up probe and, on cli_batch,
    a CLI start-up."""
    for _ in range(count):
        _, proc = _timed_child([str(HERE / "setup_probe.py"), wl.probe_module,
                                *map(str, wl.inputs)])
        outcome.attempted += 1
        if proc.returncode == 0:
            samples["setup_s"].append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        else:
            outcome.failed += 1
        if wl.startup_probe:
            wall, proc = _timed_child(STARTUP_ARGV)
            outcome.attempted += 1
            outcome.failed += proc.returncode != 0
            samples.setdefault("startup_s", []).append(wall)


def untraced(wl, seconds: float, probes: int, outcome) -> tuple[dict, dict]:
    samples = {"setup_s": [], "wall_s": [], "ns_per_cell_step": []}
    # CPU speed on a shared machine drifts within seconds, so the cold
    # processes are spread evenly over the operations (first one before,
    # last one after) instead of being taken at one moment.
    due = [k * seconds / max(probes - 1, 1) for k in range(probes)]
    wl.setup()
    busy = 0.0  # seconds spent in operations and their oracles
    while True:
        while due and busy >= due[0]:
            due.pop(0)
            cold_processes(wl, 1, samples, outcome)
        if busy >= seconds and samples["wall_s"]:
            break
        t0 = time.perf_counter()
        march_s, cell_steps = outcome.march_s, outcome.cell_steps
        wall, acc = attempt(wl, wl.run, outcome)
        samples["wall_s"].append(wall)
        march_s = acc["s"] + outcome.march_s - march_s
        cell_steps = acc["cell_steps"] + outcome.cell_steps - cell_steps
        if cell_steps:
            samples["ns_per_cell_step"].append(1e9 * march_s / cell_steps)
        busy += time.perf_counter() - t0

    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return metrics, samples


def microbench(tiny: bool) -> dict:
    """ns per cell of one step_once and one hyperbolic_substep on a fixed
    smooth periodic state, median over repetitions, at each ROADMAP size."""
    import numpy as np

    from kkdamp import solver
    from kkdamp.model import Damping, PhiModel

    phi, d = PhiModel.power(1.0), Damping(0.6, 0.2)
    out = {}
    for n in SIZES:
        grid = solver.Grid1D(0.0, 2.0 * math.pi, n, "periodic")
        x = grid.centers
        r0, theta = 0.5 + 0.2 * np.sin(x), math.pi / 4 + 0.2 * np.sin(x)
        f = solver.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))
        dt = 0.45 * grid.dx / solver.max_wavespeed(f, phi)
        reps = 2 if tiny else max(16, 2**21 // n)
        for name, call in (("step_once", lambda: solver.step_once(f, phi, d, dt)),
                           ("hyperbolic_substep", lambda: solver.hyperbolic_substep(f, phi, dt))):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"solver.{name}.ns_per_cell.n{n}"] = 1e9 * statistics.median(times) / n
    return out


def import_times(probes: int, outcome) -> dict:
    """Cumulative import time of kkdamp.cli and kkdamp.model from
    `-X importtime` in fresh processes; medians."""
    got = {"cli.import_s": [], "model.import_s": []}
    for _ in range(probes):
        _, proc = _timed_child(["-X", "importtime", "-c", "import kkdamp.cli"])
        outcome.attempted += 1
        outcome.failed += proc.returncode != 0
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("kkdamp.cli", "kkdamp.model"):
                key = parts[2].strip().split(".")[1] + ".import_s"
                got[key].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in got.items()}


def traced(wl, probes: int, tiny: bool, outcome, spans_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        wl.setup()
    run_fn = wl.run if wl.in_process else wl.run_in_process
    attempt(wl, run_fn, outcome)  # warm-up, so first-call costs fall on neither side
    plain, _ = attempt(wl, run_fn, outcome)
    with_spans, _ = attempt(wl, run_fn, outcome, tracer)
    tracer.write(spans_path)

    s = tracer.summary()

    def get(name, key):
        return s[name][key] if name in s else 0

    steps = get("solver.step_once", "calls") + get("viscous.viscous_step", "calls")
    snap_s = get("solver.write_snapshot", "s")
    snap_bytes = tracer.counts["solver.write_snapshot.bytes"]
    m = {
        **import_times(probes, outcome),
        "scenario.parse_s": get("scenario.parse", "s"),
        "scenario.initial_field_s": get("scenario.initial_field", "s"),
        "scenario.run_scenario.self_s": get("scenario.run_scenario", "self_s"),
        "model.phi.calls": get("model.phi", "calls"),
        "model.phi.self_s": get("model.phi", "self_s"),
        "model.r_dphi.self_s": get("model.r_dphi", "self_s"),
        "solver.steps": get("solver.step_once", "calls"),
        "solver.max_wavespeed.calls": get("solver.max_wavespeed", "calls"),
        "solver.wavespeed_evals_per_step":
            get("solver.max_wavespeed", "calls") / steps if steps else 0.0,
        "solver.state_validations_per_step":
            tracer.counts["solver.state_validations"] / steps if steps else 0.0,
        "solver.write_snapshot.calls": get("solver.write_snapshot", "calls"),
        "solver.write_snapshot.bytes": snap_bytes,
        "solver.write_snapshot.mb_per_s": snap_bytes / 1e6 / snap_s if snap_s else 0.0,
        "viscous.steps": get("viscous.viscous_step", "calls"),
        "analysis.lp_norm.calls": get("analysis.lp_norm", "calls"),
        "trace.overhead_s": with_spans - plain,
        **microbench(tiny),
        **{f"{mod}.errors": tracer.errors[mod] for mod in ERROR_MODULES},
    }
    for name in ("solver.hyperbolic_substep", "solver.damping_substep", "solver.step_once",
                 "solver.simulate", "solver.write_snapshot", "viscous.viscous_step",
                 "viscous.stable_dt", "viscous.viscous_simulate"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("analysis.decay_harness", "analysis.riemann_invariant_diagnostics",
                 "region.trajectory_containment", "entropy.power_entropy_pair",
                 "region.boundary_flow_check"):
        m[f"{name}.s"] = get(name, "s")
    return m


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload; returns the result record (see module docstring)."""
    from workloads import OUT_SUBDIR, WORKLOADS, Outcome

    tag = f"{workload}_seed{seed}_trace{trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    probes = 1 if tiny else PROBES
    outcome = Outcome()
    # KKD_OUTPUT_DIR overrides every output root, so pin it to this run's
    # work directory for the run and its child processes.
    saved_env = os.environ.get("KKD_OUTPUT_DIR")
    os.environ["KKD_OUTPUT_DIR"] = str(work / OUT_SUBDIR)
    try:
        wl = WORKLOADS[workload](ROOT, work, seed, tiny)
        inputs = {str(p.relative_to(ROOT)): p.read_text() for p in wl.inputs}
        if trace:
            metrics = traced(wl, probes, tiny, outcome, OUT / "spans" / f"{tag}.tsv")
            samples, units = {}, PER_LAYER
        else:
            metrics, samples = untraced(wl, seconds, probes, outcome)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved_env is None:
            del os.environ["KKD_OUTPUT_DIR"]
        else:
            os.environ["KKD_OUTPUT_DIR"] = saved_env

    result = {
        "correct": outcome.failed == 0 and outcome.attempted >= 1,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fail_rate": outcome.failed / max(outcome.attempted, 1),
        "oracles_run": outcome.oracles,
        "timings": {k: timing_summary(v) for k, v in samples.items()},
        "machine": machine_record(),
    }
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps({"summary": summary, "samples": samples, "inputs": inputs, "result": result},
                   indent=1))
    return {"summary": summary, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kkdamp" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a kkdamp checkout (needs src/kkdamp and scenarios/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
