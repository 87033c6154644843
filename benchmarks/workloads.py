"""The benchmark workloads: seeded inputs, one operation, and the
correctness oracles that decide whether an operation failed.

Each workload is a single closed-loop client: it starts the next
operation only after the previous one and its oracles have finished,
as a researcher at a terminal does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kkdamp import cli, scenario, viscous

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_artifacts.json"
SHIPPED = ("angle_decay", "decay_equal_damping", "radial_decay", "riemann_shock",
           "scalar_transport", "unequal_decay", "viscosity_sweep")
COMMAND_TIMEOUT_S = 120
OUT_SUBDIR = "out"  # program output root inside a run's work directory

# Damped-mass drift allowed on a periodic grid: the scheme is conservative
# and the damping exact, so e^{a t} sum u stays constant to rounding
# (measured 1.5e-14 at 131072 cells).
MASS_DRIFT_TOL = 1e-12


@dataclass
class Outcome:
    """What one operation did: oracle verdicts per attempted program
    operation, and the march work it contained."""

    attempted: int = 0
    failed: int = 0
    oracles: dict = field(default_factory=dict)  # oracle name -> times run
    march_s: float = 0.0
    cell_steps: int = 0

    def verdict(self, oracle: str, ok: bool) -> bool:
        self.oracles[oracle] = self.oracles.get(oracle, 0) + 1
        if not ok:
            print(f"oracle failed: {oracle}", file=sys.stderr)
        return ok


def child_env(root: Path) -> dict:
    """Environment for kkdamp child processes: the checkout's sources."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _digest_lines(data: bytes) -> str:
    """sha256 over the lines that do not start with '#': the byte-identity
    guarantee excludes '#' lines (they carry wall-clock data)."""
    h = hashlib.sha256()
    for line in data.splitlines(keepends=True):
        if not line.startswith(b"#"):
            h.update(line)
    return h.hexdigest()


class Workload:
    name = ""
    probe_module = "kkdamp.scenario"
    in_process = True
    startup_probe = False  # also time fresh `kkdamp eigen` processes

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root, self.work, self.tiny = root, work, tiny
        self.rng = random.Random(seed)
        self.inputs: list[Path] = []

    def write_input(self, text: str):
        path = self.work / f"{self.name}.cfg"
        path.write_text(text)
        self.inputs.append(path)

    def setup(self):
        """In-process set-up: parse, phi model, grid, initial field."""
        self.sc = scenario.parse_scenario(self.inputs[0])
        self.phi = self.sc.phi_model()
        self.grid = self.sc.grid()
        self.init = self.sc.initial_field(self.grid)

    def run(self):
        raise NotImplementedError

    def check(self, result, out: Outcome):
        raise NotImplementedError


def _sine_scenario(name, rng, n_cells, t_end, n_outputs, snapshots, checks):
    """Periodic power:1 scenario with the angle_decay profile; the seed
    shifts the phase (through x_lo) and the mean angle within fixed ranges
    that keep u, v > 0 and the initial radius profile, so the step count
    moves by a few percent at most."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    angle = math.pi / 4.0 + rng.uniform(-0.25, 0.25)
    lines = [
        f"name = {name}", "phi = power:1", "a = 0.6", "b = 0.2",
        f"x_lo = {-phase!r}", f"x_hi = {2.0 * math.pi - phase!r}",
        f"n_cells = {n_cells}", "boundary = periodic",
        f"t_end = {t_end!r}", f"n_outputs = {n_outputs}",
        "init = sine_radial", "init.mean = 0.5", "init.amplitude = 0.2",
        "init.wavenumber = 1.0", f"init.angle = {angle!r}",
        "init.angle_amplitude = 0.2", "init.angle_wavenumber = 1.0",
    ]
    lines += [f"check.{c} = on" for c in checks]
    if "decay" in checks:
        lines.append("check.decay.p = 2")
    lines.append(f"snapshots = {snapshots}")
    return "\n".join(lines) + "\n"


class MarchLarge(Workload):
    # Why: nearly all time is phi evaluation (model) and the flux and split
    # step (solver) on a 131072-cell array, 98 steps per operation; no
    # viscosity, no checks and almost no I/O. The workload for the fused stepper; the
    # lazy-import and snapshot-writer items should not move it.
    name = "march_large"

    def __init__(self, *args):
        super().__init__(*args)
        n, t_end = (512, 0.05) if self.tiny else (131072, 0.0015)
        self.write_input(_sine_scenario(self.name, self.rng, n, t_end, 2, "none", ()))

    def run(self):
        return scenario.run_scenario(self.sc, out_root=self.work / OUT_SUBDIR)

    def check(self, res, out: Outcome):
        out.attempted += 1
        d = self.sc.damping()
        f0, f1 = res.trajectory[0], res.trajectory[-1]
        drift = max(
            abs(math.exp(d.a * f1.t) * np.sum(f1.u) - np.sum(f0.u)) / abs(np.sum(f0.u)),
            abs(math.exp(d.b * f1.t) * np.sum(f1.v) - np.sum(f0.v)) / abs(np.sum(f0.v)),
        )
        ok = out.verdict("damped_mass_drift", drift <= MASS_DRIFT_TOL)
        ok &= out.verdict("positive_hull", bool(np.all(f1.u > 0) and np.all(f1.v > 0)))
        ok &= out.verdict("r_max", bool(np.max(f1.r) <= self.phi.r_max))
        out.failed += not ok


class ViscousSweep(Workload):
    # Why: criterion 8's traffic over a shorter horizon: the shipped
    # scenarios/viscosity_sweep.cfg grid and eps list with t_end = 0.1
    # instead of 0.5 (5,464 diffusion-limited steps at 2048 cells, about 2 s,
    # so a run holds several operations), so per-step Python overhead
    # dominates. The workload for the implicit-diffusion item (march_large
    # should not move) and the fused stepper in the small-array regime.
    name = "viscous_sweep"
    probe_module = "kkdamp.viscous"

    def __init__(self, *args):
        super().__init__(*args)
        n, t_end = (512, 0.2) if self.tiny else (2048, 0.1)
        self.eps = [0.1, 0.05] if self.tiny else [0.1, 0.05, 0.025, 0.0125]
        x_jump = self.rng.uniform(-0.25, 0.25)
        self.write_input("\n".join([
            "name = viscosity_sweep", "phi = power:1", "a = 0.3", "b = 0.1",
            "x_lo = -2.0", "x_hi = 4.0", f"n_cells = {n}", "boundary = outflow",
            f"t_end = {t_end!r}", "n_outputs = 2", "init = riemann_step",
            "init.u_left = 0.7071067811865476", "init.v_left = 0.7071067811865476",
            "init.u_right = 0.2828427124746190", "init.v_right = 0.2828427124746190",
            f"init.x_jump = {x_jump!r}", "snapshots = final",
        ]) + "\n")

    def setup(self):
        super().setup()
        c = self.sc.solver_config()
        self.cfg = viscous.ViscousConfig(
            t_end=c.t_end, output_times=c.output_times, scheme=c.scheme,
            splitting=c.splitting, cfl=c.cfl,
        )

    def run(self):
        return viscous.vanishing_viscosity_sweep(
            self.init, self.phi, self.sc.damping(), self.cfg, self.eps)

    def check(self, report, out: Outcome):
        out.attempted += 1
        ok = out.verdict("l1_strictly_decreasing",
                         bool(np.all(np.diff(report.distances) < 0.0)))
        out.failed += not ok


@dataclass
class Command:
    key: str
    argv: list
    artifacts: list  # paths relative to the output root
    stdout_reference: bool = False  # stdout is deterministic and digested
    pass_texts: tuple = ()  # stdout must contain each


class CliBatch(Workload):
    # Why: a loop of four short CLI processes, the last one
    # `kkdamp run scenarios/*.cfg` over the shipped scenarios, unchanged.
    # Start-up dominates (kkdamp.model imports scipy.interpolate eagerly);
    # the solver does little. The workload for the lazy-import item. The
    # seed only shuffles the command order and the scenario order.
    name = "cli_batch"
    probe_module = "kkdamp.cli"
    in_process = False
    startup_probe = True

    def __init__(self, *args):
        super().__init__(*args)
        self.names = list(("riemann_shock",) if self.tiny else SHIPPED)
        self.rng.shuffle(self.names)
        self.inputs = [self.root / "scenarios" / f"{n}.cfg" for n in self.names]
        self.out_root = self.work / OUT_SUBDIR
        files = []
        for n, path in zip(self.names, self.inputs):
            files += [f"{n}/{n}_manifest.txt", f"{n}/{n}_norms.tsv"]
            sc = scenario.parse_scenario(path)
            if sc.get_str("snapshots", "all") != "none":
                files.append(f"{n}/{n}_t{format(sc.get_float('t_end'), 'g')}.tsv")
        self.commands = [
            Command("eigen", ["eigen", "--phi", "power:2", "--state", "3,4"], [],
                    stdout_reference=True),
            Command("entropy-pair",
                    ["entropy-pair", "--m", "2", "--phi", "power:1", "--r-max", "1",
                     "--output-dir", str(self.out_root)],
                    ["entropy_pair_m2_power_1.tsv"], pass_texts=("-> ok",)),
            Command("region-check",
                    ["region-check", "--phi", "power:1", "--a", "0.6", "--b", "0.2",
                     "--c1", "0"], [], stdout_reference=True, pass_texts=("passed = True",)),
            Command("run",
                    ["run", *(str(p.relative_to(self.root)) for p in self.inputs),
                     "--output-dir", str(self.out_root)],
                    files, pass_texts=tuple(f"{n}: pass" for n in self.names)),
        ]
        self.rng.shuffle(self.commands)
        self.reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}

    def setup(self):
        pass

    def run(self):
        """One batch in fresh processes: (command, exit code, stdout, wall s)."""
        out = []
        for cmd in self.commands:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "kkdamp.cli", *cmd.argv],
                cwd=self.root, env=child_env(self.root), capture_output=True,
                timeout=COMMAND_TIMEOUT_S,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            out.append((cmd, proc.returncode, proc.stdout, time.perf_counter() - t0))
        return out

    def run_in_process(self):
        """The same batch through `cli.main` in this process; used by the
        traced run so the tracer sees inside each command."""
        out = []
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            for cmd in self.commands:
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(cmd.argv)
                out.append((cmd, code, buf.getvalue().encode(), time.perf_counter() - t0))
        finally:
            os.chdir(cwd)
        return out

    def digests(self, results) -> dict:
        """Reference keys -> digest of non-'#' lines, for one batch."""
        got = {}
        for cmd, _, stdout, _ in results:
            if cmd.stdout_reference:
                got[f"stdout:{cmd.key}"] = _digest_lines(stdout)
            for rel in cmd.artifacts:
                path = self.out_root / rel
                got[rel] = _digest_lines(path.read_bytes()) if path.exists() else "missing"
        return got

    def check(self, results, out: Outcome):
        got = self.digests(results)
        for cmd, code, stdout, wall in results:
            out.attempted += 1
            if cmd.key == "run":  # the march runs in this child: charge its whole wall
                out.march_s += wall
            ok = out.verdict("exit_zero", code == 0)
            if cmd.pass_texts:
                text = stdout.decode()
                ok &= out.verdict("checks_pass", all(t in text for t in cmd.pass_texts))
            keys = ([f"stdout:{cmd.key}"] if cmd.stdout_reference else []) + cmd.artifacts
            ok &= out.verdict("artifacts_identical",
                              all(got[k] == self.reference.get(k) for k in keys))
            out.failed += not ok
        for name in self.names:
            manifest = (self.out_root / name / f"{name}_manifest.txt").read_text()
            fields = dict(line.lstrip("# ").split(" = ", 1)
                          for line in manifest.splitlines() if " = " in line)
            out.cell_steps += int(fields["n_steps"]) * int(fields["n_cells"])


WORKLOADS = {w.name: w for w in (CliBatch, MarchLarge, ViscousSweep)}
