"""Flat key=value scenario files and the run orchestration behind the CLI.

Format: one `key = value` per line, '#' comments and blank lines ignored.
Keys are dotted lowercase identifiers. Unknown keys, malformed lines, and
unparseable values raise ParseError with 1-based line and column;
semantically invalid combinations raise ValidationError naming the field.

A run writes, under <output root>/<name>/:

    <name>_t<time>.tsv      snapshots (x, u, v, r, W, Z), '#' headers
    <name>_norms.tsv        norm series per output time
    <name>_manifest.txt     echo of the scenario plus check verdicts

All floats are full-precision scientific notation, so files round-trip
exactly and reruns are byte-identical (manifest comment lines carry the
wall-clock data and are excluded from that guarantee).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    WeightFunction,
    decay_harness,
    lp_norm,
    riemann_invariant_diagnostics,
)
from .errors import KKDampError, ParseError, ValidationError
from .model import Damping, PhiModel
from .region import RegionSigma, trajectory_containment
from .solver import (
    Grid1D,
    SolverConfig,
    StateField,
    Trajectory,
    _fmt,
    mollify_profile,
    read_snapshot,
    simulate,
    snapshot_path,
    write_snapshot,
)

DEFAULT_OUTPUT_ROOT = "kkd_out"

_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_.")

_KNOWN_KEYS = {
    "name",
    "phi",
    "r_max",
    "a",
    "b",
    "x_lo",
    "x_hi",
    "n_cells",
    "boundary",
    "t_end",
    "n_outputs",
    "output_times",
    "scheme",
    "splitting",
    "cfl",
    "seed",
    "snapshots",
    "viscous.eps",
    "viscous.diffusion_number",
    "init",
    "init.u",
    "init.v",
    "init.mean",
    "init.amplitude",
    "init.wavenumber",
    "init.angle",
    "init.angle_amplitude",
    "init.angle_wavenumber",
    "init.u_left",
    "init.v_left",
    "init.u_right",
    "init.v_right",
    "init.x_jump",
    "init.file",
    "init.mollify_eps",
    "check.decay",
    "check.decay.p",
    "check.decay.weighted",
    "check.containment",
    "check.containment.c0",
    "check.containment.c1",
    "check.containment.c2",
    "check.containment.tol",
    "check.invariants",
    "check.invariants.tol",
}

# Keys whose value is a number ("inf" included) or one of the listed words.
_NUMBER_OR_WORD = {
    "check.decay.p": (),
    "check.containment.c0": ("auto",),
    "check.containment.c1": ("auto",),
    "check.containment.c2": ("auto",),
}


@dataclass
class Entry:
    value: str
    line: int
    col: int  # 1-based column where the value starts


@dataclass
class Scenario:
    """Parsed scenario: raw entries in file order plus typed accessors."""

    entries: dict = field(default_factory=dict)
    path: str = "<memory>"

    # -- typed accessors ---------------------------------------------------

    def has(self, key: str) -> bool:
        return key in self.entries

    def _entry(self, key: str) -> Entry:
        if key not in self.entries:
            raise ValidationError(key, "required key is missing")
        return self.entries[key]

    def get_float(self, key: str, default: float | None = None) -> float:
        if default is not None and key not in self.entries:
            return default
        e = self._entry(key)
        try:
            return float(e.value)
        except ValueError:
            raise ParseError(e.line, e.col, f"{key}: expected a number, got {e.value!r}")

    def get_int(self, key: str, default: int | None = None) -> int:
        if default is not None and key not in self.entries:
            return default
        e = self._entry(key)
        try:
            return int(e.value)
        except ValueError:
            raise ParseError(e.line, e.col, f"{key}: expected an integer, got {e.value!r}")

    def get_bool(self, key: str, default: bool = False) -> bool:
        if key not in self.entries:
            return default
        e = self.entries[key]
        low = e.value.lower()
        if low in ("on", "true", "yes", "1"):
            return True
        if low in ("off", "false", "no", "0"):
            return False
        raise ParseError(e.line, e.col, f"{key}: expected on/off, got {e.value!r}")

    def get_str(self, key: str, default: str | None = None) -> str:
        if default is not None and key not in self.entries:
            return default
        return self._entry(key).value

    def get_float_list(self, key: str) -> list[float]:
        e = self._entry(key)
        try:
            return [float(tok) for tok in e.value.split(",")]
        except ValueError:
            raise ParseError(e.line, e.col, f"{key}: expected comma-separated numbers")

    # -- model construction --------------------------------------------------

    @property
    def name(self) -> str:
        return self.get_str("name")

    def phi_model(self) -> PhiModel:
        e = self._entry("phi")
        r_max = self.get_float("r_max", 10.0)
        try:
            return PhiModel.from_spec(e.value, r_max=r_max)
        except KKDampError as exc:
            raise ParseError(e.line, e.col, f"phi: {exc}")

    def damping(self) -> Damping:
        return Damping(self.get_float("a"), self.get_float("b"))

    def grid(self) -> Grid1D:
        return Grid1D(
            x_lo=self.get_float("x_lo"),
            x_hi=self.get_float("x_hi"),
            n_cells=self.get_int("n_cells"),
            boundary=self.get_str("boundary", "periodic"),
        )

    def solver_config(self) -> SolverConfig:
        t_end = self.get_float("t_end")
        if self.has("output_times"):
            outputs = self.get_float_list("output_times")
        else:
            n_out = self.get_int("n_outputs", 2)
            if n_out < 2:
                raise ValidationError("n_outputs", f"need >= 2, got {n_out}")
            outputs = list(np.linspace(0.0, t_end, n_out))[1:]
        return SolverConfig(
            t_end=t_end,
            output_times=outputs,
            scheme=self.get_str("scheme", "rusanov"),
            splitting=self.get_str("splitting", "strang"),
            cfl=self.get_float("cfl", 0.45),
            eps=self.get_float("viscous.eps", 0.0),
            diffusion_number=self.get_float("viscous.diffusion_number", 0.4),
        )

    def initial_field(self, grid: Grid1D) -> StateField:
        kind = self.get_str("init")
        x = grid.centers
        if kind == "constant":
            u = np.full(grid.n_cells, self.get_float("init.u"))
            v = np.full(grid.n_cells, self.get_float("init.v"))
        elif kind == "sine_radial":
            mean = self.get_float("init.mean")
            amp = self.get_float("init.amplitude")
            wav = self.get_float("init.wavenumber", 1.0)
            angle = self.get_float("init.angle", np.pi / 4.0)
            aamp = self.get_float("init.angle_amplitude", 0.0)
            awav = self.get_float("init.angle_wavenumber", 1.0)
            r0 = mean + amp * np.sin(wav * x)
            if np.any(r0 < 0):
                raise ValidationError("init.amplitude", "radius profile dips below 0")
            theta = angle + aamp * np.sin(awav * x)
            u = r0 * np.cos(theta)
            v = r0 * np.sin(theta)
        elif kind == "riemann_step":
            xj = self.get_float("init.x_jump")
            left = x < xj
            u = np.where(left, self.get_float("init.u_left"), self.get_float("init.u_right"))
            v = np.where(left, self.get_float("init.v_left"), self.get_float("init.v_right"))
        elif kind == "from_file":
            e = self._entry("init.file")
            try:
                data = read_snapshot(e.value)
            except (OSError, ValueError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ParseError(
                    e.line, e.col, f"init.file: cannot read {e.value!r}: {reason}"
                ) from exc
            if data["u"].size != grid.n_cells:
                raise ValidationError(
                    "init.file", f"file has {data['u'].size} cells, grid has {grid.n_cells}"
                )
            offset = float(np.max(np.abs(data["x"] - x)))
            if not offset <= 1e-9 * grid.dx:
                raise ValidationError(
                    "init.file", f"cell centers differ from the grid's by up to {offset:g} "
                    f"(dx = {grid.dx:g}): the file was written on another grid"
                )
            boundary = data["meta"].get("boundary", grid.boundary)
            if boundary != grid.boundary:
                raise ValidationError(
                    "init.file", f"file has boundary {boundary}, grid has {grid.boundary}"
                )
            u, v = data["u"], data["v"]
        else:
            e = self._entry("init")
            raise ParseError(e.line, e.col, f"unknown initial profile {kind!r}")

        eps = self.get_float("init.mollify_eps", 0.0)
        if eps != 0.0:  # 0 is off; mollify_profile refuses nan and negatives
            u = mollify_profile(u, eps, grid)
            v = mollify_profile(v, eps, grid)
        return StateField(grid, u, v, 0.0)


def parse_scenario_text(text: str, path: str = "<memory>") -> Scenario:
    sc = Scenario(path=path)
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(ln, 1, "expected 'key = value'")
        key_part, _, value_part = raw_line.partition("=")
        key = key_part.strip()
        if not key:
            raise ParseError(ln, 1, "empty key")
        for off, ch in enumerate(key):
            if ch not in _KEY_CHARS:
                raise ParseError(
                    ln, raw_line.index(key) + off + 1, f"bad character {ch!r} in key"
                )
        if key not in _KNOWN_KEYS:
            raise ParseError(ln, raw_line.index(key) + 1, f"unknown key {key!r}")
        value = value_part.strip()
        if not value:
            raise ParseError(ln, len(raw_line.rstrip()) + 1, f"{key}: empty value")
        col = raw_line.index(value, raw_line.index("=")) + 1
        if key in sc.entries:
            raise ParseError(ln, raw_line.index(key) + 1, f"duplicate key {key!r}")
        words = _NUMBER_OR_WORD.get(key)
        if words is not None and value not in words:
            try:
                float(value)
            except ValueError:
                expected = " or ".join(["a number", *words])
                raise ParseError(ln, col, f"{key}: expected {expected}, got {value!r}")
        sc.entries[key] = Entry(value=value, line=ln, col=col)
    if "name" not in sc.entries:
        raise ValidationError("name", "required key is missing")
    return sc


def parse_scenario(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario_text(fh.read(), path=str(path))


def output_root(explicit=None) -> Path:
    env = os.environ.get("KKD_OUTPUT_DIR")
    if env:
        return Path(env)
    if explicit is not None:
        return Path(explicit)
    return Path(DEFAULT_OUTPUT_ROOT)


@dataclass
class RunResult:
    name: str
    out_dir: Path
    passed: bool
    checks: dict
    artifacts: list
    trajectory: Trajectory


def _write_norm_series(traj: Trajectory, path: Path):
    with open(path, "w") as fh:
        fh.write("# t\tl1\tl2\tl4\tlinf\tsup_abs_z\tsup_r_ratio\n")
        w0 = None
        for f in traj.fields:
            r = f.r
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.abs(f.u / f.v)
            sup_z = float(np.max(z)) if np.all(f.v != 0.0) else float("nan")
            w_now = float(np.max(r))
            if w0 is None:
                w0 = max(w_now, 1e-300)
            fh.write(
                "\t".join(
                    (
                        _fmt(f.t),
                        _fmt(lp_norm(f, 1)),
                        _fmt(lp_norm(f, 2)),
                        _fmt(lp_norm(f, 4)),
                        _fmt(lp_norm(f, np.inf)),
                        _fmt(sup_z),
                        _fmt(w_now / w0),
                    )
                )
                + "\n"
            )


def _snapshot_selection(sc: Scenario, items: list) -> list:
    """The entries the `snapshots` mode selects from a per-output list
    that starts with the initial state."""
    mode = sc.get_str("snapshots", "all")
    if mode not in ("all", "final", "none"):
        raise ValidationError("snapshots", f"expected all/final/none, got {mode!r}")
    if mode == "all":
        return list(items)
    if mode == "final":
        return items[-1:]
    return []


def _check_snapshot_names(sc: Scenario, times) -> None:
    """Two different output times whose snapshot names coincide would
    silently overwrite one file with the other: refuse them."""
    seen: dict[str, float] = {}
    for t in times:
        name = snapshot_path(".", sc.name, t).name
        if name in seen and seen[name] != t:
            key = "output_times" if sc.has("output_times") else "n_outputs"
            raise ValidationError(
                key, f"t = {seen[name]!r} and t = {t!r} would both be written to {name}"
            )
        seen[name] = t


def run_scenario(sc: Scenario, out_root=None, write_files: bool = True) -> RunResult:
    """Simulate a scenario and run its enabled checks. Artifacts land in
    <output root>/<name>/."""
    t_wall = time.perf_counter()
    phi = sc.phi_model()
    d = sc.damping()
    grid = sc.grid()
    cfg = sc.solver_config()
    init = sc.initial_field(grid)
    if write_files:
        times = [init.t, *cfg.resolved_outputs().tolist()]
        _check_snapshot_names(sc, _snapshot_selection(sc, times))

    traj = simulate(init, phi, d, cfg)
    # prepend the initial state so checks see t = 0
    full = Trajectory(
        fields=[init.copy()] + list(traj.fields),
        n_steps=traj.n_steps,
        avg_dt=traj.avg_dt,
    )

    checks: dict[str, bool] = {}
    details: list[str] = []

    if sc.get_bool("check.decay", False):
        p = sc.get_float("check.decay.p", 2.0)
        weighted = sc.get_bool("check.decay.weighted", False)
        rep = decay_harness(
            full,
            p,
            d,
            weight=WeightFunction.default() if weighted else None,
            phi=phi if weighted else None,
        )
        checks["decay"] = rep.passed
        details.append(f"check.decay.fitted_rate = {_fmt(rep.fitted_rate)}")
        details.append(f"check.decay.theorem_rate = {_fmt(rep.theorem_rate)}")
        details.append(f"check.decay.passed = {str(rep.passed).lower()}")

    if sc.get_bool("check.containment", False):
        r0_max = float(np.max(init.r))
        z0 = init.u / init.v
        c0_raw = sc.get_str("check.containment.c0", "auto")
        c1_raw = sc.get_str("check.containment.c1", "0")
        c2_raw = sc.get_str("check.containment.c2", "auto")
        c0 = float(np.max(phi.phi(r0_max))) if c0_raw == "auto" else float(c0_raw)
        c1 = float(np.min(z0)) if c1_raw == "auto" else float(c1_raw)
        c2 = float(np.max(z0)) if c2_raw == "auto" else float(c2_raw)
        sigma = RegionSigma(c0=c0, c1=c1, c2=c2)
        rep = trajectory_containment(
            full, sigma, phi, tol=sc.get_float("check.containment.tol", 1e-8)
        )
        checks["containment"] = rep.passed
        details.append(f"check.containment.c0 = {_fmt(c0)}")
        details.append(f"check.containment.c1 = {_fmt(c1)}")
        details.append(f"check.containment.c2 = {_fmt(c2)}")
        details.append(f"check.containment.max_violation = {_fmt(rep.max_violation)}")
        details.append(f"check.containment.passed = {str(rep.passed).lower()}")

    if sc.get_bool("check.invariants", False):
        rep = riemann_invariant_diagnostics(
            full, phi, d, tol=sc.get_float("check.invariants.tol", 5e-2)
        )
        checks["invariants"] = rep.passed
        details.append(f"check.invariants.fitted_z_rate = {_fmt(rep.fitted_z_rate)}")
        details.append(f"check.invariants.expected_z_rate = {_fmt(rep.expected_z_rate)}")
        details.append(f"check.invariants.passed = {str(rep.passed).lower()}")

    passed = all(checks.values()) if checks else True
    artifacts: list[Path] = []

    if write_files:
        out_dir = output_root(out_root) / sc.name
        out_dir.mkdir(parents=True, exist_ok=True)
        for f in _snapshot_selection(sc, full.fields):
            artifacts.append(write_snapshot(f, phi, sc.name, out_dir))
        norms_path = out_dir / f"{sc.name}_norms.tsv"
        _write_norm_series(full, norms_path)
        artifacts.append(norms_path)

        manifest = out_dir / f"{sc.name}_manifest.txt"
        elapsed = time.perf_counter() - t_wall
        with open(manifest, "w") as fh:
            fh.write(f"# generated by kkdamp {__version__}\n")
            fh.write(f"# timestamp_utc = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
            fh.write(f"# elapsed_seconds = {elapsed:.3f}\n")
            for key in sc.entries:
                fh.write(f"{key} = {sc.entries[key].value}\n")
            fh.write(f"n_steps = {full.n_steps}\n")
            fh.write(f"avg_dt = {_fmt(full.avg_dt)}\n")
            for line in details:
                fh.write(line + "\n")
            fh.write(f"passed = {str(passed).lower()}\n")
        artifacts.append(manifest)
    else:
        out_dir = output_root(out_root)

    return RunResult(
        name=sc.name,
        out_dir=out_dir,
        passed=passed,
        checks=checks,
        artifacts=artifacts,
        trajectory=full,
    )
