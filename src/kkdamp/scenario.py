"""Flat key=value scenario files and the run orchestration behind the CLI.

Format: one `key = value` per line, '#' comments and blank lines ignored.
Keys are dotted lowercase identifiers, each with one value type in
`_KNOWN_KEYS`. Every value is typed when the file is parsed: unknown keys,
malformed lines and values wrong on their own (`a = abc`, `init = vortex`,
a non-finite `init.*` number, a check option its check would refuse) raise
ParseError with 1-based line and column (and the file's path), so a `run`
refuses its whole batch before any march. `name` must be one file-name
component. The values a model constructor takes (phi, damping, grid,
march config, `init.mollify_eps`, containment bounds) and combinations (a
missing required key, a < b, too few output times for a rate fit) are
refused by their owner in `set_up`, which builds a scenario's models and
initial field once, before any march, and writes nothing. `run_set_up`
makes <output root>/<name>/, then marches, checks and writes there:

    <name>_t<time>.tsv      snapshots (x, u, v, r, W, Z), '#' headers
    <name>_norms.tsv        norm series per output time
    <name>_manifest.txt     echo of the scenario plus check verdicts

`solver` owns this layout (`output_dir`, `write_table`): tables are in full
precision, so files round-trip exactly and reruns are byte-identical
(manifest comment lines carry the wall-clock data and are excluded).
"""

from __future__ import annotations

import codecs
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _fmt
from .errors import ConfigError, KKDampError, ParseError, ValidationError
from .model import Damping, PhiModel, z_invariant
from .solver import (
    Grid1D,
    SolverConfig,
    StateField,
    Trajectory,
    _check_p,
    lp_norm,
    mollify_profile,
    output_dir,
    read_snapshot,
    simulate,
    snapshot_path,
    write_snapshot,
    write_table,
)

# A march keeps every snapshot, 16 B per cell plus about 0.5 KB of objects,
# so an output count is refused where count * (n_cells + 32) passes this
# (1 GiB at 16 B per cell).
MAX_SNAPSHOT_CELLS = 2**26

_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_.")


def _on_off(text: str) -> bool:
    low = text.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(text)


def _file_name(text: str) -> str:
    """`text` if it is one file-name component, which keeps a scenario's
    artifacts inside the output root."""
    if text in (".", "..") or not {"/", "\0", os.sep, os.altsep}.isdisjoint(text):
        raise ValueError(text)
    return text


def _value_type(convert: Callable, accept: Callable, noun: str) -> tuple:
    """A value type that also refuses, as malformed, a converted value that
    `accept` is false for."""
    def typed(text: str):
        if not accept(value := convert(text)):
            raise ValueError(text)
        return value
    return typed, noun


def _words(*words: str) -> tuple:
    """A value type for one of `words`, as written."""
    return _value_type(str, words.__contains__, "/".join(words))


# value types: (converter, noun for the error message); a converter raises
# ValueError, or the ConfigError of a rule's owner, on a malformed value
_NUMBER = (float, "a number")  # "inf" and "nan" too: the model that takes it judges
_FINITE = _value_type(float, math.isfinite, "a finite number")
_TOLERANCE = _value_type(float, lambda tol: 0.0 <= tol < math.inf, "a finite number >= 0")
# _check_p returns None or raises: lp_norm's rule keeps its one owner
_NORM_ORDER = _value_type(float, lambda p: _check_p(p) is None, "a number >= 1 or inf")
_INTEGER = (int, "an integer")
_ON_OFF = (_on_off, "on/off")
_NUMBERS = (lambda text: [float(tok) for tok in text.split(",")], "comma-separated numbers")
_NUMBER_OR_AUTO = (lambda text: text if text == "auto" else float(text), "a number or auto")
_TEXT = (str, "text")
_FILE_NAME = (_file_name, "one file-name component")

# every key a scenario may set, and the type of its value; the check.*
# keys are merged in from CHECKS
_KNOWN_KEYS = {
    **dict.fromkeys(
        "r_max a b x_lo x_hi t_end cfl viscous.eps init.mollify_eps".split(), _NUMBER),
    **{f"init.{key}": _FINITE for key in "u v mean amplitude wavenumber angle angle_amplitude "
       "angle_wavenumber u_left v_left u_right v_right x_jump".split()},
    **dict.fromkeys("n_cells n_outputs".split(), _INTEGER),
    "output_times": _NUMBERS,
    **dict.fromkeys("phi boundary scheme splitting init.file".split(), _TEXT),
    "init": _words("constant", "sine_radial", "riemann_step", "from_file"),
    "snapshots": _words("all", "final", "none"),
    "name": _FILE_NAME,
}


@dataclass
class Entry:
    text: str  # the value as written, which the manifest echoes
    value: object  # the text converted by the key's type
    line: int
    col: int  # 1-based column where the value starts


@dataclass
class Scenario:
    """Parsed scenario: typed entries in file order."""

    entries: dict = field(default_factory=dict)
    path: str | None = None  # the file the text was read from

    def has(self, key: str) -> bool:
        return key in self.entries

    def _entry(self, key: str) -> Entry:
        if key not in self.entries:
            raise ValidationError(key, "required key is missing")
        return self.entries[key]

    def get(self, key: str, default=None):
        """The typed value of `key`; `default` when the file does not set
        it, and a required key when `default` is None."""
        if default is not None and key not in self.entries:
            return default
        return self._entry(key).value

    # older names of `get`, still called from outside the package
    get_str = get_float = get

    def _set_values(self, **keys) -> dict:
        """{argument: value} for each scenario key in `keys` that the file
        sets, so an unset key takes the default of the callee."""
        return {arg: self.entries[key].value for arg, key in keys.items() if key in self.entries}

    # -- model construction --------------------------------------------------

    @property
    def name(self) -> str:
        return self.get("name")

    def phi_model(self) -> PhiModel:
        e = self._entry("phi")
        try:
            return PhiModel.from_spec(e.value, **self._set_values(r_max="r_max"))
        except KKDampError as exc:
            raise ParseError(e.line, e.col, f"phi: {exc}", self.path)

    def damping(self) -> Damping:
        return Damping(self.get("a"), self.get("b"))

    def grid(self) -> Grid1D:
        return Grid1D(self.get("x_lo"), self.get("x_hi"), self.get("n_cells"),
                      **self._set_values(boundary="boundary"))

    def _check_output_count(self, key: str, count: int) -> None:
        n_cells = self.get("n_cells")
        if count * (n_cells + 32) > MAX_SNAPSHOT_CELLS:
            raise ValidationError(
                key, f"{count} snapshots of {n_cells} cells would need more than 1 GiB"
            )

    def solver_config(self) -> SolverConfig:
        t_end = self.get("t_end")
        if self.has("output_times") and self.has("n_outputs"):
            raise ValidationError("output_times", "set n_outputs or output_times, not both")
        if self.has("output_times"):
            outputs = self.get("output_times")
            self._check_output_count("output_times", len(outputs))
        else:
            n_out = self.get("n_outputs", 2)
            if n_out < 2:
                raise ValidationError("n_outputs", f"need >= 2, got {n_out}")
            self._check_output_count("n_outputs", n_out)
            outputs = None  # SolverConfig refuses a negative or non-finite t_end
            if 0.0 <= t_end < np.inf:
                times = np.linspace(0.0, t_end, n_out)
                if not np.all(np.diff(times) > 0):
                    raise ValidationError(
                        "t_end", f"{n_out} output times from 0 to {t_end:g} are not strictly "
                        "increasing; need a larger t_end"
                    )
                outputs = list(times)[1:]
        return SolverConfig(t_end=t_end, output_times=outputs, **self._set_values(
            scheme="scheme", splitting="splitting", cfl="cfl", eps="viscous.eps"))

    def initial_field(self, grid: Grid1D) -> StateField:
        kind = self.get("init")
        x = grid.centers
        if kind == "constant":
            u = np.full(grid.n_cells, self.get("init.u"))
            v = np.full(grid.n_cells, self.get("init.v"))
        elif kind == "sine_radial":
            mean = self.get("init.mean")
            amp = self.get("init.amplitude")
            wav = self.get("init.wavenumber", 1.0)
            angle = self.get("init.angle", np.pi / 4.0)
            aamp = self.get("init.angle_amplitude", 0.0)
            awav = self.get("init.angle_wavenumber", 1.0)
            r0 = mean + amp * np.sin(wav * x)
            if np.any(r0 < 0):
                raise ValidationError("init.amplitude", "radius profile dips below 0")
            theta = angle + aamp * np.sin(awav * x)
            u = r0 * np.cos(theta)
            v = r0 * np.sin(theta)
        elif kind == "riemann_step":
            left = x < self.get("init.x_jump")
            u = np.where(left, self.get("init.u_left"), self.get("init.u_right"))
            v = np.where(left, self.get("init.v_left"), self.get("init.v_right"))
        else:  # from_file
            e = self._entry("init.file")
            try:
                data = read_snapshot(e.value)
            except (OSError, ValueError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ParseError(
                    e.line, e.col, f"init.file: cannot read {e.value!r}: {reason}", self.path
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

        eps = self.get("init.mollify_eps", 0.0)
        if eps != 0.0:  # 0 is off; mollify_profile refuses nan and negatives
            u = mollify_profile(u, eps, grid)
            v = mollify_profile(v, eps, grid)
        return StateField(grid, u, v, 0.0)


def parse_scenario_text(text: str, path: str | None = None) -> Scenario:
    sc = Scenario(path=path)
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(ln, 1, "expected 'key = value'", path)
        key_part, _, value_part = raw_line.partition("=")
        key = key_part.strip()
        if not key:
            raise ParseError(ln, 1, "empty key", path)
        for off, ch in enumerate(key):
            if ch not in _KEY_CHARS:
                raise ParseError(
                    ln, raw_line.index(key) + off + 1, f"bad character {ch!r} in key", path
                )
        if key not in _KNOWN_KEYS:
            raise ParseError(ln, raw_line.index(key) + 1, f"unknown key {key!r}", path)
        value = value_part.strip()
        if not value:
            raise ParseError(ln, len(raw_line.rstrip()) + 1, f"{key}: empty value", path)
        col = raw_line.index(value, raw_line.index("=")) + 1
        if key in sc.entries:
            raise ParseError(ln, raw_line.index(key) + 1, f"duplicate key {key!r}", path)
        convert, noun = _KNOWN_KEYS[key]
        try:
            typed = convert(value)
        except (ValueError, ConfigError):
            raise ParseError(ln, col, f"{key}: expected {noun}, got {value!r}", path)
        sc.entries[key] = Entry(text=value, value=typed, line=ln, col=col)
    if "name" not in sc.entries:
        raise ValidationError("name", "required key is missing")
    return sc


def parse_scenario(path) -> Scenario:
    """Parse the UTF-8 scenario file at `path`; a leading byte-order mark is
    skipped."""
    data = Path(path).read_bytes()
    # not the utf-8-sig codec: its error offsets count from after the mark
    skip = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[skip:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = skip + exc.start  # the first byte of the file that does not decode
        line, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        raise ParseError(line, col, f"byte 0x{data[at]:02x} is not UTF-8", str(path)) from None
    return parse_scenario_text(text, path=str(path))


@dataclass
class RunResult:
    name: str
    out_dir: Path
    passed: bool
    checks: dict
    artifacts: list
    trajectory: Trajectory


def _write_norm_series(traj: Trajectory, path: Path) -> Path:
    fields = traj.fields
    with np.errstate(divide="ignore", invalid="ignore"):
        sup_z = [np.max(np.abs(f.u / f.v)) if np.all(f.v != 0.0) else np.nan for f in fields]
    norms = [[lp_norm(f, p) for f in fields] for p in (1, 2, 4, np.inf)]
    sup_r = np.array(norms[-1])
    return write_table(path, ("t", "l1", "l2", "l4", "linf", "sup_abs_z", "sup_r_ratio"),
                       ([f.t for f in fields], *norms, sup_z, sup_r / max(sup_r[0], 1e-300)))


def _snapshot_selection(sc: Scenario, items: list) -> list:
    """The entries the `snapshots` mode selects from a per-output list
    that starts with the initial state."""
    selections = {"all": list(items), "final": items[-1:], "none": []}
    return selections[sc.get("snapshots", "all")]


def _schedule_key(sc: Scenario) -> str:
    """The key that sets the scenario's output times."""
    return "output_times" if sc.has("output_times") else "n_outputs"


def _check_snapshot_names(sc: Scenario, times) -> None:
    """Two different output times whose snapshot names coincide would
    silently overwrite one file with the other: refuse them."""
    seen: dict[str, float] = {}
    for t in times:
        name = snapshot_path(".", sc.name, t).name
        if name in seen and seen[name] != t:
            raise ValidationError(_schedule_key(sc), f"t = {seen[name]!r} and t = {t!r} "
                                  f"would both be written to {name}")
        seen[name] = t


def check_rate_schedule(sc: Scenario, cfg: SolverConfig, check: str) -> None:
    """Refuse, before the march, a schedule that leaves `check` too few
    times to fit a rate to: fewer than analysis.MIN_FIT_SAMPLES of t = 0
    and cfg.output_times inside analysis.in_fit_window."""
    from .analysis import MIN_FIT_SAMPLES, in_fit_window

    n = int(np.sum(in_fit_window((0.0, *cfg.output_times))))
    if n < MIN_FIT_SAMPLES:
        raise ValidationError(
            _schedule_key(sc), f"{check} fits a rate to the output times in the last 90% "
            f"of the march and needs >= {MIN_FIT_SAMPLES} of them, got {n}"
        )


# -- checks: one entry each, in manifest order ---------------------------------


class Check(NamedTuple):
    """The check that `check.<name> = on` enables, `options` typing its
    `check.<name>.*` keys, so the parser refuses a value the check would
    misread. `set_up` calls `prepare(s)` for each check that is on: it makes
    the refusals that need the set-up (the rate schedule, Sigma) and
    returns what `run` needs. `run(s, prepared, traj)` returns the verdict
    and the values of the check's manifest lines. Each imports the harness
    it runs, so parsing and the march load neither analysis nor region."""

    name: str
    options: dict
    prepare: Callable
    run: Callable

    @property
    def keys(self) -> dict:
        on = f"check.{self.name}"
        return {on: _ON_OFF, **{f"{on}.{key}": kind for key, kind in self.options.items()}}


def _prepare_decay(s: SetUp):
    sc = s.scenario
    check_rate_schedule(sc, s.config, "check.decay")
    return {"p": sc.get("check.decay.p", 2.0), **sc._set_values(weighted="check.decay.weighted")}


def _run_decay(s: SetUp, options, traj: Trajectory):
    from .analysis import decay_harness

    rep = decay_harness(traj, d=s.damping, phi=s.phi, **options)
    return rep.passed, {"fitted_rate": rep.fitted_rate, "theorem_rate": rep.theorem_rate}


def _prepare_containment(s: SetUp):
    """Sigma, its `auto` bounds taken from the initial field, and the tolerance."""
    sc = s.scenario
    from .region import RegionSigma

    z0 = z_invariant(s.init.u, s.init.v)
    c0 = sc.get("check.containment.c0", "auto")
    c1 = sc.get("check.containment.c1", 0.0)
    c2 = sc.get("check.containment.c2", "auto")
    if c0 == "auto":
        c0 = float(np.max(s.phi.phi(s.init.r)))
    if c1 == "auto":
        c1 = float(np.min(z0))
    if c2 == "auto":
        c2 = float(np.max(z0))
    return {"sigma": RegionSigma(c0=c0, c1=c1, c2=c2),
            **sc._set_values(tol="check.containment.tol")}


def _run_containment(s: SetUp, options, traj: Trajectory):
    from .region import trajectory_containment

    rep = trajectory_containment(traj, phi=s.phi, **options)
    return rep.passed, {**asdict(options["sigma"]), "max_violation": rep.max_violation}


def _prepare_invariants(s: SetUp):
    sc = s.scenario
    # with a = b it fits a rate only if sup |Z| moves, which the march decides
    if s.damping.a > s.damping.b:
        check_rate_schedule(sc, s.config, "check.invariants")
    return sc._set_values(tol="check.invariants.tol")


def _run_invariants(s: SetUp, options, traj: Trajectory):
    from .analysis import riemann_invariant_diagnostics

    rep = riemann_invariant_diagnostics(traj, s.phi, s.damping, **options)
    return rep.passed, {"fitted_z_rate": rep.fitted_z_rate,
                        "expected_z_rate": rep.expected_z_rate}


CHECKS = (
    Check("decay", {"p": _NORM_ORDER, "weighted": _ON_OFF}, _prepare_decay, _run_decay),
    Check("containment",
          {**dict.fromkeys(("c0", "c1", "c2"), _NUMBER_OR_AUTO), "tol": _TOLERANCE},
          _prepare_containment, _run_containment),
    Check("invariants", {"tol": _TOLERANCE}, _prepare_invariants, _run_invariants),
)
_KNOWN_KEYS.update(item for check in CHECKS for item in check.keys.items())


@dataclass
class SetUp:
    """A scenario ready to march: what `set_up` built from it."""

    scenario: Scenario
    phi: PhiModel
    damping: Damping
    init: StateField
    config: SolverConfig
    out_dir: Path  # <output root>/<name>, which run_set_up makes
    checks: dict = field(default_factory=dict)  # {name: what its prepare returned}, checks on


def set_up(sc: Scenario, out_root=None) -> SetUp:
    """Build the scenario's models, config and initial field, let each
    check that is on make its refusals and prepare its run, check the
    snapshot names and warn if phi fails the structure condition: once
    per scenario, before any march, and writing nothing."""
    phi, d, grid, cfg = sc.phi_model(), sc.damping(), sc.grid(), sc.solver_config()
    s = SetUp(sc, phi, d, sc.initial_field(grid), cfg, output_dir(out_root, sc.name))
    s.checks = {c.name: c.prepare(s) for c in CHECKS if sc.get(f"check.{c.name}", False)}
    _check_snapshot_names(sc, _snapshot_selection(sc, [s.init.t, *cfg.output_times]))
    if not phi.c1_report.satisfied:
        warnings.warn(
            f"{phi.label} fails the structure condition (r phi' vanishes); "
            f"continuing, but well-posedness results do not apply (scenario {sc.name})",
            stacklevel=2,
        )
    return s


def run_scenario(sc: Scenario, out_root=None) -> RunResult:
    """Set the scenario up and run it (`run_set_up`)."""
    return run_set_up(set_up(sc, out_root))


def run_set_up(s: SetUp) -> RunResult:
    """Make the output directory, march, run the enabled checks, write the artifacts."""
    t_wall = time.perf_counter()
    sc, phi, out_dir = s.scenario, s.phi, s.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = simulate(s.init, phi, s.damping, s.config)

    checks: dict[str, bool] = {}
    details: list[str] = []
    for check in CHECKS:
        if check.name in s.checks:
            ok, values = check.run(s, s.checks[check.name], traj)
            checks[check.name] = ok
            details += [f"check.{check.name}.{key} = {_fmt(x)}" for key, x in values.items()]
            details.append(f"check.{check.name}.passed = {str(ok).lower()}")
    passed = all(checks.values())

    artifacts = [write_snapshot(f, phi, sc.name, out_dir)
                 for f in _snapshot_selection(sc, traj.fields)]
    artifacts.append(_write_norm_series(traj, out_dir / f"{sc.name}_norms.tsv"))

    manifest = out_dir / f"{sc.name}_manifest.txt"
    elapsed = time.perf_counter() - t_wall
    with open(manifest, "w") as fh:
        fh.write(f"# generated by kkdamp {__version__}\n")
        fh.write(f"# timestamp_utc = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
        fh.write(f"# elapsed_seconds = {elapsed:.3f}\n")
        for key in sc.entries:
            fh.write(f"{key} = {sc.entries[key].text}\n")
        fh.write(f"n_steps = {traj.n_steps}\n")
        fh.write(f"avg_dt = {_fmt(traj.avg_dt)}\n")
        for line in details:
            fh.write(line + "\n")
        fh.write(f"passed = {str(passed).lower()}\n")
    artifacts.append(manifest)

    return RunResult(sc.name, out_dir, passed, checks, artifacts, traj)
