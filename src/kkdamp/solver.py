"""Finite-volume solver for the damped system on a uniform 1-D grid.

Hyperbolic update: Rusanov fluxes (local wave-speed dissipation). Damping
update: exact exponential decay per channel. The two are composed per step
by Strang splitting D(dt/2) H(dt) D(dt/2). Because the Rusanov flux is
monotone under the CFL constraint and the damping factors multiply u and v
by equal or channel-wise constant factors, the positive invariant region
{phi(r) <= C0, C1 <= u/v <= C2} with C1 = 0 is preserved discretely. An
optional explicit viscosity eps u_xx is added to the flux update, evaluated
on the same (damped, pre-flux) data.

`step_once` is the one split step and the only function that applies the
flux update (`hyperbolic_substep` is its undamped case), `simulate` the
one marching loop and `SolverConfig.stable_dt` its one step rule. One
inequality bounds the explicit step: the flux update plus eps u_xx is a
convex combination of neighbouring cells while
speed dt/dx + 2 eps dt/dx^2 <= 1, i.e. dt <= `explicit_limit(dx, speed,
eps)`, which is the CFL limit dx / speed when eps = 0. `step_once`
guards that limit and `stable_dt` keeps dt at a fraction of it. Per step
the top wave speed of the current state sets dt; for every family but a
tabulated one it is evaluated only on the few cells that can hold the top
radius (see `max_wavespeed`). `step_once` marches the grid in tiles of
TILE cells: on each tile's damped slice, with a one-cell halo, one hypot
and one phi evaluation per cell feed the r <= r_max check, the step guard
and the face fluxes, and the tile writes its cells into the two state
arrays the step returns. Its temporaries are tile-sized, about 0.6 MB in
all, so from 16 TILE cells on a step holds under three state-sized arrays
beyond its input: the two it returns and the tile buffers (the untiled
step held eight). `simulate` recycles state arrays: each step writes into
the arrays of the state two steps back, which `max_wavespeed` first takes
as scratch for u*u and v*v, so a long march makes no state-sized array
per step. `init` and the snapshots are never recycled. Each phi
family supplies the wave speed from r and that phi(r)
(`PhiModel.wave_speed`), so `power` never evaluates r phi'.
Finiteness is validated once per step.
`write_table` owns the format of every artifact table: snapshots, norm
series, the viscosity sweep and entropy-flux tables.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _fmt
from .errors import ConfigError, NonFinite, StabilityViolation, ValidationError
from .model import Damping, PhiModel
from .quadrature import bump, weight

BOUNDARIES = ("periodic", "outflow")

WAVESPEED_FLOOR = 1e-14

# `stable_dt` holds speed dt/dx + 2 eps dt/dx^2 at 2 DIFFUSION_NUMBER = 0.8,
# which damps the grid-scale mode and leaves the step guard slack
DIFFUSION_NUMBER = 0.4

# The most steps one march may take. `simulate` refuses a march whose first
# step predicts more, and stops one that reaches it.
MAX_STEPS = 10_000_000

# `step_once` marches the grid in tiles of this many cells, so each of its
# temporaries is tile-sized (64 KB)
TILE = 8192


@dataclass(frozen=True)
class Grid1D:
    x_lo: float
    x_hi: float
    n_cells: int
    boundary: str = "periodic"

    def __post_init__(self):
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise ValidationError("grid", f"need finite bounds, got [{self.x_lo}, {self.x_hi}]")
        if not self.x_hi > self.x_lo:
            raise ValidationError("grid", f"need x_hi > x_lo, got [{self.x_lo}, {self.x_hi}]")
        if self.n_cells < 8:
            raise ValidationError("grid", f"need n_cells >= 8, got {self.n_cells}")
        if self.boundary not in BOUNDARIES:
            raise ValidationError("grid", f"boundary must be one of {BOUNDARIES}")
        # explicit_limit and the diffusion number take dx^2, which must be a
        # positive normal float (a zero one makes every step limit 0)
        if not sys.float_info.min <= self.dx * self.dx < math.inf:
            raise ValidationError(
                "grid", f"cell width {self.dx:g} is out of range (its square must be a "
                "positive normal float)"
            )

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class StateField:
    """Cell-averaged (u, v) on a grid at time t. Entries must be finite."""

    grid: Grid1D
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        n = self.grid.n_cells
        if self.u.shape != (n,) or self.v.shape != (n,):
            raise ValidationError("state", f"u, v must have shape ({n},)")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise NonFinite(f"non-finite state entries at t = {self.t:g}")

    @property
    def r(self) -> np.ndarray:
        return np.hypot(self.u, self.v)

    @classmethod
    def from_profiles(cls, grid: Grid1D, u0: Callable, v0: Callable) -> "StateField":
        """The field (u0(x), v0(x)) at the cell centers, at t = 0."""
        x = grid.centers
        u = np.broadcast_to(np.asarray(u0(x), dtype=float), x.shape).copy()
        v = np.broadcast_to(np.asarray(v0(x), dtype=float), x.shape).copy()
        return cls(grid, u, v)


def _check_p(p: float) -> None:
    if not p >= 1:  # inf passes, nan does not
        raise ConfigError(f"p must be >= 1 or inf, got {p}")


def lp_norm(f: StateField, p: float, weighted: bool = False) -> float:
    """L^p norm of the radius field r = |(u, v)|, optionally weighted by
    k = quadrature.weight: (integral of r^p k dx)^(1/p); p = inf gives the
    (weighted) sup."""
    _check_p(p)
    r = f.r
    kx = weight(f.grid.centers) if weighted else None
    if p == np.inf:
        vals = r if kx is None else kx * r
        return float(np.max(vals))
    vals = r**p if kx is None else kx * r**p
    return float((f.grid.dx * np.sum(vals)) ** (1.0 / p))


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    t_end: float
    output_times: Sequence[float] | None = None  # None is (t_end,)
    # one value each; both can go once the benchmark stops passing them (ROADMAP item 1)
    scheme: str = "rusanov"
    splitting: str = "strang"
    cfl: float = 0.45
    eps: float = 0.0  # explicit viscosity eps u_xx; 0 is the inviscid solver

    def __post_init__(self):
        for key, value, only, retired in (
            ("scheme", self.scheme, "rusanov", "lax_friedrichs"),
            ("splitting", self.splitting, "strang", "lie"),
        ):
            if value == retired:
                raise ConfigError(f"{key} {retired} was retired; {key} must be {only!r}")
            if value != only:
                raise ConfigError(f"{key} must be {only!r}, got {value!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and nonnegative, got {self.t_end}")
        _check_eps(self.eps)
        # the one schedule of a march: a tuple of floats that ends at t_end
        ts = (self.t_end,) if self.output_times is None else tuple(map(float, self.output_times))
        if not ts or not ts[0] >= 0 or not all(a < b for a, b in zip(ts, ts[1:])):
            raise ConfigError("output_times must be strictly increasing and >= 0")
        if not abs(ts[-1] - self.t_end) <= self.t_end * 1e-12 + 1e-15:
            raise ConfigError(f"output_times must end at t_end = {self.t_end:g}, got {ts[-1]:g}")
        object.__setattr__(self, "output_times", ts)

    def stable_dt(self, dx: float, speed: float) -> float:
        """cfl dx / speed; with viscosity also 2 DIFFUSION_NUMBER times
        explicit_limit, which holds speed dt/dx + 2 eps dt/dx^2 at 0.8, so
        the grid-scale mode is damped and the step guard keeps slack for
        the damped state."""
        dt = self.cfl * dx / speed
        if self.eps == 0.0:
            return dt
        return min(dt, 2.0 * DIFFUSION_NUMBER * explicit_limit(dx, speed, self.eps))


@dataclass
class Trajectory:
    """Snapshots produced by a simulation, in time order, init first."""

    fields: list
    n_steps: int = 0
    avg_dt: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.fields])

    @property
    def grid(self) -> Grid1D:
        return self.fields[0].grid

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, k):
        return self.fields[k]

    def __iter__(self):
        return iter(self.fields)


def _cell_speeds(r: np.ndarray, phi: PhiModel) -> tuple[np.ndarray, np.ndarray]:
    """phi(r) and max(|lambda_1|, |lambda_2|) per cell, after checking
    r <= r_max, so no nan reaches the speed formula. The family supplies
    the speed from r and phi(r) (`PhiModel.wave_speed`): for `power` it
    needs no r phi' evaluation, abs or maximum, and equals the general
    formula bit for bit."""
    phi.check_radius(float(r.max()))
    p = np.asarray(phi.phi(r), dtype=float)
    return p, phi.wave_speed(r, p)


def max_wavespeed(f: StateField, phi: PhiModel, *, _scratch=None) -> float:
    """max over cells of max(|lambda_1|, |lambda_2|), floored at 1e-14 so
    time steps stay finite on identically zero data.

    When phi.speed_grows_with_r, the top speed is the speed at the top
    radius, so hypot, phi and the wave speed are evaluated only on the
    cells whose s = u*u + v*v is at least s.max() (1 - 1e-9) - 1e-300,
    gathered through one index array. s and hypot are
    each within a few ulp of the exact r^2 and r, so the cell with the
    largest hypot always passes: the relative term covers that rounding,
    the absolute term the rounding of squares below the normal range. The
    r <= r_max check thus sees the exact r.max(). The speed is taken over
    every candidate, so ties and ulp-level wobbles of pow among them cannot
    change the result, and a cell left out has a radius smaller by a factor
    about 1 - 5e-10, which pow's rounding cannot undo for gamma >= 1e-6.
    The result is bit-identical to evaluating every cell, which a tabulated
    phi (and a field whose squares overflow) still does."""
    u, v = f.u, f.v
    if phi.speed_grows_with_r:
        uu, vv = _scratch or (None, None)  # simulate's spare pair, unchecked
        with np.errstate(over="ignore"):
            s = np.multiply(u, u, out=uu)
            s += np.multiply(v, v, out=vv)
        top = float(s.max())
        if top < math.inf:
            near = (s >= top * (1.0 - 1e-9) - 1e-300).nonzero()[0]
            u, v = u[near], v[near]
    return max(float(_cell_speeds(np.hypot(u, v), phi)[1].max()), WAVESPEED_FLOOR)


def explicit_limit(dx: float, speed: float, eps: float) -> float:
    """dx^2 / (speed dx + 2 eps): the largest dt for which the Rusanov update
    plus centred diffusion eps w_xx is a convex combination of neighbouring
    cells, i.e. speed dt/dx + 2 eps dt/dx^2 <= 1. With eps = 0 it is the
    CFL limit dx / speed."""
    return dx * dx / (speed * dx + 2.0 * eps)


def hyperbolic_substep(f: StateField, phi: PhiModel, dt: float) -> StateField:
    """One conservative flux update of size dt, no damping: step_once with
    zero rates (both damping factors are exp(-0.0) = 1.0, and multiplying
    by 1.0 is exact). Advances t."""
    return step_once(f, phi, Damping(0.0, 0.0), dt)


def _check_dt(dt: float) -> None:
    if not math.isfinite(dt):
        raise ConfigError(f"dt must be finite, got {dt}")
    if dt < 0:
        raise ConfigError(f"dt must be nonnegative, got {dt}")


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < math.inf:  # nan too
        raise ConfigError(f"eps must be finite and nonnegative, got {eps}")


def damping_substep(f: StateField, d: Damping, dt: float) -> StateField:
    """Exact integration of u_t = -a u, v_t = -b v over dt. Leaves t
    unchanged; the flux update owns the clock."""
    _check_dt(dt)
    return StateField(
        f.grid,
        f.u * np.exp(-d.a * dt),
        f.v * np.exp(-d.b * dt),
        f.t,
    )


def step_once(
    f: StateField, phi: PhiModel, d: Damping, dt: float, *, eps: float = 0.0, _out=None
) -> StateField:
    """One Strang split step of size dt: D(dt/2) H(dt) D(dt/2). D multiplies
    u and v by damping_substep's factors; H is the conservative Rusanov flux
    update plus eps w_xx, taken on the damped data with one ghost cell per
    side, whose face dissipation is the local two-sided wave speed.

    The grid is marched in tiles of TILE cells. Each tile builds its damped
    slice with a one-cell halo in tile-sized buffers; hypot, phi and the
    family's wave speed are evaluated once on it, and the r <= r_max check
    (OutOfRange names the first offending tile's top radius) and the
    Rusanov dissipation read those cell speeds; the tile writes its cells
    straight into the two new state arrays of the result. The one step
    guard dt <= explicit_limit (StabilityViolation, carrying the top speed
    of every tile) runs after the last tile. A negative or non-finite eps
    raises the ConfigError that SolverConfig raises for it. Every cell
    takes the unfused formulas 0.5 (F_i + F_i+1) - 0.5 alpha (w_i+1 - w_i)
    and w - dt/dx (flux_i+1/2 - flux_i-1/2) + nu (w_i+1 - 2 w_i + w_i-1)
    term by term, so results are bit-identical to them whatever the tiling."""
    _check_dt(dt)
    _check_eps(eps)
    n, dx = f.grid.n_cells, f.grid.dx
    new = _out or (np.empty(n), np.empty(n))  # simulate's spare pair, unchecked
    if dt == 0.0:
        np.copyto(new[0], f.u)
        np.copyto(new[1], f.v)
        return StateField(f.grid, *new, f.t + dt)
    half = 0.5 * dt
    decay = (np.exp(-d.a * half), np.exp(-d.b * half))
    # the cells behind the ghosts left of cell 0 and right of cell n - 1
    ghosts = (n - 1, 0) if f.grid.boundary == "periodic" else (0, n - 1)
    lam = dt / dx
    nu = eps * dt / (dx * dx) if eps != 0.0 else 0.0
    top = WAVESPEED_FLOOR
    m = 0
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        if hi - lo != m:  # made once, and again only for a shorter last tile
            m = hi - lo
            ue, ve, work = np.empty(m + 2), np.empty(m + 2), np.empty(m + 2)
            flux, half_alpha = np.empty(m + 1), np.empty(m + 1)
        # entry j of ue and ve holds cell lo - 1 + j, damped
        a, b = max(lo, 1), min(hi + 2, n + 1)
        for e, c, k in ((ue, f.u, decay[0]), (ve, f.v, decay[1])):
            np.multiply(c[a - 1 : b - 1], k, out=e[a - lo : b - lo])
            if lo == 0:
                e[0] = c[ghosts[0]] * k
            if hi == n:
                e[-1] = c[ghosts[1]] * k
        # r goes into `work`: phi and the wave speed come back as new
        # arrays, so `work` is free for the flux once they are taken
        pe, speed = _cell_speeds(np.hypot(ue, ve, out=work), phi)
        top = max(float(speed.max()), top)
        limit = explicit_limit(dx, top, eps)
        if dt > limit * (1.0 + 1e-9):
            continue  # the step is refused after the last tile: no flux for it
        ha = np.maximum(speed[:-1], speed[1:], out=half_alpha)
        ha *= 0.5
        for e, k, out in ((ue, decay[0], new[0]), (ve, decay[1], new[1])):
            fw = np.multiply(e, pe, out=work)
            fl = np.add(fw[:-1], fw[1:], out=flux)
            fl *= 0.5
            jump = np.subtract(e[1:], e[:-1], out=work[:-1])
            jump *= ha
            fl -= jump
            delta = np.subtract(fl[1:], fl[:-1], out=work[:-2])
            delta *= lam
            w = np.subtract(e[1:-1], delta, out=out[lo:hi])
            if eps != 0.0:
                lap = np.multiply(e[1:-1], 2.0, out=work[:-2])
                np.subtract(e[2:], lap, out=lap)
                lap += e[:-2]
                lap *= nu
                w += lap
            w *= k  # the second damping half
    if dt > limit * (1.0 + 1e-9):
        raise StabilityViolation(
            f"dt={dt:g} exceeds stable step {limit:g}: speed dt/dx + 2 eps dt/dx^2 = "
            f"{top * dt / dx + 2.0 * nu:g} > 1 (speed {top:g}, diffusion number "
            f"eps dt/dx^2 = {nu:g})",
            speed=top,
        )
    return StateField(f.grid, new[0], new[1], f.t + dt)


def simulate(
    init: StateField,
    phi: PhiModel,
    d: Damping,
    cfg: SolverConfig,
) -> Trajectory:
    """March from init.t to cfg.t_end; the trajectory is init itself, then
    one snapshot per time in cfg.output_times (hit exactly by truncating
    the final step of each segment). The snapshots share the march's
    arrays rather than copying them. dt is cfg.stable_dt at the current
    data's wave speed, recomputed every step. Damping can make the damped
    state the kernel sees faster than the current one; a step whose guard
    trips is redone once at cfg.stable_dt of the kernel's own top speed.

    Each step writes into the arrays of the state two steps back, which
    `max_wavespeed` first takes as scratch for u*u and v*v (a redone step
    writes into them again), so the states between two snapshots are
    overwritten two steps later. init and the snapshots are never written
    into: where the state two steps back is one of them, as for the first
    two steps, the step gets new arrays.

    Raises ValidationError, naming the config field that sets dt, when the
    first step predicts more than MAX_STEPS steps to t_end, and
    StabilityViolation when a march reaches MAX_STEPS or dt is too small
    to advance t.

    The theory behind the continuous problem assumes r phi'(r) != 0;
    running with a model that fails that check (for example a constant
    phi) is allowed, since the scheme itself does not need it, and the
    march does not warn about it: the condition's status is available as
    phi.c1_report (`scenario.set_up` warns once per scenario)."""
    targets = cfg.output_times
    if targets[0] < init.t - 1e-12:
        raise ConfigError("output time precedes the initial time")
    n, dx = init.grid.n_cells, init.grid.dx
    elapsed = targets[-1] - init.t
    f = init
    out = [init]
    n_steps = 0
    # the next step writes into spare, the arrays of the state one step
    # behind f, or into new ones where that state is init or a snapshot;
    # reusable says whether f is neither
    spare, reusable = None, False
    for target in targets:
        while f.t < target * (1.0 - 1e-15) - 1e-15:
            pair = spare or (np.empty(n), np.empty(n))
            speed = max_wavespeed(f, phi, _scratch=pair)
            stable = cfg.stable_dt(dx, speed)
            dt = min(stable, target - f.t)
            if f.t + dt == f.t:
                raise StabilityViolation(f"dt={dt:.3g} no longer advances t={f.t:.17g}")
            if n_steps == 0 and elapsed > MAX_STEPS * stable:
                key = "cfl" if stable == cfg.cfl * dx / speed else "eps"
                raise ValidationError(
                    key, f"dt = {stable:.3g} needs more than {MAX_STEPS} steps to cover "
                    f"t = {init.t:g} to {targets[-1]:g}"
                )
            if n_steps >= MAX_STEPS:
                raise StabilityViolation(f"march reached {MAX_STEPS} steps at t={f.t:.17g}")
            try:
                g = step_once(f, phi, d, dt, eps=cfg.eps, _out=pair)
            except StabilityViolation as exc:
                # stable_dt at the guard's speed is below the limit that
                # tripped, so it is also below dt and target - f.t
                redo = cfg.stable_dt(dx, exc.speed)
                g = step_once(f, phi, d, redo, eps=cfg.eps, _out=pair)
            spare = (f.u, f.v) if reusable else None
            f, reusable = g, True
            n_steps += 1
        out.append(StateField(f.grid, f.u, f.v, target))  # target clamps away last-step rounding
        reusable = False
    return Trajectory(
        fields=out,
        n_steps=n_steps,
        avg_dt=elapsed / n_steps if n_steps else 0.0,
    )


def mollify_profile(values: np.ndarray, eps: float, grid: Grid1D) -> np.ndarray:
    """Discrete mollification of cell values with the compact bump kernel
    of radius eps: weights w_k proportional to bump(k dx / eps), summed to
    one. Warns when eps < dx (kernel degenerates to the identity). The
    radius may not exceed the domain width x_hi - x_lo."""
    width = grid.x_hi - grid.x_lo
    if not 0 < eps <= width:
        raise ConfigError(f"mollifier radius must lie in (0, x_hi - x_lo = {width:g}], got {eps}")
    values = np.asarray(values, dtype=float)
    dx = grid.dx
    if eps < dx:
        warnings.warn(
            f"mollifier radius {eps:g} under-resolved on dx={dx:g}; "
            "kernel collapses to the identity",
            stacklevel=2,
        )
    half = int(np.ceil(eps / dx))
    w = bump(np.arange(-half, half + 1) * dx / eps)
    w = w / np.sum(w)
    padded = np.pad(values, half, mode="wrap" if grid.boundary == "periodic" else "edge")
    return np.convolve(padded, w, mode="valid")


def snapshot_path(out_dir, run_name: str, t: float) -> Path:
    return Path(out_dir) / f"{run_name}_t{format(float(t), 'g')}.tsv"


def write_table(path, names: Sequence[str], columns: Sequence, comments=()) -> Path:
    """Write '# ' comment lines, a '# ' line of tab-separated column names,
    then one tab-separated row per entry. An integer column is written with
    %d, any other with %.17e, which renders exactly as `_fmt` does (inf,
    -inf and nan included), so tables round-trip and reruns are identical."""
    cols = [np.asarray(c) for c in columns]
    row = "\t".join("%d" if c.dtype.kind in "iu" else "%.17e" for c in cols) + "\n"
    # one %-format over every row, the values taken row by row
    values = tuple(v for entry in zip(*(c.tolist() for c in cols)) for v in entry)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write("# " + "\t".join(names) + "\n")
        fh.write(row * len(cols[0]) % values)
    return Path(path)


def write_snapshot(f: StateField, phi: PhiModel, run_name: str, out_dir) -> Path:
    """Snapshot table with columns x, u, v, r, W, Z under two comment lines
    that name the run, the time, the grid and the phi model."""
    r = f.r
    with np.errstate(divide="ignore", invalid="ignore"):
        z = f.u / f.v
    return write_table(
        snapshot_path(out_dir, run_name, f.t),
        ("x", "u", "v", "r", "W", "Z"),
        (f.grid.centers, f.u, f.v, r, phi.phi(r), z),
        comments=(
            f"run={run_name} t={_fmt(f.t)} n_cells={f.grid.n_cells}",
            f"phi={phi.label} boundary={f.grid.boundary}",
        ),
    )


def read_snapshot(path) -> dict:
    """Inverse of write_snapshot: returns the columns as arrays plus the
    header key=value fields."""
    meta: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        k, _, val = token.partition("=")
                        meta[k] = val
                continue
            rows.append([float(tok) for tok in line.split("\t")])
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 6:
        raise ConfigError(f"{path}: expected six tab-separated columns")
    return {
        "meta": meta,
        "x": data[:, 0],
        "u": data[:, 1],
        "v": data[:, 2],
        "r": data[:, 3],
        "W": data[:, 4],
        "Z": data[:, 5],
    }
