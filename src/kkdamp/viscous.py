"""Viscous regularization eps * w_xx and the vanishing-viscosity sweep.

The viscous step is the solver's own split step: `SolverConfig.eps` adds
explicit centered diffusion, evaluated on the damped pre-flux data, to the
flux update, and `simulate` caps dt by the diffusion limit. With eps = 0
the added term is skipped entirely and the step is the inviscid one, which
makes the eps -> 0 sweep self-consistent (the last distance is exactly
what the viscous path produces, not a reimplementation).

`ViscousConfig`, `viscous_step` and `viscous_simulate` keep the older
names of the viscous path importable."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, StabilityViolation
from .model import Damping, PhiModel
from .solver import SolverConfig, StateField, Trajectory, simulate, step_once

ViscousConfig = SolverConfig


def viscous_step(
    f: StateField,
    phi: PhiModel,
    d: Damping,
    cfg: SolverConfig,
    dt: float,
) -> StateField:
    """One split step with cfg's scheme, splitting and eps. Raises
    StabilityViolation when dt exceeds the diffusion limit (the advective
    limit raises CFLViolation inside the flux update)."""
    limit = cfg.diffusion_limit(f.grid.dx)
    if dt > limit * (1.0 + 1e-9):
        raise StabilityViolation(f"dt={dt:g} exceeds diffusion limit {limit:g}")
    return step_once(f, phi, d, dt, cfg.scheme, cfg.splitting, cfg.eps)


def viscous_simulate(
    init: StateField, phi: PhiModel, d: Damping, cfg: SolverConfig
) -> Trajectory:
    """The solver's march; cfg.eps sets the viscosity."""
    return simulate(init, phi, d, cfg)


@dataclass(frozen=True)
class SweepRow:
    eps: float
    l1_distance: float
    n_steps: int


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    strictly_decreasing: bool
    distances: np.ndarray


def vanishing_viscosity_sweep(
    init: StateField,
    phi: PhiModel,
    d: Damping,
    cfg: SolverConfig,
    eps_values: Sequence[float],
) -> SweepReport:
    """L1 distance between the viscous and inviscid solutions at the final
    output time, for each eps in decreasing order."""
    eps_values = [float(e) for e in eps_values]
    if len(eps_values) < 2 or any(e < 0 for e in eps_values):
        raise ConfigError("need at least two nonnegative eps values")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ConfigError("eps values must be strictly decreasing")

    reference = simulate(init, phi, d, replace(cfg, eps=0.0))
    ref = reference[-1]
    dx = init.grid.dx
    rows = []
    for e in eps_values:
        traj = simulate(init, phi, d, replace(cfg, eps=e))
        fin = traj[-1]
        dist = float(dx * np.sum(np.abs(fin.u - ref.u) + np.abs(fin.v - ref.v)))
        rows.append(SweepRow(eps=e, l1_distance=dist, n_steps=traj.n_steps))
    dists = np.array([row.l1_distance for row in rows])
    return SweepReport(
        rows=tuple(rows),
        strictly_decreasing=bool(np.all(np.diff(dists) < 0.0)),
        distances=dists,
    )
