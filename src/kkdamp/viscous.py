"""Viscous regularization eps * w_xx and the vanishing-viscosity sweep.

There is no separate viscous stepper: `SolverConfig.eps` adds explicit
centered diffusion, evaluated on the damped pre-flux data, to the solver's
flux update, `SolverConfig.stable_dt` keeps speed dt/dx + 2 eps dt/dx^2 at
2 diffusion_number (`solver.step_once` refuses it above 1, see
`solver.explicit_limit`), and `solver.simulate` and `solver.step_once` run
it. With eps = 0 the added term is skipped entirely and the step is the
inviscid one, which makes the eps -> 0 sweep self-consistent (the last
distance is exactly what the viscous path produces, not a
reimplementation).

`ViscousConfig` is `SolverConfig` under its older name, kept because the
benchmark workloads and the acceptance tests import it from here."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import Damping, PhiModel
from .solver import SolverConfig, StateField, simulate

ViscousConfig = SolverConfig


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
