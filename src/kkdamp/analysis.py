"""Diagnostics of a computed trajectory: norm decay fits against the
guaranteed rates, and Riemann-invariant envelopes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientData
from .model import Damping, PhiModel, z_invariant
# decay_harness calls lp_norm by this module's name, which the benchmark tracer counts
from .solver import Trajectory, lp_norm


# -- decay fits ---------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    fitted_rate: float
    theorem_rate: float
    rate_band: tuple[float, float]
    pointwise_ok: bool
    rate_band_ok: bool
    passed: bool


MIN_FIT_SAMPLES = 5  # the fewest samples `fit_exponential_rate` fits


def in_fit_window(times) -> np.ndarray:
    """Mask of the increasing times inside the fit window, the last 90% of
    the time span, with 1e-15 slack at its start."""
    times = np.asarray(times, dtype=float)
    t0, t1 = times[0], times[-1]
    return times >= t0 + 0.1 * (t1 - t0) - 1e-15


def fit_exponential_rate(times, values) -> float:
    """The rate of an OLS fit of log(values) = log K - rate * t on the fit
    window (`in_fit_window`). Zero or negative values are excluded."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = in_fit_window(times) & (values > 0)
    if int(np.sum(mask)) < MIN_FIT_SAMPLES:
        raise InsufficientData(
            f"rate fit needs >= {MIN_FIT_SAMPLES} positive samples in the window, "
            f"got {int(np.sum(mask))}"
        )
    tt = times[mask]
    yy = np.log(values[mask])
    if not np.sum(tt * tt) > 0.0:  # polyfit divides the t column by its norm
        raise InsufficientData(f"rate fit cannot resolve a rate over t = {tt[0]:g} to {tt[-1]:g}")
    return -float(np.polyfit(tt, yy, 1)[0])


def decay_harness(
    traj: Trajectory,
    p: float,
    d: Damping,
    phi: PhiModel | None = None,
    weighted: bool = False,
) -> DecayReport:
    """Fit the decay rate of the L^p norm of r along a trajectory and
    compare against the guaranteed rate.

    Unweighted (periodic mass/energy argument): rate min(a, b), and the
    fitted rate should land in [min(a,b), max(a,b)] up to the band slack.
    Weighted (k = solver.weight): the Gronwall chain gives the signed
    rate min(a,b) - 2 sup |phi| (decay only when positive), checked
    one-sidedly; requires phi for the sup, which is taken over the radii
    the data reach: [0, r_hi], r_hi the largest radius of any snapshot
    capped at r_max (|phi(0)| when every snapshot is zero). The rate is
    fitted over the last 90% of the time span, and the envelope check is
    norms <= 1.05 norm0 e^{-rate (t - t0)}."""
    times = traj.times
    norms = np.array([lp_norm(f, p, weighted) for f in traj.fields])

    if not weighted:
        theorem_rate = min(d.a, d.b)
    else:
        if phi is None:
            raise ConfigError("weighted decay needs the phi model for sup phi")
        r_hi = min(max(float(np.max(f.r)) for f in traj.fields), phi.r_max)
        sup = phi.sup_phi(r_hi) if r_hi > 0.0 else abs(phi.phi0)
        theorem_rate = min(d.a, d.b) - 2.0 * sup

    fitted_rate = fit_exponential_rate(times, norms)

    slack = max(0.05 * max(d.a, d.b), 1e-3)
    if not weighted:
        band = (min(d.a, d.b) - slack, max(d.a, d.b) + slack)
        rate_band_ok = band[0] <= fitted_rate <= band[1]
    else:
        band = (theorem_rate - slack, np.inf)
        rate_band_ok = fitted_rate >= band[0]

    envelope = norms[0] * np.exp(-theorem_rate * (times - times[0]))
    pointwise_ok = bool(np.all(norms <= 1.05 * envelope))

    return DecayReport(
        fitted_rate=fitted_rate,
        theorem_rate=float(theorem_rate),
        rate_band=(float(band[0]), float(band[1])),
        pointwise_ok=pointwise_ok,
        rate_band_ok=bool(rate_band_ok),
        passed=bool(pointwise_ok and rate_band_ok),
    )


# -- Riemann-invariant diagnostics -------------------------------------------


@dataclass(frozen=True)
class RiemannInvariantReport:
    expected_z_rate: float
    fitted_z_rate: float
    max_z_envelope_deviation: float
    z_envelope_ok: bool
    w_max_principle_ok: bool
    passed: bool


def riemann_invariant_diagnostics(
    traj: Trajectory,
    phi: PhiModel,
    d: Damping,
    tol: float = 5e-2,
) -> RiemannInvariantReport:
    """Tracks sup |Z| against the exact envelope e^{-(a-b) t} sup |Z_0|
    (Z is transported at speed lambda_1 and damped at rate a - b) and the
    max principle for W = phi(r)."""
    times = traj.times
    sup_z = np.empty(times.size)
    sup_w = np.empty(times.size)
    for k, f in enumerate(traj.fields):
        sup_z[k] = float(np.max(np.abs(z_invariant(f.u, f.v))))
        sup_w[k] = float(np.max(np.asarray(phi.phi(f.r), dtype=float)))

    envelope = sup_z[0] * np.exp(-(d.a - d.b) * (times - times[0]))
    rel_dev = np.abs(sup_z - envelope) / np.where(envelope > 0, envelope, 1.0)
    max_dev = float(np.max(rel_dev))

    if d.a == d.b and np.allclose(sup_z, sup_z[0], rtol=1e-12):
        fitted = 0.0
    else:
        fitted = fit_exponential_rate(times, sup_z)

    w_excess = float(np.max(sup_w - sup_w[0]))
    w_ok = w_excess <= tol * max(sup_w[0], 1e-300)
    z_ok = max_dev <= tol
    return RiemannInvariantReport(
        expected_z_rate=float(d.a - d.b),
        fitted_z_rate=fitted,
        max_z_envelope_deviation=max_dev,
        z_envelope_ok=bool(z_ok),
        w_max_principle_ok=bool(w_ok),
        passed=bool(z_ok and w_ok),
    )

