"""Diagnostics built around the damped system: exact oracles for smooth
regimes, norm decay fits, weak entropy residuals against space-time test
functions, and Riemann-invariant envelopes.

Oracles used for cross-checks:

* constant phi decouples the channels into damped linear transport with
  the closed-form solution profile(x - c t) exp(-rate t);
* equal damping (a = b) closes the radial equation
  r_t + (r phi(r))_x + a r = 0, solved along characteristics
  X(xi, t) = xi + int_0^t lambda_2(r0(xi) e^{-a s}) ds with amplitude
  r = r0(xi) e^{-a t}, valid until characteristics cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientData,
    RootBracketFailure,
    ShockFormed,
    TestFunctionSupport,
)
from .model import Damping, PhiModel, z_invariant
# decay_harness calls lp_norm by this module's name, which the benchmark tracer counts
from .solver import StateField, Trajectory, bump, bump_derivative, lp_norm, weight, weight_slope

if TYPE_CHECKING:
    from .entropy import EntropyPair


# -- closed-form oracles ----------------------------------------------------


def exact_scalar_solution(profile: Callable, c: float, rate: float, x, t: float):
    """Damped linear transport at speed c: profile(x - c t) * exp(-rate t).
    Solves w_t + c w_x + rate * w = 0, the per-channel equation when phi
    is constant."""
    x = np.asarray(x, dtype=float)
    return np.asarray(profile(x - c * t), dtype=float) * np.exp(-rate * t)


def radial_characteristics_oracle(r0: Callable, phi: PhiModel, a: float, x, t: float):
    """Smooth solution of r_t + (r phi(r))_x + a r = 0 by characteristics
    (the radial closure when both channels share the damping rate a).

    Foot points xi solve x = xi + Delta(xi, t) with
    Delta = int_0^t lambda_2(r0(xi) e^{-a s}) ds (48-point Gauss-Legendre
    in s); then r(x, t) = r0(xi) e^{-a t}. Raises ShockFormed when the
    forward map xi -> x stops being increasing on the 8192-point probe grid."""
    if t < 0:
        raise ConfigError(f"t must be nonnegative, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        out = np.asarray(r0(x_arr), dtype=float)
        return out if np.ndim(x) else float(out[0])

    nodes, weights = np.polynomial.legendre.leggauss(48)
    s = 0.5 * t * (nodes + 1.0)
    ws = 0.5 * t * weights
    damp = np.exp(-a * s)

    def delta(xi: np.ndarray) -> np.ndarray:
        return phi.lambda2(np.asarray(r0(xi), dtype=float)[..., None] * damp) @ ws

    # bracket the foot points: pad by the extreme signed speeds
    probe = np.linspace(np.min(x_arr) - 1.0, np.max(x_arr) + 1.0, 512)
    r_hi = float(np.max(np.abs(np.asarray(r0(probe), dtype=float))))
    r_grid = np.linspace(0.0, max(r_hi, 1e-12), 256)
    lam_grid = phi.lambda2(r_grid)
    pad_lo = max(float(np.max(lam_grid)), 0.0) * t + 1e-6
    pad_hi = -min(float(np.min(lam_grid)), 0.0) * t + 1e-6
    xi_grid = np.linspace(np.min(x_arr) - pad_lo, np.max(x_arr) + pad_hi, 8192)
    forward = xi_grid + delta(xi_grid)
    if np.any(np.diff(forward) <= 0.0):
        raise ShockFormed(f"characteristics cross before t = {t:g}")

    def forward_scalar(xi: float) -> float:
        return float(xi + delta(np.array([xi]))[0])

    from scipy.optimize import brentq

    out = np.empty(x_arr.size)
    idx = np.searchsorted(forward, x_arr)
    for j, xj in enumerate(x_arr):
        i = int(idx[j])
        if i <= 0 or i >= forward.size:
            raise RootBracketFailure(f"target x = {xj:g} outside the probed range")
        xi_star = brentq(lambda xi: forward_scalar(xi) - xj, xi_grid[i - 1], xi_grid[i])
        out[j] = float(r0(xi_star)) * np.exp(-a * t)
    return out if np.ndim(x) else float(out[0])


# -- decay fits ---------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    weighted: bool
    norms: np.ndarray
    fitted_rate: float
    k_est: float
    theorem_rate: float
    rate_band: tuple[float, float]
    pointwise_ok: bool
    rate_band_ok: bool
    passed: bool


MIN_FIT_SAMPLES = 5  # the fewest samples `fit_exponential_rate` fits


def in_fit_window(times, window=None) -> np.ndarray:
    """Mask of the times inside the fit window (t_lo, t_hi), 1e-15 slack
    on each side; the default window is the last 90% of the time span."""
    times = np.asarray(times, dtype=float)
    if window is None:
        t0, t1 = times[0], times[-1]
        window = (t0 + 0.1 * (t1 - t0), t1)
    return (times >= window[0] - 1e-15) & (times <= window[1] + 1e-15)


def fit_exponential_rate(times, values, window=None) -> tuple[float, float, int]:
    """OLS fit of log(values) = log K - rate * t on the window
    (`in_fit_window`); returns (rate, K, n_used). Zero or negative values
    are excluded."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = in_fit_window(times, window) & (values > 0)
    if int(np.sum(mask)) < MIN_FIT_SAMPLES:
        raise InsufficientData(
            f"rate fit needs >= {MIN_FIT_SAMPLES} positive samples in the window, "
            f"got {int(np.sum(mask))}"
        )
    tt = times[mask]
    yy = np.log(values[mask])
    if not np.sum(tt * tt) > 0.0:  # polyfit divides the t column by its norm
        raise InsufficientData(f"rate fit cannot resolve a rate over t = {tt[0]:g} to {tt[-1]:g}")
    slope, intercept = np.polyfit(tt, yy, 1)
    return -float(slope), float(np.exp(intercept)), int(np.sum(mask))


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
    if times.size < 5:
        raise InsufficientData("decay harness needs at least five snapshots")
    norms = np.array([lp_norm(f, p, weighted) for f in traj.fields])

    if not weighted:
        theorem_rate = min(d.a, d.b)
    else:
        if phi is None:
            raise ConfigError("weighted decay needs the phi model for sup phi")
        r_hi = min(max(float(np.max(f.r)) for f in traj.fields), phi.r_max)
        sup = phi.sup_phi(r_hi) if r_hi > 0.0 else abs(phi.phi0)
        theorem_rate = min(d.a, d.b) - 2.0 * sup

    fitted_rate, k_est, _ = fit_exponential_rate(times, norms)

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
        weighted=weighted,
        norms=norms,
        fitted_rate=fitted_rate,
        k_est=k_est,
        theorem_rate=float(theorem_rate),
        rate_band=(float(band[0]), float(band[1])),
        pointwise_ok=pointwise_ok,
        rate_band_ok=bool(rate_band_ok),
        passed=bool(pointwise_ok and rate_band_ok),
    )


# -- weak entropy residuals ---------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeBump:
    """Nonnegative C^1 test function j((x-x0)/wx) j((t-t0)/wt) built from
    the standard smooth bump, supported on the open box
    (x0 - wx, x0 + wx) x (t0 - wt, t0 + wt)."""

    x0: float
    t0: float
    wx: float
    wt: float

    def value(self, x, t: float):
        return bump((np.asarray(x, dtype=float) - self.x0) / self.wx) * float(
            bump((t - self.t0) / self.wt)
        )

    def partial_x(self, x, t: float):
        return (
            bump_derivative((np.asarray(x, dtype=float) - self.x0) / self.wx)
            / self.wx
            * float(bump((t - self.t0) / self.wt))
        )

    def partial_t(self, x, t: float):
        return bump((np.asarray(x, dtype=float) - self.x0) / self.wx) * float(
            bump_derivative((t - self.t0) / self.wt) / self.wt
        )


@dataclass(frozen=True)
class EntropyResidualReport:
    residuals: np.ndarray
    max_residual: float
    passed: bool | None


def entropy_source(f: StateField, pair: EntropyPair, d: Damping) -> np.ndarray:
    """grad(eta) . (a u, b v) = eta'(r) (a u^2 + b v^2) / r, continued by
    zero at r = 0 (eta'(r) = O(r^{m-1}) keeps the limit finite)."""
    r = f.r
    with np.errstate(divide="ignore", invalid="ignore"):
        src = np.asarray(pair.deta(r), dtype=float) * (
            d.a * f.u**2 + d.b * f.v**2
        ) / np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, src, 0.0)


def entropy_residual(
    traj: Trajectory,
    pair: EntropyPair,
    d: Damping,
    thetas: Sequence[SpaceTimeBump],
    tol: float | None = None,
) -> EntropyResidualReport:
    """Weak entropy production against nonnegative test functions:

        R(theta) = - int int [ eta theta_t + q theta_x
                               - grad(eta).(a u, b v) theta ] dx dt.

    Entropy solutions give R <= 0 for every admissible theta (equality in
    smooth regions); the scheme reproduces this up to truncation noise.
    Time integration uses the trajectory snapshots (trapezoid weights),
    so snapshots must resolve the bump's time width."""
    times = traj.times
    if times.size < 8:
        raise InsufficientData("entropy residual needs a densely sampled trajectory")
    grid = traj.grid
    x = grid.centers
    t_lo, t_hi = float(times[0]), float(times[-1])
    for th in thetas:
        if th.wx <= 0 or th.wt <= 0:
            raise ConfigError("bump widths must be positive")
        if not (grid.x_lo < th.x0 - th.wx and th.x0 + th.wx < grid.x_hi):
            raise TestFunctionSupport(
                f"x support [{th.x0 - th.wx:g}, {th.x0 + th.wx:g}] touches the domain"
            )
        if not (t_lo < th.t0 - th.wt and th.t0 + th.wt < t_hi):
            raise TestFunctionSupport(
                f"t support [{th.t0 - th.wt:g}, {th.t0 + th.wt:g}] touches the window"
            )

    diffs = np.diff(times)
    wt = np.empty(times.size)
    wt[0] = diffs[0] / 2.0
    wt[-1] = diffs[-1] / 2.0
    wt[1:-1] = (diffs[:-1] + diffs[1:]) / 2.0

    residuals = np.zeros(len(thetas))
    for k, f in enumerate(traj.fields):
        r = f.r
        eta = np.asarray(pair.eta(r), dtype=float)
        q = np.asarray(pair.q(r), dtype=float)
        src = entropy_source(f, pair, d)
        tk = float(times[k])
        for j, th in enumerate(thetas):
            if abs(tk - th.t0) >= th.wt:
                continue
            integrand = (
                eta * th.partial_t(x, tk) + q * th.partial_x(x, tk) - src * th.value(x, tk)
            )
            residuals[j] -= wt[k] * grid.dx * float(np.sum(integrand))

    max_residual = float(np.max(residuals)) if residuals.size else 0.0
    return EntropyResidualReport(
        residuals=residuals,
        max_residual=max_residual,
        passed=bool(max_residual <= tol) if tol is not None else None,
    )


def calibrate_entropy_tolerance(
    smooth_traj: Trajectory,
    pair: EntropyPair,
    d: Damping,
    thetas: Sequence[SpaceTimeBump],
) -> float:
    """Constant C such that tol = C (dx + avg_dt) bounds the quadrature
    and truncation noise of the residual, estimated from a smooth run
    where the exact residual is zero, with a safety factor of 10."""
    report = entropy_residual(smooth_traj, pair, d, thetas)
    scale = smooth_traj.grid.dx + smooth_traj.avg_dt
    worst = float(np.max(np.abs(report.residuals)))
    return 10.0 * worst / scale


def entropy_tolerance(c: float, traj: Trajectory) -> float:
    return c * (traj.grid.dx + traj.avg_dt)


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

    if d.a == d.b:
        fitted = 0.0 if np.allclose(sup_z, sup_z[0], rtol=1e-12) else float(
            fit_exponential_rate(times, sup_z)[0]
        )
    else:
        fitted = float(fit_exponential_rate(times, sup_z)[0])

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


# -- weighted entropy balance --------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    residuals: np.ndarray        # d/dt E + source - flux, <= 0 up to truncation
    max_residual: float
    rms_residual: float


def weighted_entropy_balance(
    traj: Trajectory,
    pair: EntropyPair,
    d: Damping,
    weighted: bool = False,
) -> BalanceReport:
    """Discrete check of d/dt int eta k dx = int q k' dx - int source k dx
    between consecutive snapshots (time derivative by differencing, right
    side by trapezoid in time), with k = solver.weight when weighted
    and k = 1 otherwise. With k = 1 on a periodic grid this is the plain
    entropy balance; the m = 2 pair gives the energy law."""
    times = traj.times
    if times.size < 2:
        raise InsufficientData("balance needs at least two snapshots")
    grid = traj.grid
    x = grid.centers
    if weighted:
        kx = weight(x)
        dkx = weight_slope(x)
    else:
        kx = np.ones_like(x)
        dkx = np.zeros_like(x)

    def energy(f: StateField) -> float:
        return float(grid.dx * np.sum(np.asarray(pair.eta(f.r), dtype=float) * kx))

    def right_side(f: StateField) -> float:
        q = np.asarray(pair.q(f.r), dtype=float)
        src = entropy_source(f, pair, d)
        return float(grid.dx * np.sum(q * dkx - src * kx))

    energies = np.array([energy(f) for f in traj.fields])
    rhs = np.array([right_side(f) for f in traj.fields])
    dts = np.diff(times)
    lhs = np.diff(energies) / dts
    rhs_mid = 0.5 * (rhs[:-1] + rhs[1:])
    residuals = lhs - rhs_mid
    return BalanceReport(
        residuals=residuals,
        max_residual=float(np.max(residuals)),
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
    )
