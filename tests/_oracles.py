"""Independent references shared by the tests: finite-difference and
closed-form oracles, and the instruments that the acceptance gate measures
the solver with. They may use `PhiModel`, read a computed `Trajectory` and
take the smooth `solver.bump` and `solver.weight` as given, but they never
run solver code: no step, no face flux, no march.

Closed-form oracles:

* the damping substep multiplies u by exp(-a dt) and v by exp(-b dt),
  the exact solution of u_t = -a u, v_t = -b v;
* constant phi decouples the channels into damped linear transport with
  the closed-form solution profile(x - c t) exp(-rate t);
* equal damping (a = b) closes the radial equation
  r_t + (r phi(r))_x + a r = 0, solved along characteristics
  X(xi, t) = xi + int_0^t lambda_2(r0(xi) e^{-a s}) ds with amplitude
  r = r0(xi) e^{-a t}, valid until characteristics cross.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from kkdamp import model as md
from kkdamp.errors import ConfigError, InsufficientData
from kkdamp.solver import StateField, bump, weight


class OracleError(Exception):
    """An oracle does not apply: characteristics have crossed, a target lies
    outside the probed foot points, or a test function's support touches
    the domain or the time window."""


# -- flux and its derivatives --------------------------------------------------


def raw_flux(u, v, phi):
    r = np.hypot(u, v)
    p = np.asarray(phi.phi(r), dtype=float)
    return u * p, v * p


def fd_jacobian(u, v, phi, h_rel=1e-6):
    """Central-difference Jacobian of the flux at (u, v)."""
    hu = h_rel * max(1.0, abs(u))
    hv = h_rel * max(1.0, abs(v))
    fu_p = raw_flux(u + hu, v, phi)
    fu_m = raw_flux(u - hu, v, phi)
    fv_p = raw_flux(u, v + hv, phi)
    fv_m = raw_flux(u, v - hv, phi)
    return np.array(
        [
            [(fu_p[0] - fu_m[0]) / (2 * hu), (fv_p[0] - fv_m[0]) / (2 * hv)],
            [(fu_p[1] - fu_m[1]) / (2 * hu), (fv_p[1] - fv_m[1]) / (2 * hv)],
        ]
    )


def jacobian(s, phi):
    """The analytic dF/d(u,v) = phi I + (phi'/r) w w^T at a `State`, and its
    limit phi(0) I at r = 0."""
    r = s.r
    if r == 0.0:
        return np.eye(2) * phi.phi0
    p = float(phi.phi(r))
    dp_over_r = float(phi.dphi(r)) / r
    u, v = s.u, s.v
    return np.array(
        [
            [p + dp_over_r * u * u, dp_over_r * u * v],
            [dp_over_r * u * v, p + dp_over_r * v * v],
        ]
    )


def fd_grad(fn, u, v, h_rel=1e-6):
    """Central-difference gradient of a scalar function of (u, v)."""
    hu = h_rel * max(1.0, abs(u))
    hv = h_rel * max(1.0, abs(v))
    return np.array(
        [
            (fn(u + hu, v) - fn(u - hu, v)) / (2 * hu),
            (fn(u, v + hv) - fn(u, v - hv)) / (2 * hv),
        ]
    )


def random_states(rng, n, r_lo=0.1, r_hi=3.0, quadrant=False):
    """Seeded states with radius in [r_lo, r_hi]; quadrant=True keeps
    u, v strictly positive (angle away from the axes)."""
    r = rng.uniform(r_lo, r_hi, n)
    if quadrant:
        theta = rng.uniform(0.15, np.pi / 2 - 0.15, n)
    else:
        theta = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.cos(theta), r * np.sin(theta)


def bump_derivative(s):
    """d/ds of `solver.bump`: bump(s) * (-2 s / (1 - s^2)^2) inside the support."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = np.exp(-1.0 / one) * (-2.0 * si / (one * one))
    return out[()]


def weight_slope(x):
    """d/dx of `solver.weight`: -h'(x) k(x) with h'(x) = x / sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    return -(x / np.sqrt(1.0 + x * x)) * weight(x)


# -- closed-form solutions ------------------------------------------------------


def exact_scalar_solution(profile, c, rate, x, t):
    """Damped linear transport at speed c: profile(x - c t) * exp(-rate t).
    Solves w_t + c w_x + rate * w = 0, the per-channel equation when phi
    is constant."""
    x = np.asarray(x, dtype=float)
    return np.asarray(profile(x - c * t), dtype=float) * np.exp(-rate * t)


def damping_substep(f, d, dt):
    """Exact integration of u_t = -a u, v_t = -b v over dt, the D of the
    split step. Leaves t unchanged; the flux update owns the clock."""
    return StateField(
        f.grid,
        f.u * np.exp(-d.a * dt),
        f.v * np.exp(-d.b * dt),
        f.t,
    )


def radial_characteristics_oracle(r0, phi, a, x, t):
    """Smooth solution of r_t + (r phi(r))_x + a r = 0 by characteristics
    (the radial closure when both channels share the damping rate a).

    Foot points xi solve x = xi + Delta(xi, t) with
    Delta = int_0^t lambda_2(r0(xi) e^{-a s}) ds (48-point Gauss-Legendre
    in s); then r(x, t) = r0(xi) e^{-a t}. Raises OracleError when the
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

    def delta(xi):
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
        raise OracleError(f"characteristics cross before t = {t:g}")

    def forward_scalar(xi):
        return float(xi + delta(np.array([xi]))[0])

    out = np.empty(x_arr.size)
    idx = np.searchsorted(forward, x_arr)
    for j, xj in enumerate(x_arr):
        i = int(idx[j])
        if i <= 0 or i >= forward.size:
            raise OracleError(f"target x = {xj:g} outside the probed range")
        xi_star = brentq(lambda xi: forward_scalar(xi) - xj, xi_grid[i - 1], xi_grid[i])
        out[j] = float(r0(xi_star)) * np.exp(-a * t)
    return out if np.ndim(x) else float(out[0])


# -- entropy pairing ---------------------------------------------------------------


@dataclass(frozen=True)
class PairingReport:
    max_residual: float
    passed: bool


def verify_pair(pair, phi, states):
    """Residual | grad(eta) . dF - grad(q) | at sample (u, v) states, with
    both gradients taken by `fd_grad` (relative step 1e-6) so the check does
    not reuse the analytic construction it is verifying, and dF = `jacobian`.
    Passes at 1e-6: the difference gradients floor the achievable residual
    near sqrt(eps), far above the flux's quadrature tolerance
    (`quadrature.ABS_TOL`)."""

    def eta_of(u, v):
        return float(np.asarray(np.hypot(u, v), dtype=float) ** pair.m)

    def q_of(u, v):
        return float(pair.q(np.hypot(u, v)))

    worst = 0.0
    for s in states:
        u, v = float(s[0]), float(s[1])
        residual = fd_grad(eta_of, u, v) @ jacobian(md.State(u, v), phi) - fd_grad(q_of, u, v)
        worst = max(worst, float(np.max(np.abs(residual))))
    return PairingReport(max_residual=worst, passed=bool(worst <= 1e-6))


# -- weak entropy residuals and balances ---------------------------------------------


@dataclass(frozen=True)
class SpaceTimeBump:
    """Nonnegative C^1 test function j((x-x0)/wx) j((t-t0)/wt) built from
    the standard smooth bump, supported on the open box
    (x0 - wx, x0 + wx) x (t0 - wt, t0 + wt)."""

    x0: float
    t0: float
    wx: float
    wt: float

    def value(self, x, t):
        return bump((np.asarray(x, dtype=float) - self.x0) / self.wx) * float(
            bump((t - self.t0) / self.wt)
        )

    def partial_x(self, x, t):
        return (
            bump_derivative((np.asarray(x, dtype=float) - self.x0) / self.wx)
            / self.wx
            * float(bump((t - self.t0) / self.wt))
        )

    def partial_t(self, x, t):
        return bump((np.asarray(x, dtype=float) - self.x0) / self.wx) * float(
            bump_derivative((t - self.t0) / self.wt) / self.wt
        )


@dataclass(frozen=True)
class EntropyResidualReport:
    residuals: np.ndarray
    max_residual: float
    passed: bool | None


def entropy_source(f, pair, d):
    """grad(eta) . (a u, b v) = eta'(r) (a u^2 + b v^2) / r, continued by
    zero at r = 0 (eta'(r) = O(r^{m-1}) keeps the limit finite)."""
    r = f.r
    with np.errstate(divide="ignore", invalid="ignore"):
        src = pair.m * r ** (pair.m - 1.0) * (
            d.a * f.u**2 + d.b * f.v**2
        ) / np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, src, 0.0)


def entropy_residual(traj, pair, d, thetas, tol=None):
    """Weak entropy production against nonnegative test functions:

        R(theta) = - int int [ eta theta_t + q theta_x
                               - grad(eta).(a u, b v) theta ] dx dt.

    Entropy solutions give R <= 0 for every admissible theta (equality in
    smooth regions); the scheme reproduces this up to truncation noise.
    Time integration uses the trajectory snapshots (trapezoid weights),
    so snapshots must resolve the bump's time width. OracleError when a
    support touches the domain or the time window."""
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
            raise OracleError(
                f"x support [{th.x0 - th.wx:g}, {th.x0 + th.wx:g}] touches the domain"
            )
        if not (t_lo < th.t0 - th.wt and th.t0 + th.wt < t_hi):
            raise OracleError(
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
        eta = np.asarray(r, dtype=float) ** pair.m
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


def calibrate_entropy_tolerance(smooth_traj, pair, d, thetas):
    """Constant C such that tol = C (dx + avg_dt) bounds the quadrature
    and truncation noise of the residual, estimated from a smooth run
    where the exact residual is zero, with a safety factor of 10."""
    report = entropy_residual(smooth_traj, pair, d, thetas)
    scale = smooth_traj.grid.dx + smooth_traj.avg_dt
    worst = float(np.max(np.abs(report.residuals)))
    return 10.0 * worst / scale


def entropy_tolerance(c, traj):
    return c * (traj.grid.dx + traj.avg_dt)


@dataclass(frozen=True)
class BalanceReport:
    residuals: np.ndarray        # d/dt E + source - flux, <= 0 up to truncation
    max_residual: float
    rms_residual: float


def weighted_entropy_balance(traj, pair, d, weighted=False):
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

    def energy(f):
        return float(grid.dx * np.sum(np.asarray(f.r, dtype=float) ** pair.m * kx))

    def right_side(f):
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
