import numpy as np
import pytest
from _oracles import (
    OracleError,
    SpaceTimeBump,
    calibrate_entropy_tolerance,
    entropy_residual,
    entropy_tolerance,
    exact_scalar_solution,
    radial_characteristics_oracle,
    weight_slope,
    weighted_entropy_balance,
)
from scipy.integrate import quad

from kkdamp import analysis as an
from kkdamp import entropy as ent
from kkdamp import model as md
from kkdamp import solver as sv
from kkdamp.errors import AxisState, ConfigError, InsufficientData
from kkdamp.solver import bump, weight


# -- weight and norms -----------------------------------------------------------


def test_default_weight_properties():
    # |k'| <= k is the same condition as |h'| <= 1 for k = exp(-h)
    for xs in (np.linspace(-40.0, 40.0, 2001), np.linspace(-50.0, 50.0, 4001)):
        assert np.all(np.abs(weight_slope(xs)) <= weight(xs) * (1.0 + 1e-12))
    assert weight(0.0) == pytest.approx(np.exp(-1.0))
    xs = np.linspace(-40.0, 40.0, 2001)
    h = 1e-6
    fd = (weight(xs + h) - weight(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - weight_slope(xs))) <= 1e-8


def test_lp_norm_closed_forms():
    grid = sv.Grid1D(0.0, 2.0, 64)
    f = sv.StateField(grid, np.full(64, 0.3), np.full(64, 0.4))  # r = 0.5
    assert an.lp_norm(f, 1) == pytest.approx(0.5 * 2.0, rel=1e-13)
    assert an.lp_norm(f, 2) == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-13)
    assert an.lp_norm(f, np.inf) == pytest.approx(0.5, rel=1e-13)
    with pytest.raises(ConfigError):
        an.lp_norm(f, 0.5)
    with pytest.raises(ConfigError, match="p must be >= 1 or inf, got nan"):
        an.lp_norm(f, np.nan)


def test_weighted_norm_matches_quadrature():
    grid = sv.Grid1D(-6.0, 6.0, 512, "outflow")
    f = sv.StateField(grid, np.full(512, 1.0), np.full(512, 0.0))
    expect, _ = quad(lambda x: np.exp(-np.sqrt(1 + x * x)), -6.0, 6.0)
    assert an.lp_norm(f, 1, weighted=True) == pytest.approx(expect, rel=1e-4)


# -- oracles ----------------------------------------------------------------------


def test_exact_scalar_solution_formula():
    x = np.linspace(0.0, 2 * np.pi, 33)
    got = exact_scalar_solution(np.sin, 1.0, 0.5, x, 2.0)
    assert np.allclose(got, np.sin(x - 2.0) * np.exp(-1.0), atol=1e-14)


def test_radial_oracle_reduces_to_constant_speed():
    # phi = c: lambda_2 = c, so r(x, t) = r0(x - c t) e^{-a t} exactly
    phi = md.PhiModel.constant(0.7)
    r0 = lambda xi: 0.5 + 0.2 * np.sin(xi)
    x = np.linspace(0.0, 2 * np.pi, 17)
    got = radial_characteristics_oracle(r0, phi, 0.3, x, 1.2)
    assert np.max(np.abs(got - r0(x - 0.7 * 1.2) * np.exp(-0.3 * 1.2))) <= 1e-9


def test_radial_oracle_satisfies_the_pde():
    # residual of r_t + (r phi(r))_x + a r by central differences
    phi = md.PhiModel.power(1.0)
    a = 0.3
    r0 = lambda xi: 0.5 + 0.1 * np.sin(xi)
    x = np.linspace(0.5, 5.5, 21)
    t = 0.8
    dt, dx = 1e-4, 1e-4

    def r_of(xx, tt):
        return np.asarray(radial_characteristics_oracle(r0, phi, a, xx, tt))

    r_t = (r_of(x, t + dt) - r_of(x, t - dt)) / (2 * dt)
    gp = r_of(x + dx, t)
    gm = r_of(x - dx, t)
    flux_x = (gp * np.asarray(phi.phi(gp)) - gm * np.asarray(phi.phi(gm))) / (2 * dx)
    residual = r_t + flux_x + a * r_of(x, t)
    assert np.max(np.abs(residual)) <= 1e-5


def test_radial_oracle_time_zero_and_shock():
    phi = md.PhiModel.power(1.0)
    r0 = lambda xi: 0.5 + 0.45 * np.sin(xi)
    x = np.linspace(0.0, 2 * np.pi, 9)
    assert np.allclose(radial_characteristics_oracle(r0, phi, 0.05, x, 0.0), r0(x))
    # steep data + weak damping: crossing time is near 1.14 here
    with pytest.raises(OracleError, match="characteristics cross"):
        radial_characteristics_oracle(r0, phi, 0.05, x, 10.0)
    radial_characteristics_oracle(r0, phi, 0.05, x, 0.5)  # pre-shock is fine


def test_radial_oracle_matches_solver_under_equal_damping():
    phi = md.PhiModel.power(1.0)
    a = 0.3
    d = md.Damping(a, a)
    r0 = lambda xi: 0.4 + 0.1 * np.sin(xi)
    errs = []
    for n in (96, 192):
        grid = sv.Grid1D(0.0, 2 * np.pi, n)
        x = grid.centers
        init = sv.StateField(grid, r0(x) / np.sqrt(2), r0(x) / np.sqrt(2))
        traj = sv.simulate(init, phi, d, sv.SolverConfig(t_end=0.5))
        oracle = radial_characteristics_oracle(r0, phi, a, x, 0.5)
        errs.append(float(np.max(np.abs(traj[-1].r - oracle))))
    assert errs[1] < errs[0] / 1.4
    assert errs[1] < 2e-2


# -- decay fits -------------------------------------------------------------------


def synthetic_traj(rate_u, rate_v, n=128, t_end=2.0, k=21):
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    p = 1.0 + 0.3 * np.sin(x)
    q = 1.2 + 0.3 * np.cos(x)
    fields = []
    for t in np.linspace(0.0, t_end, k):
        fields.append(
            sv.StateField(grid, np.exp(-rate_u * t) * p, np.exp(-rate_v * t) * q, t)
        )
    return sv.Trajectory(fields, n_steps=k, avg_dt=t_end / k)


def test_in_fit_window_takes_the_last_90_percent_with_slack():
    t = np.linspace(0.0, 2.0, 21)
    # the window starts at 0.2: t = 0 and 0.1 fall out, t = 0.2 stays
    assert np.array_equal(an.in_fit_window(t), t >= 0.2 - 1e-12)
    # 1e-15 of slack at the start, no more: the window of [0, 10] starts at 1
    t = [0.0, 1.0 - 1e-15, 1.0 - 1e-14, 10.0]
    assert an.in_fit_window(t).tolist() == [False, True, False, True]


def test_fit_exponential_rate_exact():
    t = np.linspace(0.0, 3.0, 31)
    vals = 2.5 * np.exp(-0.7 * t)
    assert an.fit_exponential_rate(t, vals) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(InsufficientData, match="rate fit needs >= 5 positive samples"):
        an.fit_exponential_rate(t[:4], vals[:4])
    # a time span whose squares underflow: a typed error, no LAPACK failure
    with pytest.raises(InsufficientData, match="cannot resolve a rate"):
        an.fit_exponential_rate(t * 1e-300, vals)


def test_decay_harness_exact_equal_rates():
    traj = synthetic_traj(0.35, 0.35)
    d = md.Damping(0.35, 0.35)
    rep = an.decay_harness(traj, 2, d)
    assert rep.fitted_rate == pytest.approx(0.35, abs=1e-10)
    assert rep.theorem_rate == 0.35
    assert rep.pointwise_ok and rep.rate_band_ok and rep.passed


def test_decay_harness_flags_too_slow_decay():
    traj = synthetic_traj(0.1, 0.1)  # decays slower than claimed
    d = md.Damping(0.5, 0.5)
    rep = an.decay_harness(traj, 2, d)
    assert not rep.pointwise_ok and not rep.rate_band_ok and not rep.passed


def test_decay_harness_weighted_needs_phi_and_uses_chain_rate():
    traj = synthetic_traj(0.4, 0.4)
    d = md.Damping(0.4, 0.4)
    with pytest.raises(ConfigError):
        an.decay_harness(traj, 2, d, weighted=True)
    phi = md.PhiModel.constant(0.05)
    rep = an.decay_harness(traj, 2, d, phi, weighted=True)
    assert rep.theorem_rate == pytest.approx(0.4 - 2 * 0.05, rel=1e-12)
    assert rep.passed


def test_weighted_decay_rate_takes_sup_phi_over_the_radii_reached(tmp_path):
    from pathlib import Path

    from kkdamp.scenario import parse_scenario, set_up

    path = Path(__file__).resolve().parent.parent / "scenarios" / "radial_decay.cfg"
    s = set_up(parse_scenario(path), tmp_path)
    traj = sv.simulate(s.init, s.phi, s.damping, s.config)
    rep = an.decay_harness(traj, 2, s.damping, s.phi, weighted=True)
    # phi = r and the radius only decays, so sup |phi| over the reached radii is max r0
    a, b = s.damping.a, s.damping.b
    assert rep.theorem_rate == min(a, b) - 2 * float(np.max(s.init.r))
    assert rep.passed


def test_weighted_decay_of_zero_data_is_insufficient_data():
    zero = synthetic_traj(0.3, 0.3)
    for f in zero.fields:
        f.u[:] = 0.0
        f.v[:] = 0.0
    with pytest.raises(InsufficientData):
        an.decay_harness(zero, 2, md.Damping(0.3, 0.3), md.PhiModel.power(1.0), weighted=True)


def test_decay_harness_zero_damping_band():
    traj = synthetic_traj(0.0, 0.0)
    rep = an.decay_harness(traj, 2, md.Damping(0.0, 0.0))
    assert abs(rep.fitted_rate) <= 1e-3
    assert rep.passed


def test_decay_harness_insufficient_data():
    traj = synthetic_traj(0.3, 0.3, k=4)
    with pytest.raises(InsufficientData):
        an.decay_harness(traj, 2, md.Damping(0.3, 0.3))


def test_decay_harness_flags_a_rate_just_below_its_band():
    # the band starts 0.05 max(a, b) below min(a, b); this rate is a further
    # 0.1 max(a, b) below, yet over t <= 0.6 the norms stay inside the envelope
    d = md.Damping(0.5, 0.3)
    rate = 0.3 - 0.15 * 0.5
    rep = an.decay_harness(synthetic_traj(rate, rate, t_end=0.6), 2, d)
    assert rep.fitted_rate == pytest.approx(rate, abs=1e-10)
    assert rep.rate_band[0] == pytest.approx(0.275)
    assert rep.pointwise_ok and not rep.rate_band_ok and not rep.passed


# -- entropy residuals --------------------------------------------------------------


def constant_traj(u, v, n=256, t_end=1.0, k=129, lo=-3.0, hi=3.0):
    grid = sv.Grid1D(lo, hi, n, "outflow")
    fields = [
        sv.StateField(grid, np.full(n, u), np.full(n, v), t)
        for t in np.linspace(0.0, t_end, k)
    ]
    return sv.Trajectory(fields, n_steps=k, avg_dt=t_end / k)


def test_entropy_residual_positive_for_non_solution():
    # a state frozen in time ignores the damping source, so the residual
    # equals + integral of grad(eta).(au, bv) theta, computable exactly
    u, v = 0.6, 0.8  # r = 1
    d = md.Damping(0.5, 0.25)
    phi = md.PhiModel.power(1.0)
    pair = ent.power_entropy_pair(2.0, phi)
    traj = constant_traj(u, v)
    theta = SpaceTimeBump(x0=0.0, t0=0.5, wx=1.0, wt=0.3)
    rep = entropy_residual(traj, pair, d, [theta])
    bump_mass, _ = quad(lambda s: float(bump(s)), -1.0, 1.0)
    src = 2.0 * (0.5 * u * u + 0.25 * v * v)  # deta(r) (a u^2 + b v^2)/r at r=1
    expect = src * (1.0 * bump_mass) * (0.3 * bump_mass)
    assert rep.residuals[0] == pytest.approx(expect, rel=1e-3)
    assert rep.max_residual > 0


def test_entropy_residual_vanishes_on_exact_solution():
    # constant phi: u = sin(x - t) e^{-at}, v = (1.1 + 0.2 cos(x - t)) e^{-bt}
    phi = md.PhiModel.constant(1.0)
    d = md.Damping(0.5, 0.25)
    pair = ent.power_entropy_pair(2.0, phi)
    n, k = 512, 257
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    fields = []
    for t in np.linspace(0.0, 1.0, k):
        u = np.sin(x - t) * np.exp(-0.5 * t)
        v = (1.1 + 0.2 * np.cos(x - t)) * np.exp(-0.25 * t)
        fields.append(sv.StateField(grid, u, v, t))
    traj = sv.Trajectory(fields, n_steps=k, avg_dt=1.0 / k)
    thetas = [
        SpaceTimeBump(x0=np.pi, t0=0.5, wx=1.2, wt=0.3),
        SpaceTimeBump(x0=2.0, t0=0.6, wx=0.8, wt=0.25),
    ]
    rep = entropy_residual(traj, pair, d, thetas)
    assert np.max(np.abs(rep.residuals)) <= 5e-4


def test_entropy_residual_support_checks():
    phi = md.PhiModel.power(1.0)
    pair = ent.power_entropy_pair(2.0, phi)
    d = md.Damping(0.3, 0.1)
    traj = constant_traj(0.3, 0.4)
    with pytest.raises(OracleError, match="x support"):
        entropy_residual(traj, pair, d, [SpaceTimeBump(0.0, 0.5, wx=4.0, wt=0.2)])
    with pytest.raises(OracleError, match="t support"):
        entropy_residual(traj, pair, d, [SpaceTimeBump(0.0, 0.1, wx=1.0, wt=0.2)])
    with pytest.raises(ConfigError):
        entropy_residual(traj, pair, d, [SpaceTimeBump(0.0, 0.5, wx=-1.0, wt=0.2)])


def test_entropy_tolerance_calibration_scales():
    phi = md.PhiModel.power(1.0)
    pair = ent.power_entropy_pair(2.0, phi)
    d = md.Damping(0.2, 0.2)
    traj = constant_traj(0.3, 0.4)
    theta = SpaceTimeBump(0.0, 0.5, wx=1.0, wt=0.3)
    c = calibrate_entropy_tolerance(traj, pair, d, [theta])
    assert c > 0
    assert entropy_tolerance(c, traj) == pytest.approx(
        c * (traj.grid.dx + traj.avg_dt)
    )


# -- invariant diagnostics ------------------------------------------------------------


def test_riemann_invariant_diagnostics_exact():
    traj = synthetic_traj(0.6, 0.2)
    d = md.Damping(0.6, 0.2)
    phi = md.PhiModel.power(1.0)
    rep = an.riemann_invariant_diagnostics(traj, phi, d)
    assert rep.expected_z_rate == pytest.approx(0.4)
    assert rep.fitted_z_rate == pytest.approx(0.4, abs=1e-10)
    assert rep.max_z_envelope_deviation <= 1e-12
    assert rep.w_max_principle_ok and rep.z_envelope_ok and rep.passed


def uniform_traj(times, r, z):
    """Cells all at radius r[k] with Z = u/v = z[k] at times[k]."""
    grid = sv.Grid1D(0.0, 1.0, 8)
    fields = [sv.StateField(grid, np.full(8, zk * rk / np.hypot(1.0, zk)),
                            np.full(8, rk / np.hypot(1.0, zk)), t)
              for t, rk, zk in zip(times, r, z)]
    return sv.Trajectory(fields, n_steps=len(fields), avg_dt=times[-1] / len(fields))


def test_riemann_invariant_diagnostics_flags_sup_w_up_ten_percent():
    times = np.linspace(0.0, 1.0, 6)
    r = np.where(times > 0, 0.55, 0.5)  # phi = r, so sup W grows by 10%
    z = 2.0 * np.exp(-0.4 * times)  # on its envelope
    rep = an.riemann_invariant_diagnostics(
        uniform_traj(times, r, z), md.PhiModel.power(1.0), md.Damping(0.6, 0.2), tol=0.05)
    assert rep.z_envelope_ok and rep.max_z_envelope_deviation <= 1e-12
    assert not rep.w_max_principle_ok and not rep.passed


def test_riemann_invariant_diagnostics_flags_sup_z_ten_percent_off_its_envelope():
    times = np.linspace(0.0, 1.0, 6)
    z = 2.0 * np.exp(-0.4 * times) * np.where(times > 0, 1.1, 1.0)
    rep = an.riemann_invariant_diagnostics(
        uniform_traj(times, np.full(6, 0.5), z), md.PhiModel.power(1.0), md.Damping(0.6, 0.2),
        tol=0.05)
    assert rep.max_z_envelope_deviation == pytest.approx(0.1, rel=1e-9)
    assert rep.w_max_principle_ok and not rep.z_envelope_ok and not rep.passed


def test_riemann_invariant_diagnostics_axis():
    grid = sv.Grid1D(0.0, 1.0, 16)
    v = np.ones(16)
    v[3] = 0.0
    traj = sv.Trajectory(
        [sv.StateField(grid, np.ones(16), v, t) for t in np.linspace(0, 1, 6)],
        n_steps=6,
        avg_dt=0.2,
    )
    with pytest.raises(AxisState):
        an.riemann_invariant_diagnostics(traj, md.PhiModel.power(1.0), md.Damping(0.3, 0.1))


# -- entropy balance -------------------------------------------------------------------


def test_balance_vanishes_on_exact_scalar_solution():
    phi = md.PhiModel.constant(1.0)
    d = md.Damping(0.4, 0.4)
    pair = ent.power_entropy_pair(2.0, phi)
    n, k = 256, 101
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    fields = []
    for t in np.linspace(0.0, 1.0, k):
        u = (0.8 + 0.2 * np.sin(x - t)) * np.exp(-0.4 * t)
        v = (1.0 + 0.1 * np.cos(x - t)) * np.exp(-0.4 * t)
        fields.append(sv.StateField(grid, u, v, t))
    traj = sv.Trajectory(fields, n_steps=k, avg_dt=1.0 / k)
    rep = weighted_entropy_balance(traj, pair, d)
    # energy law: d/dt int r^2 = -2 int (a u^2 + b v^2); discretization
    # errors are O(dt^2) + O(dx^2)
    scale = 2 * 0.4 * float(np.max(traj[0].r)) ** 2 * 2 * np.pi
    assert rep.max_residual <= 2e-3 * scale
    assert rep.rms_residual <= 2e-3 * scale


def test_weighted_balance_vanishes_on_exact_constant_phi_solution():
    # phi = 1 moves both channels at speed 1; the Gaussian stays far from
    # the outflow ends, so only the weight's slope term carries flux
    phi = md.PhiModel.constant(1.0)
    d = md.Damping(0.4, 0.4)
    pair = ent.power_entropy_pair(2.0, phi)
    n, k = 512, 101
    grid = sv.Grid1D(-15.0, 15.0, n, "outflow")
    x = grid.centers
    fields = []
    for t in np.linspace(0.0, 1.0, k):
        g = np.exp(-((x - t) ** 2)) * np.exp(-0.4 * t)
        fields.append(sv.StateField(grid, 0.8 * g, 0.6 * g, t))
    traj = sv.Trajectory(fields, n_steps=k, avg_dt=1.0 / k)
    rep = weighted_entropy_balance(traj, pair, d, weighted=True)
    assert rep.rms_residual <= 1e-4


def test_balance_dissipates_on_computed_solution():
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.4, 0.1)
    pair = ent.power_entropy_pair(2.0, phi)
    grid = sv.Grid1D(0.0, 2 * np.pi, 256)
    x = grid.centers
    r0 = 0.5 + 0.2 * np.sin(x)
    init = sv.StateField(grid, r0 * np.cos(0.8), r0 * np.sin(0.8))
    cfg = sv.SolverConfig(t_end=1.0, output_times=np.linspace(0.0, 1.0, 101)[1:])
    rep = weighted_entropy_balance(sv.simulate(init, phi, d, cfg), pair, d)
    # scheme dissipation keeps the residual at or below truncation noise
    rhs_scale = 2 * 0.4 * float(an.lp_norm(init, 2)) ** 2
    assert rep.max_residual <= 0.05 * rhs_scale
