"""End-to-end acceptance gate.

One test per advertised guarantee, each printing a single verdict line
(visible with -s; the assertion message repeats it on failure). Thresholds
are fixed here on purpose: loosening them is a library regression, not a
test problem. Scenario-driven criteria load the shipped files under
scenarios/ so the published configurations are exactly what is verified.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from kkdamp import model as md
from kkdamp.analysis import (
    SpaceTimeBump,
    calibrate_entropy_tolerance,
    entropy_residual,
    entropy_tolerance,
    exact_scalar_solution,
    fit_exponential_rate,
    lp_norm,
    radial_characteristics_oracle,
    riemann_invariant_diagnostics,
)
from kkdamp.entropy import flux_bound, power_entropy_pair, verify_pair
from kkdamp.model import Damping, PhiModel, State
from kkdamp.region import RegionSigma, boundary_flow_check, trajectory_containment
from kkdamp.scenario import parse_scenario, run_scenario
from kkdamp.solver import Grid1D, SolverConfig, StateField, Trajectory, simulate
from kkdamp.viscous import ViscousConfig, vanishing_viscosity_sweep

from _oracles import random_states

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(n: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {n} ({label}): {'pass' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """Shared cache of shipped-scenario runs (artifacts under a temporary root)."""
    cache = {}
    out_root = tmp_path_factory.mktemp("out")

    def load(name: str):
        if name not in cache:
            sc = parse_scenario(SCENARIO_DIR / f"{name}.cfg")
            cache[name] = run_scenario(sc, out_root=out_root)
        return cache[name]

    return load


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_1_scalar_transport_oracle():
    # constant phi decouples the channels: u advects at speed 1 and decays
    # at its own damping rate, so the solver can be measured against the
    # closed form on a refinement ladder
    t_start = time.perf_counter()
    phi = PhiModel.constant(1.0)
    d = Damping(1.0, 0.5)
    t_end = 2.0
    cfg = SolverConfig(t_end=t_end, output_times=[t_end])

    def v0(x):
        return 0.5 * np.cos(x)

    errors = []
    for n in (256, 512, 1024):
        grid = Grid1D(0.0, 2.0 * np.pi, n)
        init = StateField.from_profiles(grid, np.sin, v0)
        final = simulate(init, phi, d, cfg)[-1]
        x = grid.centers
        exact_u = exact_scalar_solution(np.sin, 1.0, d.a, x, t_end)
        exact_v = exact_scalar_solution(v0, 1.0, d.b, x, t_end)
        errors.append(
            grid.dx
            * float(np.sum(np.abs(final.u - exact_u) + np.abs(final.v - exact_v)))
        )
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - t_start
    ok = (
        all(1.6 <= ratio <= 2.4 for ratio in ratios)
        and errors[-1] <= 2e-2
        and elapsed < 5.0
    )
    _verdict(
        1,
        "scalar transport oracle",
        ok,
        f"L1 errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
        f"halving ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.1f} s",
    )


def test_criterion_2_equal_damping_decay_rate(scenario_runs):
    t_start = time.perf_counter()
    res = scenario_runs("radial_decay")
    traj = res.trajectory
    times = traj.times
    norms = np.array([lp_norm(f, 2) for f in traj.fields])
    rate, _, _ = fit_exponential_rate(times, norms, window=(times[0], times[-1]))
    envelope = norms[0] * np.exp(-0.3 * times)
    pointwise_ok = bool(np.all(norms <= 1.05 * envelope))

    # independent path to the same state: damped characteristics
    phi = PhiModel.power(1.0)
    xs = traj.grid.centers[::8]
    oracle = radial_characteristics_oracle(
        lambda xi: 0.1 + 0.05 * np.sin(xi), phi, 0.3, xs, float(times[-1])
    )
    oracle_err = float(np.max(np.abs(traj[-1].r[::8] - oracle)))
    elapsed = time.perf_counter() - t_start
    ok = (
        abs(rate - 0.300) <= 0.006
        and pointwise_ok
        and oracle_err <= 5e-3
        and res.passed
        and elapsed < 10.0
    )
    _verdict(
        2,
        "equal-damping decay rate",
        ok,
        f"fitted L2 rate {rate:.4f} (target 0.300 +- 0.006), "
        f"oracle sup error {oracle_err:.1e}, pointwise {pointwise_ok}, {elapsed:.1f} s",
    )


def test_criterion_3_unequal_damping_sandwich(scenario_runs):
    res = scenario_runs("unequal_decay")
    traj = res.trajectory
    times = traj.times
    lo_margin, hi_margin = np.inf, 0.0
    for p in (1.0, 2.0, 4.0):
        norms = np.array([lp_norm(f, p) for f in traj.fields])
        lower = norms[0] * np.exp(-0.6 * times)
        upper = norms[0] * np.exp(-0.2 * times)
        lo_margin = min(lo_margin, float(np.min(norms / lower)))
        hi_margin = max(hi_margin, float(np.max(norms / upper)))
    ok = lo_margin >= 0.95 and hi_margin <= 1.05 and res.passed
    _verdict(
        3,
        "unequal-damping norm sandwich",
        ok,
        f"norm/exp(-0.6t) >= {lo_margin:.3f} (need >= 0.95), "
        f"norm/exp(-0.2t) <= {hi_margin:.3f} (need <= 1.05), p in {{1, 2, 4}}",
    )


def test_criterion_4_entropy_pairing(rng):
    phis = [PhiModel.power(1.0), PhiModel.power(2.0), PhiModel.shifted_power(1.0, 1.0)]
    worst_residual = 0.0
    worst_bound = 0.0
    for phi in phis:
        states = random_states(rng, 100, 0.05, 3.0)
        for m in (1.0, 1.5, 2.0):
            pair = power_entropy_pair(m, phi)
            rep = verify_pair(pair, phi, states)
            worst_residual = max(worst_residual, rep.max_residual)
            bound = flux_bound(pair, phi.sup_phi(1.0), 1.0)
            worst_bound = max(worst_bound, bound.max_ratio)
    q1 = float(power_entropy_pair(2.0, PhiModel.power(1.0)).q(1.0))
    closed_err = abs(q1 - 4.0 / 3.0)
    ok = worst_residual <= 1e-6 and closed_err <= 1e-10 and worst_bound <= 1.0 + 1e-10
    _verdict(
        4,
        "entropy pairing and flux bound",
        ok,
        f"max pairing residual {worst_residual:.1e} over 9 (m, phi) combos x 100 states, "
        f"|q(1) - 4/3| = {closed_err:.1e}, flux/cap ratio <= {worst_bound:.3f}",
    )


def test_criterion_5_weak_entropy_inequality(scenario_runs):
    res = scenario_runs("riemann_shock")
    shock_traj = res.trajectory
    phi = PhiModel.power(1.0)
    d = Damping(0.2, 0.2)
    pair = power_entropy_pair(2.0, phi)
    bumps = [
        SpaceTimeBump(x0, t0, 0.45, 0.2)
        for x0 in (-0.5, 0.64, 1.8)
        for t0 in (0.25, 0.5, 0.75)
    ]
    # the damped shock path is x(t) = (r_l + r_r)(1 - e^{-a t})/a, which
    # passes x = 0.64 near t = 0.5: that bump must see real dissipation
    shock_idx = next(
        i for i, th in enumerate(bumps) if th.x0 == 0.64 and th.t0 == 0.5
    )

    def smooth_run(n_cells: int) -> Trajectory:
        grid = Grid1D(-2.0, 4.0, n_cells, boundary="outflow")

        def r0(x):
            return 0.7 - 0.3 * np.tanh(x)  # same magnitudes, no crossing by t=1

        init = StateField.from_profiles(
            grid,
            lambda x: r0(x) / np.sqrt(2.0),
            lambda x: r0(x) / np.sqrt(2.0),
        )
        cfg = SolverConfig(t_end=1.0, output_times=np.linspace(0.0, 1.0, 513)[1:])
        return simulate(init, phi, d, cfg)

    smooth_512 = smooth_run(512)
    smooth_1024 = smooth_run(1024)

    c_cal = calibrate_entropy_tolerance(smooth_512, pair, d, bumps)
    tol = entropy_tolerance(c_cal, shock_traj)
    rep = entropy_residual(shock_traj, pair, d, bumps, tol=tol)
    shock_residual = float(rep.residuals[shock_idx])

    m512 = float(np.max(np.abs(entropy_residual(smooth_512, pair, d, bumps).residuals)))
    m1024 = float(
        np.max(np.abs(entropy_residual(smooth_1024, pair, d, bumps).residuals))
    )
    refine_ratio = m1024 / m512

    ok = (
        bool(rep.passed)
        and shock_residual < 0.0
        and 0.35 <= refine_ratio <= 0.65
        and res.passed
    )
    _verdict(
        5,
        "weak entropy inequality",
        ok,
        f"max residual {rep.max_residual:.2e} vs tol {tol:.2e}, "
        f"shock bump residual {shock_residual:.2e} (< 0), "
        f"smooth-run refinement ratio {refine_ratio:.2f} (target 0.5 +- 0.15)",
    )


def test_criterion_6_invariant_region(scenario_runs):
    variants = []

    def containment_of(traj: Trajectory, phi: PhiModel, label: str):
        init = traj[0]
        sigma = RegionSigma(
            c0=float(np.max(np.asarray(phi.phi(init.r), dtype=float))),
            c1=0.0,
            c2=float(np.max(init.u / init.v)),
        )
        rep = trajectory_containment(traj, sigma, phi, tol=1e-8)
        variants.append((label, rep.max_violation, rep.passed))

    containment_of(
        scenario_runs("unequal_decay").trajectory, PhiModel.power(1.0), "linear phi, a>b"
    )
    containment_of(
        scenario_runs("riemann_shock").trajectory, PhiModel.power(1.0), "positive step"
    )

    def diagnostic_run(phi, d, angle_amp):
        grid = Grid1D(0.0, 2.0 * np.pi, 256)
        x_angle = np.pi / 4.0

        def u0(x):
            return (0.5 + 0.2 * np.sin(x)) * np.cos(x_angle + angle_amp * np.sin(x))

        def v0(x):
            return (0.5 + 0.2 * np.sin(x)) * np.sin(x_angle + angle_amp * np.sin(x))

        init = StateField.from_profiles(grid, u0, v0)
        cfg = SolverConfig(t_end=0.5, output_times=np.linspace(0.0, 0.5, 11)[1:])
        return simulate(init, phi, d, cfg)

    phi_sq = PhiModel.power(2.0)
    containment_of(
        diagnostic_run(phi_sq, Damping(0.4, 0.4), 0.2), phi_sq, "quadratic phi, a=b"
    )
    phi_sh = PhiModel.shifted_power(1.0, 1.0)
    containment_of(
        diagnostic_run(phi_sh, Damping(0.4, 0.1), 0.0), phi_sh, "shifted phi, a>b"
    )
    rs = np.linspace(0.0, 4.0, 33)
    phi_tab = PhiModel.tabulated(rs, 0.3 + 0.5 * rs + 0.1 * rs**2)
    containment_of(
        diagnostic_run(phi_tab, Damping(0.5, 0.3), 0.1), phi_tab, "tabulated phi"
    )

    worst = max(v for _, v, _ in variants)
    all_contained = all(p for _, _, p in variants)

    # boundary flow signs, exact where the algebra is closed-form
    phi1 = PhiModel.power(1.0)
    d = Damping(0.6, 0.2)
    clean = boundary_flow_check(RegionSigma(0.8, 0.0, 2.0), phi1, d)
    flagged = boundary_flow_check(RegionSigma(0.8, 0.5, 2.0), phi1, d)
    r_star = phi1.level_radius(0.8)
    dp = float(phi1.dphi(r_star))
    w_band_ok = (
        flagged.w_piece.outward_max <= -dp * d.b * r_star + 1e-12
        and flagged.w_piece.outward_min >= -dp * d.a * r_star - 1e-12
    )
    upper_exact = flagged.z_upper.outward_max == pytest.approx(
        -(d.a - d.b) * 2.0, abs=1e-15
    )
    lower_exact = flagged.z_lower.outward_max == pytest.approx(
        (d.a - d.b) * 0.5, abs=1e-15
    )
    signs_ok = (
        clean.passed
        and clean.z_lower.outward_max == 0.0
        and not flagged.z_lower.passed
        and flagged.inward_except_lower
        and w_band_ok
        and upper_exact
        and lower_exact
    )

    ok = all_contained and signs_ok
    _verdict(
        6,
        "invariant region",
        ok,
        f"max containment violation {worst:.1e} over {len(variants)} variants "
        f"(tol 1e-8), boundary signs exact incl. flagged C1>0 edge: {signs_ok}",
    )


def test_criterion_7_angle_ratio_dynamics(scenario_runs):
    res_drift = scenario_runs("angle_decay")
    rep = riemann_invariant_diagnostics(
        res_drift.trajectory, PhiModel.power(1.0), Damping(0.6, 0.2)
    )
    rate_ok = abs(rep.fitted_z_rate - 0.4) <= 0.04

    res_frozen = scenario_runs("decay_equal_damping")
    sup_z = np.array(
        [float(np.max(np.abs(f.u / f.v))) for f in res_frozen.trajectory.fields]
    )
    frozen_dev = float(np.max(np.abs(sup_z / sup_z[0] - 1.0)))
    ok = rate_ok and frozen_dev <= 0.01 and res_drift.passed and res_frozen.passed
    _verdict(
        7,
        "angle ratio dynamics",
        ok,
        f"sup|Z| rate {rep.fitted_z_rate:.4f} (target 0.4 +- 10%), "
        f"a=b sup|Z| drift {frozen_dev:.1e} (need <= 1e-2)",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_vanishing_viscosity():
    sc = parse_scenario(SCENARIO_DIR / "viscosity_sweep.cfg")
    base = sc.solver_config()
    cfg = ViscousConfig(
        t_end=base.t_end,
        output_times=base.output_times,
        scheme=base.scheme,
        splitting=base.splitting,
        cfl=base.cfl,
    )
    eps_values = (0.1, 0.05, 0.025, 0.0125)
    report = vanishing_viscosity_sweep(
        sc.initial_field(sc.grid()), sc.phi_model(), sc.damping(), cfg, eps_values
    )

    # constant phi: the regularization enters linearly, so the distance to
    # the inviscid run should scale like eps itself
    grid = Grid1D(0.0, 2.0 * np.pi, 1024)
    init = StateField.from_profiles(
        grid, lambda x: 0.5 + 0.2 * np.sin(x), lambda x: 0.5 + 0.2 * np.cos(x)
    )
    cfg_const = ViscousConfig(t_end=0.5, output_times=[0.5])
    rep_const = vanishing_viscosity_sweep(
        init, PhiModel.constant(1.0), Damping(0.5, 0.5), cfg_const, eps_values
    )
    slope = float(
        np.polyfit(np.log(np.asarray(eps_values)), np.log(rep_const.distances), 1)[0]
    )
    ok = report.strictly_decreasing and 0.7 <= slope <= 1.3
    dists = ", ".join(f"{v:.3e}" for v in report.distances)
    _verdict(
        8,
        "vanishing viscosity",
        ok,
        f"L1 distances [{dists}] strictly decreasing: {report.strictly_decreasing}, "
        f"constant-phi log-log slope {slope:.2f} (target 1.0 +- 0.3)",
    )


def test_criterion_9_eigenstructure_suite(rng):
    t_start = time.perf_counter()
    families = [
        PhiModel.power(1.0),
        PhiModel.power(2.0),
        PhiModel.shifted_power(1.0, 1.0),
        PhiModel.constant(1.5),
    ]
    n = 1000
    worst = {"eig": 0.0, "jac": 0.0, "ld": 0.0, "gap": 0.0}
    for phi in families:
        radius = rng.uniform(0.05, 3.0, n)
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        u = radius * np.cos(angle)
        v = radius * np.sin(angle)

        def flux_uv(uu, vv):
            p = np.asarray(phi.phi(np.hypot(uu, vv)), dtype=float)
            return uu * p, vv * p

        hu = 1e-6 * np.maximum(1.0, np.abs(u))
        hv = 1e-6 * np.maximum(1.0, np.abs(v))
        f1up, f2up = flux_uv(u + hu, v)
        f1um, f2um = flux_uv(u - hu, v)
        f1vp, f2vp = flux_uv(u, v + hv)
        f1vm, f2vm = flux_uv(u, v - hv)
        j11 = (f1up - f1um) / (2.0 * hu)
        j21 = (f2up - f2um) / (2.0 * hu)
        j12 = (f1vp - f1vm) / (2.0 * hv)
        j22 = (f2vp - f2vm) / (2.0 * hv)

        for i in range(n):
            s = State(float(u[i]), float(v[i]))
            a_mat = md.jacobian(s, phi)
            fd = np.array([[j11[i], j12[i]], [j21[i], j22[i]]])
            scale = max(1.0, float(np.max(np.abs(a_mat))))
            worst["jac"] = max(
                worst["jac"], float(np.max(np.abs(a_mat - fd))) / scale
            )
            lam1, lam2 = md.eigenvalues(s, phi)
            basis = md.eigenvectors(s)
            r1 = np.asarray(basis.r1)
            r2 = np.asarray(basis.r2)
            worst["eig"] = max(
                worst["eig"],
                float(np.max(np.abs(a_mat @ r1 - lam1 * r1))),
                float(np.max(np.abs(a_mat @ r2 - lam2 * r2))),
            )
            worst["gap"] = max(
                worst["gap"], abs((lam2 - lam1) - float(phi.r_dphi(s.r)))
            )
            e = 1e-6
            sp = State(s.u + e * r1[0], s.v + e * r1[1])
            sm = State(s.u - e * r1[0], s.v - e * r1[1])
            deriv = (md.eigenvalues(sp, phi)[0] - md.eigenvalues(sm, phi)[0]) / (2 * e)
            worst["ld"] = max(worst["ld"], abs(deriv))
    elapsed = time.perf_counter() - t_start
    ok = (
        worst["eig"] <= 1e-8
        and worst["jac"] <= 1e-6
        and worst["ld"] <= 1e-8
        and worst["gap"] <= 1e-12
        and elapsed < 2.0
    )
    _verdict(
        9,
        "eigenstructure suite",
        ok,
        f"1000 states x {len(families)} phi families: eigen residual {worst['eig']:.1e}, "
        f"jacobian-FD {worst['jac']:.1e}, field-1 degeneracy {worst['ld']:.1e}, "
        f"gap defect {worst['gap']:.1e}, {elapsed:.2f} s",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_shipped_scenarios_all_pass(tmp_path):
    # every published scenario must run clean end to end with its checks
    failures = []
    for cfg_path in sorted(SCENARIO_DIR.glob("*.cfg")):
        res = run_scenario(parse_scenario(cfg_path), out_root=tmp_path)
        if not res.passed:
            failures.append(f"{res.name}: {res.checks}")
    assert not failures, "; ".join(failures)
