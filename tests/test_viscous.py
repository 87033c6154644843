import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkdamp import model as md
from kkdamp import solver as sv
from kkdamp import viscous as vc
from kkdamp.errors import ConfigError, StabilityViolation


def make_field(n=128, boundary="periodic"):
    grid = sv.Grid1D(0.0, 2 * np.pi, n, boundary)
    x = grid.centers
    r0 = 0.6 + 0.25 * np.sin(x)
    theta = np.pi / 4 + 0.2 * np.sin(x)
    return sv.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))


def test_config_validation():
    vc.ViscousConfig(t_end=1.0, eps=0.1)
    with pytest.raises(ConfigError):
        vc.ViscousConfig(t_end=1.0, eps=-0.1)


def test_zero_eps_is_bit_identical_to_inviscid():
    f = make_field()
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.5, 0.2)
    times = list(np.linspace(0.0, 0.6, 7)[1:])
    vcfg = vc.ViscousConfig(t_end=0.6, output_times=times, eps=0.0)
    scfg = sv.SolverConfig(t_end=0.6, output_times=times)
    a = sv.simulate(f, phi, d, vcfg)
    b = sv.simulate(f, phi, d, scfg)
    assert a.n_steps == b.n_steps
    for fa, fb in zip(a.fields, b.fields):
        assert np.array_equal(fa.u, fb.u)
        assert np.array_equal(fa.v, fb.v)


def test_stability_violation_raised():
    f = make_field()
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.2, 0.1)
    cfg = vc.ViscousConfig(t_end=1.0, eps=0.5)
    dx = f.grid.dx
    too_big = 2.0 * sv.DIFFUSION_NUMBER * dx * dx / cfg.eps
    with pytest.raises(StabilityViolation):
        sv.step_once(f, phi, d, too_big, eps=cfg.eps)
    # with a nonzero speed, nu = eps dt / dx^2 = 1/2 already breaks
    # speed dt/dx + 2 nu <= 1
    with pytest.raises(StabilityViolation, match="diffusion number"):
        sv.step_once(f, phi, d, 0.5 * dx * dx / cfg.eps, eps=cfg.eps)
    # the step kernel's hard limit is explicit_limit at the damped state's
    # speed; damping only lowers this model's speed
    at_limit = sv.explicit_limit(dx, sv.max_wavespeed(f, phi), cfg.eps)
    sv.step_once(f, phi, d, at_limit, eps=cfg.eps)
    undamped = md.Damping(0.0, 0.0)
    sv.step_once(f, phi, undamped, at_limit, eps=cfg.eps)
    with pytest.raises(StabilityViolation, match="diffusion number"):
        sv.step_once(f, phi, undamped, at_limit * (1.0 + 1e-6), eps=cfg.eps)
    # a zero-speed state still passes at nu = 1/2
    still = sv.StateField(f.grid, np.zeros(f.grid.n_cells), np.zeros(f.grid.n_cells))
    sv.step_once(still, phi, d, 0.5 * dx * dx / cfg.eps, eps=cfg.eps)


def test_stable_dt_is_the_whole_step_rule():
    dx, speed = 0.05, 1.7
    inviscid = sv.SolverConfig(t_end=1.0, cfl=0.45)
    assert inviscid.stable_dt(dx, speed) == 0.45 * dx / speed
    for eps in (1e-4, 0.075, 1.0):
        cfg = sv.SolverConfig(t_end=1.0, cfl=0.45, eps=eps)
        want = min(0.45 * dx / speed, 2 * 0.4 * (dx * dx / (speed * dx + 2 * eps)))
        assert cfg.stable_dt(dx, speed) == want
        # speed dt / dx + 2 nu (nu = eps dt / dx^2) stays <= 0.8
        dt = cfg.stable_dt(dx, speed)
        assert speed * dt / dx + 2 * eps * dt / (dx * dx) <= 0.8 * (1 + 1e-15)


def test_simulate_never_trips_the_diffusion_guard():
    # a zero wave speed leaves only the diffusion term: dt sits at 0.8 of
    # the hard limit
    grid = sv.Grid1D(0.0, 1.0, 16)
    f = sv.StateField(grid, np.sin(2 * np.pi * grid.centers), np.zeros(16))
    cfg = sv.SolverConfig(t_end=0.01, eps=0.3)
    with pytest.warns(UserWarning, match="structure condition"):
        traj = sv.simulate(f, md.PhiModel.constant(0.0), md.Damping(0.0, 0.0), cfg)
    assert traj.n_steps > 1


def test_grid_mode_does_not_grow_when_eps_is_near_alpha_dx():
    # Rusanov already dissipates speed dt / dx of the grid-scale mode; with
    # 2 nu (nu = eps dt / dx^2) on top the alternating mode is multiplied by
    # about 1 - 2 (speed dt/dx + 2 nu) per step. stable_dt holds that sum at
    # 0.8, so the factor is -0.6 or above also where
    # eps is near alpha dx (here alpha dx = 0.083)
    n = 128
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    amp0 = 1e-10
    u = np.full(n, 0.6) + amp0 * (-1.0) ** np.arange(n)
    f = sv.StateField(grid, u, np.full(n, 0.6))
    for eps in (0.059, 0.074, 0.089, 0.148):
        cfg = sv.SolverConfig(t_end=1.0, eps=eps)
        g = sv.simulate(f, md.PhiModel.power(1.0), md.Damping(0.0, 0.0), cfg)[-1]
        amp = 0.5 * max(np.ptp(g.u), np.ptp(g.v))
        assert amp <= 1e-5 * amp0, eps


def test_kernel_refuses_a_step_past_the_combined_limit():
    # nu = 0.4 and speed dt/dx = 0.45 pass a diffusion-number guard and a
    # CFL guard on their own, but speed dt/dx + 2 nu = 1.25 > 1 grows the
    # grid mode (x1.9e5 in 30 steps when it is not refused)
    n = 128
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    u = np.full(n, 0.6) + 1e-10 * (-1.0) ** np.arange(n)
    f = sv.StateField(grid, u, np.full(n, 0.6))
    eps = 0.074
    dt = 0.4 * grid.dx**2 / eps
    with pytest.raises(StabilityViolation, match="diffusion number"):
        sv.step_once(f, md.PhiModel.power(1.0), md.Damping(0.0, 0.0), dt, eps=eps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    dx=st.floats(1e-6, 1.0),
    speed=st.floats(1e-14, 1e3),
    eps=st.floats(1e-8, 1e2),
)
def test_stable_dt_holds_the_combined_sum_at_twice_the_diffusion_number(dx, speed, eps):
    cfg = sv.SolverConfig(t_end=1.0, eps=eps)
    dt = cfg.stable_dt(dx, speed)
    assert dt > 0
    assert speed * dt / dx + 2 * eps * dt / (dx * dx) <= 0.8 * (1 + 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(factor=st.floats(0.3, 3.0), damping=st.sampled_from([(2.0, 1.0), (5.0, 5.0)]))
def test_simulate_keeps_slack_when_damping_raises_the_speed(factor, damping):
    # phi = 2 - r: the speed 2 - r rises as damping shrinks r, so the
    # kernel sees a faster state than the one stable_dt was taken on; the
    # sum held at 0.8 leaves the guard that slack
    rs = np.linspace(0.0, 1.5, 16)
    phi = md.PhiModel.tabulated(rs, 2.0 - rs)
    f = make_field(n=64)
    eps = factor * sv.max_wavespeed(f, phi) * f.grid.dx
    cfg = sv.SolverConfig(t_end=0.2, eps=eps)
    traj = sv.simulate(f, phi, md.Damping(*damping), cfg)
    assert traj.n_steps > 1


def test_pure_diffusion_matches_discrete_heat_decay():
    # phi = 0 and no damping leaves only explicit diffusion; a sine mode
    # decays per step by exactly (1 - nu k_d^2 dt) with the discrete
    # symbol k_d^2 = (2 - 2 cos(k dx))/dx^2
    n = 128
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    f = sv.StateField(grid, np.sin(x), np.cos(x))
    phi = md.PhiModel.constant(0.0)
    d = md.Damping(0.0, 0.0)
    eps = 0.05
    cfg = vc.ViscousConfig(t_end=1.0, eps=eps)
    with pytest.warns(UserWarning, match="structure condition"):
        traj = sv.simulate(f, phi, d, cfg)
    g = traj[-1]
    dx = grid.dx
    kd2 = (2.0 - 2.0 * np.cos(dx)) / (dx * dx)
    # uniform steps except possibly the last truncated one
    n_steps = traj.n_steps
    full_dt = sv.DIFFUSION_NUMBER * dx * dx / eps
    last_dt = 1.0 - (n_steps - 1) * full_dt
    factor = (1.0 - eps * kd2 * full_dt) ** (n_steps - 1) * (1.0 - eps * kd2 * last_dt)
    assert np.max(np.abs(g.u - factor * np.sin(x))) <= 1e-12
    assert np.max(np.abs(g.v - factor * np.cos(x))) <= 1e-12
    # and the factor itself is within a step-error of the exact heat decay
    assert factor == pytest.approx(np.exp(-eps * kd2 * 1.0), rel=2e-3)


def test_viscosity_regularizes_monotonically():
    f = make_field(n=128)
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.3, 0.1)
    cfg = vc.ViscousConfig(t_end=0.4, eps=0.0)
    rep = vc.vanishing_viscosity_sweep(f, phi, d, cfg, [0.08, 0.04, 0.02])
    assert rep.strictly_decreasing
    assert rep.rows[0].eps == 0.08
    assert np.all(rep.distances > 0.0)


def test_sweep_validates_eps_list():
    f = make_field(n=64)
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.3, 0.1)
    cfg = vc.ViscousConfig(t_end=0.1)
    with pytest.raises(ConfigError):
        vc.vanishing_viscosity_sweep(f, phi, d, cfg, [0.1])
    with pytest.raises(ConfigError):
        vc.vanishing_viscosity_sweep(f, phi, d, cfg, [0.02, 0.04])
    for bad in ([0.1, -0.05], [0.1, float("nan")], [float("inf"), 0.1]):
        with pytest.raises(ConfigError, match="eps must be finite and nonnegative"):
            vc.vanishing_viscosity_sweep(f, phi, d, cfg, bad)


def test_sweep_zero_entry_gives_zero_distance():
    f = make_field(n=64)
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.3, 0.1)
    cfg = vc.ViscousConfig(t_end=0.1)
    rep = vc.vanishing_viscosity_sweep(f, phi, d, cfg, [0.05, 0.0])
    assert rep.rows[-1].l1_distance == 0.0
