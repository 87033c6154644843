"""The one marching loop: bit-identity against the unfused split step,
recycled state arrays, discrete invariants, the stalled-march guard, step
rejection, the step budget, and early validation of check values."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkdamp import model as md
from kkdamp import scenario as sn
from kkdamp import solver as sv
from kkdamp.cli import main
from kkdamp.errors import (
    OutOfRange,
    ParseError,
    StabilityViolation,
    ValidationError,
)


def _laplacian(w, boundary):
    if boundary == "periodic":
        e = np.concatenate([w[-1:], w, w[:1]])
    else:
        e = np.concatenate([w[:1], w, w[-1:]])
    return e[2:] - 2.0 * e[1:-1] + e[:-2]


def reference_flux_update(f, phi, dt):
    """The Rusanov update written out in array form."""
    b = f.grid.boundary
    ue = np.concatenate([f.u[-1:], f.u, f.u[:1]] if b == "periodic" else [f.u[:1], f.u, f.u[-1:]])
    ve = np.concatenate([f.v[-1:], f.v, f.v[:1]] if b == "periodic" else [f.v[:1], f.v, f.v[-1:]])
    re = np.hypot(ue, ve)
    pe = phi.phi(re)
    lam2e = pe + phi.r_dphi(re)
    speed = np.maximum(np.abs(pe), np.abs(lam2e))
    alpha = np.maximum(speed[:-1], speed[1:])
    out = []
    for e in (ue, ve):
        fe = e * pe
        flux = 0.5 * (fe[:-1] + fe[1:]) - 0.5 * alpha * (e[1:] - e[:-1])
        out.append(e[1:-1] - dt / f.grid.dx * (flux[1:] - flux[:-1]))
    return out


@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
def test_hyperbolic_substep_is_bit_identical_to_the_flux_formula(boundary):
    grid = sv.Grid1D(0.0, 1.0, 64, boundary)
    x = grid.centers
    r0 = 0.6 + 0.2 * np.sin(2 * np.pi * x) + 0.15 * (x < 0.4)
    init = sv.StateField(grid, r0 * np.cos(0.7 + 0.2 * x), r0 * np.sin(0.7 + 0.2 * x))
    phi = md.PhiModel.shifted_power(0.3, 1.5)
    dt = 0.4 * grid.dx / sv.max_wavespeed(init, phi)
    got = sv.hyperbolic_substep(init, phi, dt)
    want_u, want_v = reference_flux_update(init, phi, dt)
    assert np.array_equal(got.u, want_u) and np.array_equal(got.v, want_v)
    assert got.t == init.t + dt


STEP_PHIS = {
    "power-1": lambda: md.PhiModel.power(1.0),
    "shifted-0.3-1.5": lambda: md.PhiModel.shifted_power(0.3, 1.5),
    "const-neg1": lambda: md.PhiModel.constant(-1.0),
}


def _same_bits(a, b):
    # array_equal counts -0.0 == 0.0; the bit patterns must match too
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _step_data(kind, x):
    if kind == "smooth":
        r0 = 0.6 + 0.2 * np.sin(2 * np.pi * x) + 0.15 * (x < 0.4)
        return r0 * np.cos(0.7 + 0.2 * x), r0 * np.sin(0.7 + 0.2 * x)
    if kind == "signed":
        # states in all four quadrants, with sign changes between neighbours
        r0 = 0.5 + 0.3 * np.cos(6 * np.pi * x)
        theta = 2.5 + 7.0 * x
        return r0 * np.cos(theta), r0 * np.sin(theta)
    # subnormal magnitudes, signed zeros and exact zeros side by side
    k = np.arange(x.size) % 5
    u = np.where(k == 0, -0.0, (k - 2) * 5e-324 * 7)
    v = np.where(k == 3, 0.0, -1e-310 * np.sin(2 * np.pi * x))
    return u, v


@pytest.mark.parametrize("n_cells", [48, sv.TILE + 1, 2 * sv.TILE + 3])
@pytest.mark.parametrize("eps", [0.0, 1e-4])
@pytest.mark.parametrize("kind", ["smooth", "signed", "subnormal"])
@pytest.mark.parametrize("phi_name", list(STEP_PHIS))
@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
def test_step_once_is_bit_identical_to_the_split_formula(boundary, phi_name, kind, eps, n_cells):
    # one D(dt/2) H(dt) D(dt/2) step against damping_substep, the flux formula
    # and the centred Laplacian, across phi families of growing, shifted and
    # negative constant speed, on smooth, sign-changing and subnormal data,
    # on one tile and across the seams of two and three
    grid = sv.Grid1D(0.0, 1.0, n_cells, boundary)
    init = sv.StateField(grid, *_step_data(kind, grid.centers))
    phi = STEP_PHIS[phi_name]()
    d = md.Damping(0.7, 0.2)
    speed = max(sv.max_wavespeed(init, phi), 1.0)
    dt = 0.4 * sv.explicit_limit(grid.dx, speed, eps)
    got = sv.step_once(init, phi, d, dt, eps=eps)
    g = sv.damping_substep(init, d, 0.5 * dt)
    hu, hv = reference_flux_update(g, phi, dt)
    if eps > 0:
        nu = eps * dt / (grid.dx * grid.dx)
        hu = hu + nu * _laplacian(g.u, boundary)
        hv = hv + nu * _laplacian(g.v, boundary)
    want = sv.damping_substep(sv.StateField(grid, hu, hv, init.t + dt), d, 0.5 * dt)
    assert _same_bits(got.u, want.u) and _same_bits(got.v, want.v)
    assert got.t == want.t == init.t + dt
    # the undamped step is the flux update alone, bit for bit
    h = sv.hyperbolic_substep(init, phi, dt)
    want_u, want_v = reference_flux_update(init, phi, dt)
    assert _same_bits(h.u, want_u) and _same_bits(h.v, want_v)


@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
def test_a_radius_past_r_max_in_the_last_tile_is_refused(boundary):
    n = 2 * sv.TILE + 3
    u, v = np.full(n, 0.5), np.full(n, 0.5)
    u[n - 2] = 1.5  # in the last tile, and the ghost of no other tile
    init = sv.StateField(sv.Grid1D(0.0, 1.0, n, boundary), u, v)
    with pytest.raises(OutOfRange, match=r"state radius 1\.58114 is outside \[0, r_max=1\]"):
        sv.step_once(init, md.PhiModel.power(1.0, r_max=1.0), md.Damping(0.0, 0.0), 1e-6)


@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
def test_a_guard_trip_carries_the_top_speed_of_every_tile(boundary):
    # the guard trips in the second tile, the third holds the top speed and
    # the fourth a lower one that still trips it
    n = 4 * sv.TILE
    grid = sv.Grid1D(0.0, 1.0, n, boundary)
    u, v = np.full(n, 0.3), np.full(n, 0.3)
    phi = md.PhiModel.power(1.0)
    dt = sv.explicit_limit(grid.dx, sv.max_wavespeed(sv.StateField(grid, u, v), phi), 0.0)
    u[3 * sv.TILE + 9] = 0.7
    u[sv.TILE + 5] = 0.6
    lower = sv.max_wavespeed(sv.StateField(grid, u, v), phi)
    u[2 * sv.TILE + 7] = 0.9
    init = sv.StateField(grid, u, v)
    with pytest.raises(StabilityViolation) as exc:
        sv.step_once(init, phi, md.Damping(0.0, 0.0), dt)
    assert exc.value.speed == sv.max_wavespeed(init, phi) > lower


@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_a_step_holds_at_most_three_state_sized_arrays(eps):
    # the two new arrays and the tile buffers; the untiled step held eight
    n = 16 * sv.TILE
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    init = sv.StateField(grid, 0.5 + 0.2 * np.sin(x), 0.4 + 0.1 * np.cos(x))
    phi = md.PhiModel.power(1.0)
    dt = 0.4 * sv.explicit_limit(grid.dx, sv.max_wavespeed(init, phi), eps)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sv.step_once(init, phi, md.Damping(0.6, 0.2), dt, eps=eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 3 * init.u.nbytes


def reference_march(init, phi, d, cfg):
    """The march written out from the public pieces, one substep at a time."""
    dx = init.grid.dx
    f = init
    fields, n_steps = [init], 0
    for target in cfg.output_times:
        while f.t < target * (1.0 - 1e-15) - 1e-15:
            speed = sv.max_wavespeed(f, phi)
            dt = cfg.cfl * dx / speed
            if cfg.eps > 0:
                # speed dt/dx + 2 eps dt/dx^2 <= 0.8
                limit = dx * dx / (speed * dx + 2.0 * cfg.eps)
                dt = min(dt, 2.0 * 0.4 * limit)
            dt = min(dt, target - f.t)
            g = sv.damping_substep(f, d, 0.5 * dt)
            h = sv.hyperbolic_substep(g, phi, dt)
            if cfg.eps > 0:
                nu = cfg.eps * dt / (dx * dx)
                b = g.grid.boundary
                h = sv.StateField(
                    g.grid, h.u + nu * _laplacian(g.u, b), h.v + nu * _laplacian(g.v, b), h.t
                )
            f = sv.damping_substep(h, d, 0.5 * dt)
            n_steps += 1
        fields.append(f)
    return fields, n_steps


@pytest.mark.parametrize("n_cells", [64, 2 * sv.TILE + 3])
@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
def test_simulate_is_bit_identical_to_the_unfused_split_step(boundary, eps, n_cells):
    # 64 cells on [0, 1]: the 0.8 explicit_limit bound binds when eps > 0
    # (15 steps). The times and eps scale with dx, so the three-tile grid
    # takes as few steps.
    grid = sv.Grid1D(0.0, 1.0, n_cells, boundary)
    x = grid.centers
    r0 = 0.6 + 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x)
    theta = np.pi / 4 + 0.3 * np.cos(2 * np.pi * x)
    init = sv.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))
    phi = md.PhiModel.power(1.5)
    d = md.Damping(0.7, 0.2)
    times = [t * 64 / n_cells for t in (0.008, 0.014, 0.02)]
    cfg = sv.SolverConfig(t_end=times[-1], output_times=times, eps=eps * 64 / n_cells)
    u0, v0 = init.u.copy(), init.v.copy()
    traj = sv.simulate(init, phi, d, cfg)
    # the trajectory starts with init itself, which the march leaves untouched
    assert traj[0] is init and _same_bits(init.u, u0) and _same_bits(init.v, v0)
    ref, n_steps = reference_march(init, phi, d, cfg)
    assert traj.n_steps == n_steps > 0
    assert list(traj.times) == [0.0, *times]
    for got, want in zip(traj.fields, ref, strict=True):
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)


_TABLE_RS = np.linspace(0.0, 2.0, 41)
MARCH_PHIS = {
    "shifted-0.3-1.5": lambda: md.PhiModel.shifted_power(0.3, 1.5),
    "const-neg1": lambda: md.PhiModel.constant(-1.0),
    "tabulated": lambda: md.PhiModel.tabulated(_TABLE_RS, 0.2 + _TABLE_RS + 0.3 * _TABLE_RS**2),
}


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("boundary", sv.BOUNDARIES)
@pytest.mark.parametrize("phi_name", list(MARCH_PHIS))
def test_simulate_is_bit_identical_to_the_unfused_split_step_for_every_family(
    phi_name, boundary, eps
):
    # each family's own wave-speed formula sets dt, the step guard and the
    # Rusanov dissipation; whole marches match the unfused split step bit for bit
    grid = sv.Grid1D(0.0, 1.0, 64, boundary)
    init = sv.StateField(grid, *_step_data("signed", grid.centers))
    phi = MARCH_PHIS[phi_name]()
    d = md.Damping(0.7, 0.2)
    cfg = sv.SolverConfig(t_end=0.02, output_times=[0.008, 0.02], eps=eps)
    traj = sv.simulate(init, phi, d, cfg)
    ref, n_steps = reference_march(init, phi, d, cfg)
    assert traj.n_steps == n_steps > 0
    for got, want in zip(traj.fields, ref, strict=True):
        assert _same_bits(got.u, want.u) and _same_bits(got.v, want.v)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_cells=st.integers(16, 64),
    mean=st.floats(0.2, 1.0),
    amp=st.floats(0.0, 0.6),
    wavenumber=st.integers(1, 3),
    angle=st.floats(0.3, 1.2),
    angle_amp=st.floats(0.0, 0.25),
    gamma=st.floats(0.5, 2.0),
    a=st.floats(0.0, 1.0),
    b_frac=st.floats(0.0, 1.0),
)
def test_march_keeps_damped_mass_positivity_and_r_max(
    n_cells, mean, amp, wavenumber, angle, angle_amp, gamma, a, b_frac
):
    grid = sv.Grid1D(0.0, 2 * np.pi, n_cells, "periodic")
    x = grid.centers
    r0 = mean * (1.0 + amp * np.sin(wavenumber * x))
    theta = angle + angle_amp * np.cos(x)
    init = sv.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))
    # r_max just above the initial radius: the march checks r <= r_max on
    # every evaluation, so any growth of the radius hull raises OutOfRange
    phi = md.PhiModel.power(gamma, r_max=float(np.max(init.r)) * (1.0 + 1e-9))
    d = md.Damping(a, a * b_frac)
    cfg = sv.SolverConfig(t_end=0.3, output_times=[0.1, 0.3])
    traj = sv.simulate(init, phi, d, cfg)
    mass_u, mass_v = np.sum(init.u), np.sum(init.v)
    for f in traj:
        assert abs(math.exp(d.a * f.t) * np.sum(f.u) - mass_u) <= 1e-12 * mass_u
        assert abs(math.exp(d.b * f.t) * np.sum(f.v) - mass_v) <= 1e-12 * mass_v
        assert np.all(f.u > 0) and np.all(f.v > 0)
        assert np.max(f.r) <= phi.r_max


def test_stalled_march_raises_instead_of_spinning():
    # speed ~ 21 * 8.5**20: dt ~ 1e-22 no longer moves t = 1.0
    grid = sv.Grid1D(0.0, 1.0, 16)
    init = sv.StateField(grid, np.full(16, 6.0), np.full(16, 6.0), t=1.0)
    cfg = sv.SolverConfig(t_end=2.0)
    with pytest.raises(StabilityViolation, match=r"dt=\S+ no longer advances t=1$"):
        sv.simulate(init, md.PhiModel.power(20.0), md.Damping(0.1, 0.1), cfg)


def _damping_speeds_up_case(mean=0.6, amplitude=0.25, n_cells=64, boundary="periodic"):
    """phi = 2 - r on [0, 1.5]: damping shrinks r and so raises the wave
    speed, and the kernel sees the damped state."""
    rs = np.linspace(0.0, 1.5, 61)
    phi = md.PhiModel.tabulated(rs, 2.0 - rs)
    grid = sv.Grid1D(0.0, 2 * np.pi, n_cells, boundary)
    r0 = mean + amplitude * np.sin(grid.centers)
    init = sv.StateField(grid, r0 * np.cos(np.pi / 4), r0 * np.sin(np.pi / 4))
    return phi, init


@pytest.mark.parametrize(
    "r0, a, b, step_rule",
    [((0.6, 0.25), 2.0, 1.0, {"cfl": 1.0}),
     ((0.6, 0.25), 5.0, 5.0, {"cfl": 1.0}),
     ((1.2, 0.1), 10.0, 10.0, {"cfl": 0.9, "eps": 0.003})],
    ids=["cfl-1-2.0-1.0", "cfl-1-5.0-5.0", "viscous-10.0-10.0"],
)
def test_march_redoes_a_step_whose_guard_trips(r0, a, b, step_rule):
    # cfl = 1 leaves no slack; the viscous rule's 0.8 is outrun by strong
    # damping (1.41 times the speed), so the first step trips the guard
    phi, init = _damping_speeds_up_case(*r0)
    d = md.Damping(a, b)
    cfg = sv.SolverConfig(t_end=0.2, **step_rule)
    speed = sv.max_wavespeed(init, phi)
    with pytest.raises(StabilityViolation) as exc:  # a direct step still raises
        sv.step_once(init, phi, d, cfg.stable_dt(init.grid.dx, speed), eps=cfg.eps)
    assert exc.value.speed > speed  # the damped state is faster
    u0, v0 = init.u.copy(), init.v.copy()
    traj = sv.simulate(init, phi, d, cfg)
    # the redone step also leaves init, the trajectory's first entry, untouched
    assert traj[0] is init and _same_bits(init.u, u0) and _same_bits(init.v, v0)
    assert traj[-1].t == 0.2
    r_top = float(np.max(init.r))
    assert all(np.all(f.u > 0) and np.all(f.v > 0) and np.max(f.r) <= r_top for f in traj)


@pytest.mark.parametrize(
    "r0, a, b, step_rule",
    [((0.6, 0.25), 2.0, 1.0, {"cfl": 1.0}),
     ((1.2, 0.1), 10.0, 10.0, {"cfl": 0.9, "eps": 0.003})],
    ids=["cfl-1", "viscous"],
)
def test_a_redone_step_is_the_step_at_the_guards_speed(monkeypatch, r0, a, b, step_rule):
    phi, init = _damping_speeds_up_case(*r0)
    d = md.Damping(a, b)
    cfg = sv.SolverConfig(t_end=0.2, **step_rule)
    dx = init.grid.dx
    with pytest.raises(StabilityViolation) as exc:
        sv.step_once(init, phi, d, cfg.stable_dt(dx, sv.max_wavespeed(init, phi)), eps=cfg.eps)
    redone = sv.step_once(init, phi, d, cfg.stable_dt(dx, exc.value.speed), eps=cfg.eps)
    steps = []  # each step of the march that the guard let through

    def record(*args, _step=sv.step_once, **kw):
        g = _step(*args, **kw)
        # a copy: the march writes into a step's arrays again two steps later
        steps.append(sv.StateField(g.grid, g.u.copy(), g.v.copy(), g.t))
        return g

    monkeypatch.setattr(sv, "step_once", record)
    sv.simulate(init, phi, d, cfg)
    first = steps[0]
    assert first.t == redone.t and _same_bits(first.u, redone.u) and _same_bits(first.v, redone.v)


@pytest.mark.parametrize(
    "n_cells, boundary, eps",
    [(64, "periodic", 0.0), (64, "outflow", 0.0), (64, "periodic", 0.003),
     (2 * sv.TILE + 3, "periodic", 0.0), (2 * sv.TILE + 3, "outflow", 0.0),
     (2 * sv.TILE + 3, "periodic", 1e-6)],
)
def test_a_recycling_march_is_the_march_on_fresh_arrays(monkeypatch, n_cells, boundary, eps):
    # cfl = 1 and a speed that damping raises trip the guard on later steps
    # too, whose refused attempts write into recycled arrays (on three tiles
    # for the larger grid); a viscous step keeps the slack of 2
    # DIFFUSION_NUMBER = 0.8, which damping this weak never uses up
    phi, init = _damping_speeds_up_case(n_cells=n_cells, boundary=boundary)
    d = md.Damping(2.0, 1.0)
    dx = init.grid.dx
    cfg = sv.SolverConfig(t_end=8 * dx, output_times=[3 * dx, 8 * dx], cfl=1.0, eps=eps)
    u0, v0 = init.u.copy(), init.v.copy()
    step, wavespeed = sv.step_once, sv.max_wavespeed
    steps, refused, speeds = [], [], []

    def record(*args, _out=None, **kw):
        try:
            steps.append(step(*args, _out=_out, **kw))
        except StabilityViolation:
            refused.append(_out)
            raise
        return steps[-1]

    def record_speed(*args, **kw):
        speeds.append(wavespeed(*args, **kw))
        return speeds[-1]

    monkeypatch.setattr(sv, "step_once", record)
    monkeypatch.setattr(sv, "max_wavespeed", record_speed)
    traj = sv.simulate(init, phi, d, cfg)
    # the same march with new arrays for every step and every dt choice
    monkeypatch.setattr(sv, "step_once", lambda *args, _out=None, **kw: step(*args, **kw))
    monkeypatch.setattr(sv, "max_wavespeed", lambda f, phi, _scratch=None: wavespeed(f, phi))
    fresh = sv.simulate(init, phi, d, cfg)
    # one dt choice and one step call per step, and one more step call per
    # redo: steps holds the calls that returned, refused those that raised
    assert traj.n_steps == fresh.n_steps == len(steps) == len(speeds) > 4
    assert (eps == 0.0) is any(np.shares_memory(out[0], g.u) for out in refused for g in steps)
    assert traj[0] is init and _same_bits(init.u, u0) and _same_bits(init.v, v0)
    for got, want in zip(traj.fields, fresh.fields, strict=True):
        assert got.t == want.t and _same_bits(got.u, want.u) and _same_bits(got.v, want.v)
    # step k + 2 writes into step k's arrays unless step k is a snapshot: a
    # snapshot's arrays are those of the last step that wrote into them
    last = {id(g.u): k for k, g in enumerate(steps)}
    kept = {last[id(f.u)] for f in traj[1:]}
    assert len(kept) == 2 and len(steps) - 1 in kept
    for k in range(len(steps) - 2):
        for a, b in ((steps[k].u, steps[k + 2].u), (steps[k].v, steps[k + 2].v)):
            assert np.shares_memory(a, b) is (k not in kept)


@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_a_march_holds_at_most_seven_state_sized_arrays(eps):
    # after the first snapshot: it, the current state, the step's new arrays
    # and the tile buffers (6.57); a persistent scratch pair for the dt
    # choice would make 8.57
    n = 16 * sv.TILE
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    init = sv.StateField(grid, 0.5 + 0.2 * np.sin(x), 0.4 + 0.1 * np.cos(x))
    phi = md.PhiModel.power(1.0)
    dt = sv.SolverConfig(t_end=1.0, eps=eps).stable_dt(grid.dx, sv.max_wavespeed(init, phi))
    cfg = sv.SolverConfig(t_end=7.5 * dt, output_times=[3.5 * dt, 7.5 * dt], eps=eps)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = sv.simulate(init, phi, md.Damping(0.6, 0.2), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps >= 6
    assert peak - before <= 7 * init.u.nbytes


@pytest.mark.parametrize(
    "step_rule, key",
    [({"cfl": 1e-308}, "cfl"),
     ({"eps": 1e300}, "eps")],
)
def test_march_past_the_step_budget_is_refused_before_it_starts(step_rule, key):
    grid = sv.Grid1D(0.0, 1.0, 16)
    init = sv.StateField(grid, np.full(16, 0.5), np.full(16, 0.5))
    cfg = sv.SolverConfig(t_end=0.05, **step_rule)
    with pytest.raises(ValidationError, match=f"needs more than {sv.MAX_STEPS} steps") as exc:
        sv.simulate(init, md.PhiModel.power(1.0), md.Damping(0.5, 0.2), cfg)
    assert exc.value.field == key


def test_march_stops_at_the_step_cap(monkeypatch):
    # the first step predicts under 3 steps, but ten output times need ten
    monkeypatch.setattr(sv, "MAX_STEPS", 5)
    grid = sv.Grid1D(0.0, 1.0, 16)
    init = sv.StateField(grid, np.full(16, 0.5), np.full(16, 0.5))
    outputs = [0.001 * k for k in range(1, 10)] + [0.05]
    cfg = sv.SolverConfig(t_end=0.05, output_times=outputs)
    with pytest.raises(StabilityViolation, match="march reached 5 steps") as exc:
        sv.simulate(init, md.PhiModel.power(1.0), md.Damping(0.5, 0.2), cfg)
    assert exc.value.speed is None


SCENARIO = """\
name = checks
phi = power:1
a = 0.5
b = 0.2
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 32
t_end = 0.1
init = sine_radial
init.mean = 0.5
init.amplitude = 0.2
check.decay = on
check.containment = on
snapshots = none
"""


@pytest.mark.parametrize(
    "line", ["check.decay.p = foo", *(f"check.containment.{c} = abc" for c in ("c0", "c1", "c2"))]
)
def test_bad_check_values_are_parse_errors(line):
    with pytest.raises(ParseError) as exc:
        sn.parse_scenario_text(SCENARIO + line + "\n")
    n_lines = SCENARIO.count("\n") + 1
    assert (exc.value.line, exc.value.col) == (n_lines, line.index("=") + 3)
    assert line.partition(" =")[0] in str(exc.value)


@pytest.mark.parametrize(
    "line",
    ["check.decay.p = inf", "check.decay.p = Inf", "check.decay.p = 4",
     "check.containment.c0 = auto", "check.containment.c1 = 0", "check.containment.c2 = 2.5"],
)
def test_good_check_values_parse(line):
    sn.parse_scenario_text(SCENARIO + line + "\n")


def test_bad_check_value_exits_1_without_traceback(tmp_path, capsys):
    path = tmp_path / "checks.cfg"
    path.write_text(SCENARIO + "check.containment.c1 = abc\n")
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 15, col 24" in err and "check.containment.c1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before anything ran
