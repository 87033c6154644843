import re
from functools import partial

import numpy as np
import pytest
from _oracles import damping_substep
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_march import _damping_speeds_up_case

from kkdamp import model as md
from kkdamp import solver as sv
from kkdamp.errors import (
    ConfigError,
    NonFinite,
    OutOfRange,
    StabilityViolation,
    ValidationError,
)
from kkdamp.solver import bump


def make_field(n=128, lo=0.0, hi=2 * np.pi, boundary="periodic", seed=7):
    grid = sv.Grid1D(lo, hi, n, boundary)
    x = grid.centers
    r0 = 0.6 + 0.25 * np.sin(x) + 0.05 * np.cos(3 * x)
    theta = np.pi / 4 + 0.3 * np.sin(2 * x)
    return sv.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))


# -- construction and validation ----------------------------------------------


def test_grid_validation():
    with pytest.raises(ValidationError):
        sv.Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValidationError):
        sv.Grid1D(1.0, 0.0, 64)
    with pytest.raises(ValidationError):
        sv.Grid1D(0.0, 1.0, 64, "reflecting")
    g = sv.Grid1D(0.0, 1.0, 64)
    assert g.dx == pytest.approx(1.0 / 64)
    assert g.centers[0] == pytest.approx(g.dx / 2)


def test_a_grid_holds_its_four_numbers_and_computes_its_centres_where_read():
    g = sv.Grid1D(-1.5, 2.0, 1000, "outflow")
    x = g.centers
    assert vars(g) == {"x_lo": -1.5, "x_hi": 2.0, "n_cells": 1000, "boundary": "outflow"}
    assert not any(isinstance(v, np.ndarray) for v in vars(g).values())
    assert x.tobytes() == (-1.5 + (np.arange(1000) + 0.5) * g.dx).tobytes()
    assert g.centers is not x and g.centers.tobytes() == x.tobytes()


def test_state_field_validation():
    grid = sv.Grid1D(0.0, 1.0, 16)
    with pytest.raises(ValidationError):
        sv.StateField(grid, np.zeros(8), np.zeros(16))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(NonFinite):
        sv.StateField(grid, bad, np.zeros(16))


@pytest.mark.parametrize(
    "entries",
    [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
    ids=["nan", "inf", "neg-inf", "inf-and-neg-inf"],  # the last sums to nan
)
@pytest.mark.parametrize("channel", ["u", "v"])
def test_state_field_refuses_every_non_finite_entry(entries, channel):
    grid = sv.Grid1D(0.0, 1.0, 16)
    bad, good = np.linspace(0.1, 0.9, 16), np.linspace(0.2, 0.8, 16)
    bad[5 : 5 + len(entries)] = entries
    uv = (bad, good) if channel == "u" else (good, bad)
    with pytest.raises(NonFinite, match=r"^non-finite state entries at t = 0\.25$"):
        sv.StateField(grid, *uv, t=0.25)


def test_state_field_accepts_finite_entries_whose_sum_overflows():
    grid = sv.Grid1D(0.0, 1.0, 16)
    big = np.zeros(16)
    big[:2] = 1.7e308  # finite entries whose sum overflows to inf
    f = sv.StateField(grid, big, -big)
    assert f.u[0] == 1.7e308 and f.v[1] == -1.7e308


def test_solver_config_validation():
    sv.SolverConfig(t_end=1.0)
    with pytest.raises(ConfigError, match=re.escape("scheme must be 'rusanov', got 'upwind'")):
        sv.SolverConfig(t_end=1.0, scheme="upwind")
    with pytest.raises(ConfigError, match=re.escape("splitting must be 'strang', got 'trotter'")):
        sv.SolverConfig(t_end=1.0, splitting="trotter")
    # the Lax-Friedrichs flux and Lie splitting were retired
    with pytest.raises(ConfigError, match="scheme lax_friedrichs was retired"):
        sv.SolverConfig(t_end=1.0, scheme="lax_friedrichs")
    with pytest.raises(ConfigError, match="splitting lie was retired"):
        sv.SolverConfig(t_end=1.0, splitting="lie")
    with pytest.raises(ConfigError):
        sv.SolverConfig(t_end=1.0, cfl=1.5)
    with pytest.raises(ConfigError):
        sv.SolverConfig(t_end=-1.0)
    with pytest.raises(ConfigError, match="eps must be finite and nonnegative, got -0.01"):
        sv.SolverConfig(t_end=1.0, eps=-0.01)
    with pytest.raises(ConfigError):
        sv.SolverConfig(t_end=1.0, output_times=[0.5, 0.25])
    with pytest.raises(ConfigError):
        sv.SolverConfig(t_end=1.0, output_times=[0.5, 2.0])
    with pytest.raises(ConfigError, match="strictly increasing"):
        sv.SolverConfig(t_end=1.0, output_times=[0.5, np.nan, 1.0])
    # the schedule is resolved once and must end at t_end
    with pytest.raises(ConfigError, match=re.escape("output_times must end at t_end = 1, got 0.5")):
        sv.SolverConfig(t_end=1.0, output_times=[0.5])
    assert sv.SolverConfig(t_end=1.0).output_times == (1.0,)
    cfg = sv.SolverConfig(t_end=1.0, output_times=[0.5, 1.0])
    assert cfg.output_times == (0.5, 1.0) and type(cfg.output_times) is tuple


def test_max_wavespeed_floor_and_range():
    grid = sv.Grid1D(0.0, 1.0, 16)
    zero = sv.StateField(grid, np.zeros(16), np.zeros(16))
    assert sv.max_wavespeed(zero, md.PhiModel.power(1.0)) == sv.WAVESPEED_FLOOR
    big = sv.StateField(grid, np.full(16, 3.0), np.full(16, 4.0))
    with pytest.raises(OutOfRange):
        sv.max_wavespeed(big, md.PhiModel.power(1.0, r_max=1.0))
    # phi(r) = r: max speed is max(2r) on this data
    f = make_field()
    expect = 2.0 * float(np.max(f.r))
    assert sv.max_wavespeed(f, md.PhiModel.power(1.0)) == pytest.approx(expect, rel=1e-12)


def _speed_over_every_cell(f, phi):
    return max(float(sv._cell_speeds(f.r, phi)[1].max()), sv.WAVESPEED_FLOOR)


def _outcome(fn, f, phi):
    try:
        return fn(f, phi)
    except OutOfRange as exc:
        return f"OutOfRange: {exc}"


_TABLE = _damping_speeds_up_case()[0]  # phi = 2 - r: the speed falls with r
_MODELS = [md.PhiModel.power(g) for g in (1e-6, 0.5, 1.0, 2.0, 3.7)] + [
    md.PhiModel.shifted_power(0.0, 1.0),
    md.PhiModel.shifted_power(0.5, 1e-6),
    md.PhiModel.shifted_power(2.0, 3.7),
    md.PhiModel.constant(1.0),
    md.PhiModel.constant(-2.0),
    _TABLE,
]
_ENTRIES = st.one_of(
    st.floats(-12.0, 12.0),  # radii past r_max = 10 (and 1.5 for the table) too
    st.floats(-1e-150, 1e-150),  # squares down to subnormal and zero
    st.sampled_from([0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-160, 7.0, -7.0]),
)
_RADII = st.one_of(st.floats(0.0, 12.0), st.floats(1e-163, 1e-150))


def _field(*states):
    n = max(8, len(states))
    uv = np.array([states[k % len(states)] for k in range(n)], dtype=float).T
    return sv.StateField(sv.Grid1D(0.0, 1.0, n), uv[0], uv[1])


@st.composite
def _fields(draw):
    """Fields of a few repeated states (plateaus and ties), some of them at
    one radius and different angles, each entry moved by up to 3 ulp, with
    signed and subnormal entries."""
    n = draw(st.integers(8, 40))
    radius = draw(_RADII)
    on_circle = st.floats(-np.pi, np.pi).map(lambda a: (radius * np.cos(a), radius * np.sin(a)))
    states = draw(
        st.lists(st.one_of(st.tuples(_ENTRIES, _ENTRIES), on_circle), min_size=1, max_size=5)
    )
    picks = draw(st.lists(st.sampled_from(states), min_size=n, max_size=n))
    ulps = draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
    uv = np.array(picks, dtype=float)
    uv += np.reshape(ulps, (n, 2)) * np.spacing(uv)
    return _field(*uv)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(f=_fields(), phi=st.sampled_from(_MODELS))
# in each example the first state has the larger hypot but not the larger
# u*u + v*v: by rounding; by underflow (0 against 5e-324); by overflow (the
# second state's square is inf)
@example(f=_field((2.606348009432931, 0.6865422852024055),
                  (0.15112157154985104, 2.691013289870239)), phi=md.PhiModel.power(1.0))
@example(f=_field((1.5e-162, 1.5e-162), (0.0, 1.6e-162)), phi=md.PhiModel.power(1e-6))
@example(f=_field((1.2068803745084492e154, 5.840658323242862e153),
                  (8.268332729877802e153, 1.0554808731296985e154)),
         phi=md.PhiModel.power(1.0, r_max=1e155))
@example(f=_field((1e200, 1e154), (1e200, 2e154)), phi=md.PhiModel.constant(1.0, r_max=1e300))
def test_max_wavespeed_is_bit_identical_to_every_cell(f, phi):
    want = _outcome(_speed_over_every_cell, f, phi)
    assert _outcome(sv.max_wavespeed, f, phi) == want
    # stale scratch is never read
    n = f.grid.n_cells
    scratch = (np.full(n, np.nan), np.full(n, np.nan))
    assert _outcome(partial(sv.max_wavespeed, _scratch=scratch), f, phi) == want


def test_max_wavespeed_takes_a_falling_table_speed_at_the_smallest_radius():
    phi, init = _damping_speeds_up_case()
    top = sv.max_wavespeed(init, phi)
    assert top == _speed_over_every_cell(init, phi)
    r_lo, r_hi = float(np.min(init.r)), float(np.max(init.r))
    assert top == pytest.approx(2.0 - r_lo, rel=1e-12) and top > 2.0 - r_hi


def test_max_wavespeed_evaluates_phi_only_near_the_top_radius(monkeypatch):
    f = make_field(4096)  # smooth and periodic
    power = md.PhiModel.power(1.0)
    sizes = []
    evaluate = md.PhiModel.phi
    monkeypatch.setattr(
        md.PhiModel, "phi", lambda self, r: sizes.append(np.size(r)) or evaluate(self, r)
    )
    sv.max_wavespeed(f, power)
    assert 0 < max(sizes) < 256
    sizes.clear()
    sv.max_wavespeed(f, _TABLE)
    assert sizes == [4096]


# -- single substeps -----------------------------------------------------------


def test_cfl_violation_raised():
    f = make_field()
    phi = md.PhiModel.power(1.0)
    dx = f.grid.dx
    with pytest.raises(StabilityViolation):
        sv.hyperbolic_substep(f, phi, 10.0 * dx)


DAMPED = md.Damping(0.2, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f, phi: sv.step_once(f, phi, DAMPED, -0.01),
         "dt must be nonnegative, got -0.01"),
        (lambda f, phi: sv.hyperbolic_substep(f, phi, -0.01),
         "dt must be nonnegative, got -0.01"),
        (lambda f, phi: sv.step_once(f, phi, DAMPED, float("nan")), "dt must be finite, got nan"),
        (lambda f, phi: sv.step_once(f, phi, DAMPED, float("inf")), "dt must be finite, got inf"),
        (lambda f, phi: sv.hyperbolic_substep(f, phi, float("nan")),
         "dt must be finite, got nan"),
        (lambda f, phi: sv.hyperbolic_substep(f, phi, float("inf")),
         "dt must be finite, got inf"),
        # the eps that SolverConfig refuses, with its message
        (lambda f, phi: sv.step_once(f, phi, DAMPED, 1e-3, eps=-0.01),
         "eps must be finite and nonnegative, got -0.01"),
        (lambda f, phi: sv.step_once(f, phi, DAMPED, 1e-3, eps=float("nan")),
         "eps must be finite and nonnegative, got nan"),
        (lambda f, phi: sv.step_once(f, phi, DAMPED, 1e-3, eps=-1e300),
         "eps must be finite and nonnegative, got -1e+300"),
    ],
    ids=["step-dt", "substep-dt", "step-dt-nan", "step-dt-inf", "substep-dt-nan",
         "substep-dt-inf", "step-eps-negative", "step-eps-nan",
         "step-eps-huge-negative"],
)
def test_direct_step_calls_check_their_arguments(call, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        call(make_field(), md.PhiModel.power(1.0))


@pytest.mark.parametrize("eps", [0.0, 0.003])
@pytest.mark.parametrize("dt", [0.01, 0.0])
def test_step_once_writes_into_out_and_wraps_it(dt, eps):
    f, phi = make_field(), md.PhiModel.power(1.0)
    n = f.grid.n_cells
    out = (np.full(n, np.nan), np.full(n, np.nan))
    got = sv.step_once(f, phi, DAMPED, dt, eps=eps, _out=out)
    want = sv.step_once(f, phi, DAMPED, dt, eps=eps)
    assert got.u is out[0] and got.v is out[1] and got.t == want.t
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


@pytest.mark.parametrize(
    "call",
    [lambda f, phi, pair: sv.step_once(f, phi, DAMPED, 0.01, out=pair),
     lambda f, phi, pair: sv.max_wavespeed(f, phi, scratch=pair)],
    ids=["step_once-out", "max_wavespeed-scratch"],
)
def test_step_once_and_max_wavespeed_take_no_public_out_or_scratch(call):
    # the recycled pair is simulate's private hand-off: the public names
    # it once had are type errors, and the state is left as it was
    f, phi = make_field(), md.PhiModel.power(1.0)
    n = f.grid.n_cells
    u0, v0 = f.u.copy(), f.v.copy()
    with pytest.raises(TypeError):
        call(f, phi, (np.empty(n), np.empty(n)))
    assert np.array_equal(f.u, u0) and np.array_equal(f.v, v0)


def test_a_positional_scheme_is_a_type_error():
    # eps is keyword-only: a call still passing the retired scheme or
    # splitting arguments fails instead of reading them as eps or dt
    f, phi = make_field(), md.PhiModel.power(1.0)
    with pytest.raises(TypeError):
        sv.step_once(f, phi, DAMPED, 0.01, "rusanov")
    with pytest.raises(TypeError):
        sv.hyperbolic_substep(f, phi, 0.01, "rusanov")


def test_zero_step_returns_the_same_state():
    f = make_field()
    f.t = 0.25
    phi = md.PhiModel.power(1.0)
    for g in (sv.step_once(f, phi, DAMPED, 0.0), sv.hyperbolic_substep(f, phi, 0.0)):
        assert np.array_equal(g.u, f.u) and np.array_equal(g.v, f.v)
        assert g.t == f.t


def test_a_zero_step_checks_the_radius_as_any_step_does():
    grid = sv.Grid1D(0.0, 1.0, 16)
    far = sv.StateField(grid, np.full(16, 2.0), np.full(16, 2.0))  # r = 2.83
    for dt in (0.0, 1e-3):
        with pytest.raises(OutOfRange, match=r"is outside \[0, r_max=1\]"):
            sv.step_once(far, md.PhiModel.power(1.0, r_max=1.0), DAMPED, dt)


def test_damping_substep_is_exact_exponential():
    f = make_field()
    d = md.Damping(0.7, 0.3)
    g = damping_substep(f, d, 0.25)
    assert np.array_equal(g.u, f.u * np.exp(-0.7 * 0.25))
    assert np.array_equal(g.v, f.v * np.exp(-0.3 * 0.25))
    assert g.t == f.t


def test_hyperbolic_substep_conserves_on_periodic():
    f = make_field()
    phi = md.PhiModel.power(1.0)
    dt = 0.4 * f.grid.dx / sv.max_wavespeed(f, phi)
    g = sv.hyperbolic_substep(f, phi, dt)
    assert np.sum(g.u) == pytest.approx(np.sum(f.u), abs=1e-12 * f.grid.n_cells)
    assert np.sum(g.v) == pytest.approx(np.sum(f.v), abs=1e-12 * f.grid.n_cells)
    assert g.t == pytest.approx(f.t + dt)


def test_damped_mass_identity_per_step():
    # D(dt/2) H(dt) D(dt/2): H conserves the cell sum exactly on periodic
    # grids, so the sums contract by exactly exp(-a dt) / exp(-b dt)
    f = make_field()
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.8, 0.25)
    dt = 0.4 * f.grid.dx / sv.max_wavespeed(f, phi)
    g = sv.step_once(f, phi, d, dt)
    assert np.sum(g.u) == pytest.approx(np.exp(-0.8 * dt) * np.sum(f.u), rel=1e-13)
    assert np.sum(g.v) == pytest.approx(np.exp(-0.25 * dt) * np.sum(f.v), rel=1e-13)


def test_discrete_max_principles():
    # positive data: the angular ratio hull contracts by exp(-(a-b) t)
    # and the radius hull never grows
    f = make_field()
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.6, 0.2)
    cfg = sv.SolverConfig(t_end=0.5)
    traj = sv.simulate(f, phi, d, cfg)
    g = traj[-1]
    z0, z1 = f.u / f.v, g.u / g.v
    shrink = np.exp(-(0.6 - 0.2) * 0.5)
    assert np.max(z1) <= np.max(z0) * shrink * (1 + 1e-12)
    assert np.min(z1) >= np.min(z0) * shrink * (1 - 1e-12)
    assert np.max(g.r) <= np.max(f.r) * (1 + 1e-12)


# -- simulate bookkeeping -------------------------------------------------------


def test_simulate_hits_output_times_exactly():
    f = make_field(n=64)
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.3, 0.1)
    times = [0.11, 0.4, 0.53]
    cfg = sv.SolverConfig(t_end=0.53, output_times=times)
    traj = sv.simulate(f, phi, d, cfg)
    assert list(traj.times) == [0.0, *times]
    assert traj.n_steps > 0 and traj.avg_dt > 0


def test_simulate_marches_a_degenerate_phi_without_warning():
    # scenario.set_up warns once per scenario; the march itself stays quiet
    # (the suite turns a UserWarning into an error)
    f = make_field(n=64)
    phi = md.PhiModel.constant(1.0)
    assert not phi.c1_report.satisfied
    traj = sv.simulate(f, phi, md.Damping(0.1, 0.1), sv.SolverConfig(t_end=0.05))
    assert traj.n_steps > 0


def test_outflow_boundary_runs():
    f = make_field(n=64, boundary="outflow")
    phi = md.PhiModel.power(1.0)
    traj = sv.simulate(f, phi, md.Damping(0.2, 0.1), sv.SolverConfig(t_end=0.2))
    assert np.all(np.isfinite(traj[-1].u))


# -- mollifier -------------------------------------------------------------------


def test_mollifier_preserves_mean_and_constants():
    grid = sv.Grid1D(0.0, 2 * np.pi, 128)
    x = grid.centers
    vals = np.where(x < np.pi, 1.0, 0.2)
    sm = sv.mollify_profile(vals, 0.4, grid)
    assert np.sum(sm) == pytest.approx(np.sum(vals), rel=1e-13)
    const = sv.mollify_profile(np.full(128, 0.7), 0.4, grid)
    assert np.allclose(const, 0.7, atol=1e-14)
    # periodic total variation cannot grow under averaging
    tv = lambda w: float(np.sum(np.abs(np.diff(w))) + abs(w[0] - w[-1]))
    assert tv(sm) <= tv(vals) + 1e-14


def test_mollifier_smooths_jump_into_gradient():
    grid = sv.Grid1D(-1.0, 1.0, 256, "outflow")
    x = grid.centers
    vals = np.where(x < 0, 1.0, 0.0)
    sm = sv.mollify_profile(vals, 0.2, grid)
    assert float(np.max(np.abs(np.diff(sm)))) < 0.15  # jump spread over ~eps
    assert sm[0] == pytest.approx(1.0, abs=1e-12)
    assert sm[-1] == pytest.approx(0.0, abs=1e-12)


def test_mollifier_warns_when_under_resolved():
    grid = sv.Grid1D(0.0, 1.0, 16)
    with pytest.warns(UserWarning, match="under-resolved"):
        out = sv.mollify_profile(np.arange(16.0), 1e-4, grid)
    assert np.array_equal(out, np.arange(16.0))


def test_periodic_mollifier_matches_the_roll_sum():
    grid = sv.Grid1D(-1.0, 2.0, 97)
    vals = np.random.default_rng(3).normal(size=97) + 2.0
    for eps in (0.05, 0.4, 3.0):  # 3.0 is the whole domain width
        half = int(np.ceil(eps / grid.dx))
        offsets = np.arange(-half, half + 1)
        w = bump(offsets * grid.dx / eps)
        w = w / np.sum(w)
        want = np.zeros_like(vals)
        for k, wk in zip(offsets, w):
            want += wk * np.roll(vals, k)
        np.testing.assert_allclose(sv.mollify_profile(vals, eps, grid), want, rtol=1e-14)


# -- snapshot io -----------------------------------------------------------------


def test_write_table_formats_each_column_by_its_dtype(tmp_path):
    path = sv.write_table(tmp_path / "t.tsv", ("a", "n"), ([0.1, -np.inf, np.nan], [1, 20, 300]),
                          comments=("made by a test",))
    assert path.read_text() == (
        "# made by a test\n# a\tn\n1.00000000000000006e-01\t1\n-inf\t20\nnan\t300\n"
    )


def test_snapshot_round_trip(tmp_path):
    f = make_field(n=32)
    phi = md.PhiModel.power(1.0)
    path = sv.write_snapshot(f, phi, "demo", tmp_path)
    assert path.name == "demo_t0.tsv"
    data = sv.read_snapshot(path)
    assert np.array_equal(data["u"], f.u)
    assert np.array_equal(data["v"], f.v)
    assert np.array_equal(data["x"], f.grid.centers)
    assert np.array_equal(data["r"], f.r)
    assert np.array_equal(data["Z"], f.u / f.v)
    assert data["meta"]["run"] == "demo"
    assert data["meta"]["n_cells"] == "32"


def test_snapshot_time_in_name(tmp_path):
    f = make_field(n=32)
    f.t = 0.5
    path = sv.write_snapshot(f, md.PhiModel.power(1.0), "demo", tmp_path)
    assert path.name == "demo_t0.5.tsv"


def test_snapshot_rows_match_the_per_cell_format(tmp_path):
    # v = 0 puts inf, -inf and nan into the Z column; the vectorised writer
    # must render every cell exactly as format(x, ".17e") does
    f = make_field(n=32)
    f.u[:3] = (0.4, -0.4, 0.0)
    f.v[:3] = 0.0
    f.u[3] = 5e-324  # subnormal
    f.t = 0.25
    phi = md.PhiModel.shifted_power(0.5, 1.5)
    path = sv.write_snapshot(f, phi, "demo", tmp_path)
    r = f.r
    w = phi.phi(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = f.u / f.v
    assert np.isposinf(z[0]) and np.isneginf(z[1]) and np.isnan(z[2])
    cols = (f.grid.centers, f.u, f.v, r, w, z)
    rows = ["\t".join(format(float(c[i]), ".17e") for c in cols) for i in range(32)]
    lines = path.read_text().splitlines()
    assert lines[0] == f"# run=demo t={sv._fmt(0.25)} n_cells=32"
    assert lines[3:] == rows
    data = sv.read_snapshot(path)
    assert np.array_equal(data["u"], f.u) and np.array_equal(data["Z"], z, equal_nan=True)
