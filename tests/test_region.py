import numpy as np
import pytest

from kkdamp import model as md
from kkdamp import region as rg
from kkdamp import solver as sv
from kkdamp.errors import AxisState, ConfigError, OutOfRange, ValidationError


def test_sigma_validation():
    rg.RegionSigma(1.0, 0.0, 2.0)
    with pytest.raises(ValidationError):
        rg.RegionSigma(1.0, -0.1, 2.0)
    with pytest.raises(ValidationError):
        rg.RegionSigma(1.0, 2.0, 2.0)
    with pytest.raises(ValidationError):
        rg.RegionSigma(np.inf, 0.0, 2.0)


def test_contains():
    phi = md.PhiModel.power(1.0)
    sigma = rg.RegionSigma(c0=2.0, c1=0.0, c2=1.5)
    assert rg.contains(md.State(1.0, 1.0), sigma, phi)          # r=sqrt(2), Z=1
    assert not rg.contains(md.State(2.0, 2.0), sigma, phi)      # W exceeds C0
    assert not rg.contains(md.State(1.6, 1.0), sigma, phi)      # Z exceeds C2
    assert not rg.contains(md.State(-0.1, 1.0), sigma, phi)     # Z below C1
    with pytest.raises(AxisState):
        rg.contains(md.State(1.0, 0.0), sigma, phi)
    with pytest.raises(OutOfRange):
        rg.contains(md.State(50.0, 1.0), sigma, phi)            # r beyond r_max = 10


def test_boundary_flow_signs_with_zero_lower_edge():
    phi = md.PhiModel.power(1.0)
    rep = rg.boundary_flow_check(
        rg.RegionSigma(c0=1.0, c1=0.0, c2=2.0), phi, md.Damping(0.6, 0.2)
    )
    assert rep.w_piece.passed and rep.w_piece.outward_max < 0.0
    assert rep.z_upper.passed and rep.z_upper.outward_max == pytest.approx(-0.8, abs=1e-14)
    assert rep.z_lower.passed and rep.z_lower.outward_max == 0.0
    assert rep.passed and rep.inward_except_lower
    # reversed orientation (source +au, +bv) flips every sign
    assert -rep.z_upper.outward_max == pytest.approx(0.8, abs=1e-14)


def test_boundary_flow_flags_positive_lower_edge():
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.6, 0.2)
    rep = rg.boundary_flow_check(rg.RegionSigma(c0=1.0, c1=0.5, c2=2.0), phi, d)
    assert not rep.z_lower.passed
    # outward component on {Z = C1} is exactly (a - b) C1
    assert rep.z_lower.outward_max == pytest.approx((0.6 - 0.2) * 0.5, abs=1e-14)
    assert rep.inward_except_lower and not rep.passed


def test_boundary_flow_w_piece_value():
    # phi(r) = r, C0 = 1 gives r* = 1; at Z = 1 (u = v = 1/sqrt(2)):
    # g . grad W = -(a u^2 + b v^2)/r = -(0.6 + 0.2)/2 = -0.4
    phi = md.PhiModel.power(1.0)
    rep = rg.boundary_flow_check(
        rg.RegionSigma(c0=1.0, c1=1.0, c2=1.0 + 1e-9), phi, md.Damping(0.6, 0.2), n_samples=8
    )
    assert rep.w_piece.outward_max == pytest.approx(-0.4, rel=1e-6)


def test_boundary_flow_requires_strict_ordering():
    phi = md.PhiModel.power(1.0)
    sigma = rg.RegionSigma(c0=1.0, c1=0.0, c2=2.0)
    with pytest.raises(ConfigError):
        rg.boundary_flow_check(sigma, phi, md.Damping(0.3, 0.3))
    with pytest.raises(ConfigError):
        rg.boundary_flow_check(sigma, phi, md.Damping(0.3, 0.0))


def _small_run(phi, d, n=128, t_end=0.8):
    grid = sv.Grid1D(0.0, 2 * np.pi, n)
    x = grid.centers
    r0 = 0.5 + 0.2 * np.sin(x)
    theta = np.pi / 4 + 0.3 * np.sin(x)
    init = sv.StateField(grid, r0 * np.cos(theta), r0 * np.sin(theta))
    cfg = sv.SolverConfig(t_end=t_end, output_times=np.linspace(0.0, t_end, 9)[1:])
    return sv.simulate(init, phi, d, cfg)


def test_trajectory_containment_clean_run():
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.5, 0.2)
    traj = _small_run(phi, d)
    z0 = traj[0].u / traj[0].v
    sigma = rg.RegionSigma(
        c0=float(np.max(phi.phi(traj[0].r))), c1=0.0, c2=float(np.max(z0))
    )
    rep = rg.trajectory_containment(traj, sigma, phi)
    assert rep.passed
    assert rep.max_violation <= 1e-8
    assert rep.first_violation_time is None
    assert rep.violations_per_time.size == len(traj)


def test_trajectory_containment_reports_violations():
    phi = md.PhiModel.power(1.0)
    d = md.Damping(0.5, 0.2)
    traj = _small_run(phi, d)
    # shrink the region so the initial data already pokes out
    sigma = rg.RegionSigma(c0=0.5, c1=0.0, c2=0.9)
    rep = rg.trajectory_containment(traj, sigma, phi)
    assert not rep.passed
    assert rep.max_violation > 1e-3
    assert rep.first_violation_time == pytest.approx(traj.times[0])
