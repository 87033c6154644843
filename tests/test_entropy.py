import numpy as np
import pytest
from _oracles import random_states

from kkdamp import entropy as ent
from kkdamp import model as md
from kkdamp.errors import ConfigError, NonLipschitz, QuadratureFailure
from kkdamp.quadrature import CumulativeIntegral, bump, bump_derivative


# -- quadrature machinery ------------------------------------------------------


def test_cumulative_integral_against_antiderivatives():
    ci = CumulativeIntegral(lambda s: 3.0 * s * s, 4.0, abs_tol=1e-11)
    rs = np.linspace(0.0, 4.0, 37)
    assert np.max(np.abs(ci(rs) - rs**3)) <= 1e-10
    # integrable endpoint singularity: int_0^r s^{-1/2} ds = 2 sqrt(r)
    ci = CumulativeIntegral(lambda s: 1.0 / np.sqrt(s) if s > 0 else 0.0, 1.0, abs_tol=1e-9)
    assert abs(ci(0.81) - 1.8) <= 1e-8
    assert ci.probe_error <= 1e-9


def test_cumulative_integral_rejects_out_of_range():
    ci = CumulativeIntegral(lambda s: s, 1.0)
    with pytest.raises(ConfigError):
        ci(2.0)
    with pytest.raises(ConfigError):
        CumulativeIntegral(lambda s: s, -1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cumulative_integral_failure_is_reported():
    # a spike far narrower than any allowed node spacing, with a demand
    # tighter than the spline can honor between nodes
    def nasty(s):
        return np.sin(1e4 * s) * 1e3

    with pytest.raises(QuadratureFailure):
        CumulativeIntegral(nasty, 10.0, abs_tol=1e-15, n_init=4, max_nodes=8)


def test_bump_properties():
    assert bump(0.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert bump(1.0) == 0.0 and bump(-1.0) == 0.0 and bump(2.0) == 0.0
    s = np.linspace(-0.95, 0.95, 101)
    h = 1e-6
    fd = (bump(s + h) - bump(s - h)) / (2 * h)
    assert np.max(np.abs(fd - bump_derivative(s))) <= 1e-6
    assert bump_derivative(1.5) == 0.0


# -- closed-form entropy fluxes -----------------------------------------------
# hand integrations of q(r) = m r^m phi - m(m-1) int_0^r s^{m-1} phi ds:
#   m=2, phi=r:      q = 2 r^3 - 2 (r^3/3)          = (4/3) r^3
#   m=1, any phi:    q = r phi(r)
#   m=2, phi=c:      q = 2 c r^2 - 2 c (r^2/2)      = c r^2
#   m=3, phi=1+r:    q = 3 r^3 (1+r) - 6 (r^3/3 + r^4/4) = r^3 + (3/2) r^4


def test_power_pair_linear_phi_m2():
    pair = ent.power_entropy_pair(2.0, md.PhiModel.power(1.0))
    rs = np.linspace(0.0, 8.0, 101)
    assert np.max(np.abs(pair.q(rs) - 4.0 * rs**3 / 3.0)) <= 1e-8
    assert pair.q(1.0) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_power_pair_m1_is_r_phi():
    for phi in (md.PhiModel.power(2.0), md.PhiModel.shifted_power(1.0, 1.0)):
        pair = ent.power_entropy_pair(1.0, phi)
        rs = np.linspace(0.0, 6.0, 61)
        assert np.max(np.abs(pair.q(rs) - rs * phi.phi(rs))) <= 1e-9


def test_power_pair_constant_phi_m2():
    pair = ent.power_entropy_pair(2.0, md.PhiModel.constant(3.0))
    rs = np.linspace(0.0, 5.0, 41)
    assert np.max(np.abs(pair.q(rs) - 3.0 * rs**2)) <= 1e-9


def test_power_pair_shifted_phi_m3():
    pair = ent.power_entropy_pair(3.0, md.PhiModel.shifted_power(1.0, 1.0), quadrature_tol=1e-11)
    rs = np.linspace(0.0, 4.0, 81)
    exact = rs**3 + 1.5 * rs**4
    assert np.max(np.abs(pair.q(rs) - exact)) <= 1e-7


def test_power_pair_rejects_small_m():
    for m in (0.5, np.nan, np.inf):
        with pytest.raises(ConfigError):
            ent.power_entropy_pair(m, md.PhiModel.power(1.0))


# -- generic construction -------------------------------------------------------


def test_flux_from_eta_agrees_with_power_route():
    phi = md.PhiModel.power(1.0, r_max=6.0)
    direct = ent.power_entropy_pair(2.0, phi)
    generic = ent.flux_from_eta(
        lambda r: np.asarray(r) ** 2, lambda r: 2.0 * np.asarray(r), phi, label="r^2"
    )
    rs = np.linspace(0.0, 6.0, 121)
    assert np.max(np.abs(generic.q(rs) - direct.q(rs))) <= 1e-8


def test_flux_from_eta_rejects_non_lipschitz():
    phi = md.PhiModel.power(1.0)
    with pytest.raises(NonLipschitz):
        ent.flux_from_eta(lambda r: 1.0 / np.asarray(r), lambda r: -1.0 / np.asarray(r) ** 2, phi)


# -- pairing verification --------------------------------------------------------


def test_verify_pair_accepts_true_pairs(rng):
    phis = [md.PhiModel.power(1.0), md.PhiModel.power(2.0), md.PhiModel.shifted_power(1.0, 1.0)]
    for phi in phis:
        for m in (1.0, 1.5, 2.0):
            pair = ent.power_entropy_pair(m, phi)
            us, vs = random_states(rng, 50, r_lo=0.05, r_hi=3.0)
            rep = ent.verify_pair(pair, phi, list(zip(us, vs)))
            assert rep.passed, f"m={m} {phi.label}: residual {rep.max_residual:.2e}"
            assert rep.max_residual <= 1e-6


def test_verify_pair_rejects_wrong_flux(rng):
    phi = md.PhiModel.power(1.0)
    good = ent.power_entropy_pair(2.0, phi)
    bad = ent.EntropyPair(
        eta=good.eta,
        deta=good.deta,
        q=lambda r: 1.1 * np.asarray(good.q(r)),
        label="detuned",
        quadrature_tol=good.quadrature_tol,
        m=2.0,
    )
    us, vs = random_states(rng, 30, r_lo=0.5, r_hi=2.0)
    rep = ent.verify_pair(bad, phi, list(zip(us, vs)))
    assert not rep.passed
    assert rep.max_residual > 1e-2


# -- growth bound ----------------------------------------------------------------


def test_flux_bound_holds_on_unit_range():
    for phi in (md.PhiModel.power(1.0), md.PhiModel.power(2.0), md.PhiModel.shifted_power(1.0, 1.0)):
        m_sup = phi.sup_phi(1.0)
        for m in (1.0, 1.5, 2.0):
            pair = ent.power_entropy_pair(m, phi)
            rep = ent.flux_bound(pair, m_sup, 1.0)
            assert rep.passed, f"m={m} {phi.label}: ratio {rep.max_ratio}"
            assert rep.max_ratio <= 1.0


def test_flux_bound_ratio_value_linear_m1():
    # q = r phi = r^2 for phi(r) = r; cap = 2 M r with M = r_working,
    # so the ratio peaks at exactly 1/2 at r = r_working
    phi = md.PhiModel.power(1.0)
    pair = ent.power_entropy_pair(1.0, phi)
    rep = ent.flux_bound(pair, phi.sup_phi(1.0), 1.0)
    assert rep.max_ratio == pytest.approx(0.5, rel=1e-6)


def test_flux_bound_zero_cap_holds_only_a_zero_flux():
    # phi = 0: q = 0 under a zero cap, 0/0 reads as ratio 0
    with pytest.warns(UserWarning, match="vacuous"):
        rep = ent.flux_bound(ent.power_entropy_pair(2.0, md.PhiModel.constant(0.0)), 0.0, 1.0)
    assert rep.max_ratio == 0.0 and rep.passed
    # phi = 1, m = 2: q = r^2 > 0 meets the cap of sup phi = 0
    with pytest.warns(UserWarning, match="vacuous"):
        rep = ent.flux_bound(ent.power_entropy_pair(2.0, md.PhiModel.constant(1.0)), 0.0, 1.0)
    assert rep.max_ratio == np.inf and not rep.passed


def test_flux_bound_needs_power_pair():
    phi = md.PhiModel.power(1.0)
    generic = ent.flux_from_eta(lambda r: np.asarray(r) ** 2, lambda r: 2.0 * np.asarray(r), phi)
    with pytest.raises(ConfigError):
        ent.flux_bound(generic, 1.0, 1.0)
