import math
import warnings

import numpy as np
import pytest
from _oracles import bump_derivative, random_states, verify_pair

from kkdamp import entropy as ent
from kkdamp import model as md
from kkdamp import quadrature
from kkdamp.errors import ConfigError, QuadratureFailure
from kkdamp.quadrature import (
    CumulativeIntegral,
    IntegrationWarning,
    NotAKnotSpline,
    qags,
    solve_tridiagonal,
)
from kkdamp.solver import bump


# -- quadrature machinery ------------------------------------------------------


def test_cumulative_integral_against_antiderivatives():
    ci = CumulativeIntegral(lambda s: 3.0 * s * s, 4.0)
    rs = np.linspace(0.0, 4.0, 37)
    assert np.max(np.abs(ci(rs) - rs**3)) <= 1e-10
    # integrable endpoint singularity: int_0^r s^{-1/2} ds = 2 sqrt(r)
    ci = CumulativeIntegral(lambda s: 1.0 / np.sqrt(s) if s > 0 else 0.0, 1.0)
    assert abs(ci(0.81) - 1.8) <= 1e-8
    assert ci.probe_error <= 1e-9


def test_cumulative_integral_rejects_out_of_range():
    ci = CumulativeIntegral(lambda s: s, 1.0)
    with pytest.raises(ConfigError):
        ci(2.0)
    with pytest.raises(ConfigError):
        CumulativeIntegral(lambda s: s, -1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cumulative_integral_failure_is_reported(monkeypatch):
    # a spike far narrower than any allowed node spacing, with a demand
    # tighter than the spline can honor between nodes
    def nasty(s):
        return np.sin(1e4 * s) * 1e3

    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "N_INIT", 4)
    monkeypatch.setattr(quadrature, "MAX_NODES", 8)
    with pytest.raises(QuadratureFailure, match="at 8 nodes"):
        CumulativeIntegral(nasty, 10.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_solve_tridiagonal_is_lapack_dgtsv_bit_for_bit():
    from scipy.linalg.lapack import dgtsv

    rng = np.random.default_rng(20)
    swapped_first = 0
    for _ in range(400):
        n = int(rng.integers(2, 40))
        # magnitudes over six decades, so that some rows pivot and some do not
        dl, d, du = (rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3, k) for k in (n - 1, n, n - 1))
        b = rng.normal(size=n)
        swapped_first += abs(d[0]) < abs(dl[0])
        x, info = dgtsv(dl, d, du, b)[3:]
        assert info == 0
        assert np.array_equal(_bits(solve_tridiagonal(dl, d, du, b)), _bits(x))
    assert 100 < swapped_first < 300  # both branches of the elimination run


def test_solve_tridiagonal_refuses_a_zero_pivot():
    with pytest.raises(ValueError, match="singular matrix"):
        solve_tridiagonal([0.0], [0.0, 1.0], [1.0], [1.0, 1.0])


def test_not_a_knot_spline_is_scipy_cubic_spline_bit_for_bit():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(32)
    for k in range(120):
        n = int(rng.integers(4, 601))
        top = 10.0 ** rng.uniform(-3, 3)
        if k % 2:
            x = top * np.linspace(0.0, 1.0, n)
        else:  # clustered quadratically near 0, as CumulativeIntegral's nodes
            x = top * np.linspace(0.0, 1.0, n) ** 2
        y = np.cumsum(rng.normal(size=n)) * 10.0 ** rng.uniform(-5, 5)
        ours, scipys = NotAKnotSpline(x, y), CubicSpline(x, y)
        assert np.array_equal(_bits(ours.c), _bits(scipys.c))
        r = np.concatenate([
            x,
            0.5 * (x[1:] + x[:-1]),
            rng.uniform(0.0, top, 200),
            [np.nextafter(top, 0.0), np.nextafter(top, np.inf), -1e-3 * top, 1.001 * top],
        ])
        assert np.array_equal(_bits(ours(r)), _bits(scipys(r)))
        assert _bits(ours(top)) == _bits(scipys(top))
    # PPoly's sum starts from +0.0, so this cubic's -0.0 at x = 1, where
    # every other term is -0.0 too, reads +0.0
    x = np.arange(5.0)
    y = -(x - 1.0) - (x - 1.0) ** 2 - (x - 1.0) ** 3
    assert np.array_equal(_bits(NotAKnotSpline(x, y)(x)), _bits(CubicSpline(x, y)(x)))


def test_not_a_knot_spline_refuses_what_it_cannot_build():
    with pytest.raises(ValueError, match="not strictly increasing"):
        NotAKnotSpline([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="derivatives are not finite"):
        NotAKnotSpline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.inf, 3.0])
    with pytest.raises(ValueError, match="at least 4 nodes"):
        NotAKnotSpline([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


def _qags_corpus():
    """(f, a, b, epsabs, epsrel, limit) cases that drive QAGS down each of
    its paths: first-pass convergence, bisection, extrapolation at an
    endpoint singularity, and each of quad's five warnings."""
    rng = np.random.default_rng(33)
    cases = []
    # CumulativeIntegral's own calls: moments s**(m-1) phi(s) on segments of
    # its clustered nodes and on [0, probe], with its tolerances
    n, tol = quadrature.N_INIT, quadrature.ABS_TOL * 0.1
    nodes = np.linspace(0.0, 1.0, n + 1) ** 2
    for m, spec in [(2.0, "power:1"), (3.0, "power:2"), (2.5, "power:0.5"), (4.0, "power:1"),
                    (1.5, "power:0.3"), (3.0, "shifted:0.5,1"), (2.0, "const:2")]:
        phi = md.PhiModel.from_spec(spec, r_max=10.0)
        r_max = float(rng.choice([1.0, 3.0, 10.0]))

        def moment(s, m=m, phi=phi):
            return s ** (m - 1.0) * float(phi.phi(s))

        for i in rng.choice(n, 12, replace=False):
            cases.append((moment, r_max * nodes[i], r_max * nodes[i + 1], tol / n, 1e-12, 200))
        for r in r_max * np.array([1e-4, 0.05, 0.41, 1.0]):
            cases.append((moment, 0.0, r, tol, 1e-12, 400))
    # smooth and peaked integrands on random intervals
    for _ in range(60):
        k, w, c = rng.uniform(0.0, 5.0), rng.uniform(0.0, 60.0), rng.uniform(0.0, 1.0)
        width = 10.0 ** rng.uniform(-4.0, 0.0)
        f = [lambda s, k=k, w=w: math.exp(-k * s) * math.cos(w * s),
             lambda s, c=c, width=width: 1.0 / (width * width + (s - c) ** 2),
             lambda s, c=c: abs(s - c) ** 1.5][int(rng.integers(3))]
        a = rng.uniform(-1.0, 0.5)
        cases.append((f, a, a + rng.uniform(0.1, 2.0), 10.0 ** rng.uniform(-14.0, -6.0),
                      float(rng.choice([1e-12, 1.49e-8])), int(rng.choice([50, 200]))))
    # integrable endpoint singularities, where QAGS extrapolates
    for f in (lambda s: 1.0 / math.sqrt(s), math.log, lambda s: s**-0.9):
        for _ in range(10):
            cases.append((f, 0.0, 10.0 ** rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-14.0, -8.0),
                          float(rng.choice([1e-12, 1.49e-8])), int(rng.choice([50, 400]))))
    # the subdivision limit exhausted (ier 1)
    for limit in (1, 2, 3, 5):
        cases.append((lambda s: math.sin(1e4 * s), 0.0, rng.uniform(0.5, 2.0), 1e-10, 1e-12,
                      limit))
    third = 1.0 / 3.0
    cases += [
        (lambda s: s * s, 0.0, 1e103, 1e-10, 1e-12, 400),  # overflows, and roundoff (ier 2)
        (lambda s: 1e10 * math.cos(s), 0.0, 100.0, 1e-10, 1e-12, 400),  # roundoff
        # bad integrand behaviour at a point (ier 3): a singularity at 1e10 + 1/3
        (lambda s: abs(s - 1e10 - third) ** -0.5, 1e10, 1e10 + 1.0, 1e-10, 1e-12, 400),
        # roundoff in the extrapolation table (ier 4)
        (lambda s: abs(s - third) ** -0.99, 0.0, 1.0, 0.0, 1e-13, 50),
        (lambda s: 1.0 / (s - third), 0.0, 1.0, 1e-10, 1e-12, 400),  # divergent (ier 5)
        (lambda s: s**-1.1, 0.0, 1.0, 1.49e-8, 1.49e-8, 50),  # divergent
        # a nan integrand: nan sums, which must take quad's branches
        (lambda s: math.nan if 0.3 < s < 0.31 else 1.0, 0.0, 1.0, 1e-10, 1e-12, 50),
        (math.exp, 0.5, 0.5, 1e-10, 1e-12, 50),  # an empty interval
    ]
    return cases


def test_qags_is_scipy_quad_bit_for_bit():
    from scipy.integrate import quad

    first_pass = bisected = 0
    messages = set()
    for f, a, b, epsabs, epsrel, limit in _qags_corpus():
        # full_output: quad returns its message instead of warning it
        result, abserr, info, *message = quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                                              limit=limit, full_output=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = qags(f, a, b, epsabs, epsrel, limit)
        assert _bits(got).tolist() == _bits([result, abserr]).tolist(), (a, b, epsabs, limit)
        assert [str(w.message) for w in caught] == message
        assert all(w.category is IntegrationWarning for w in caught)
        messages.update(message)
        first_pass += info["last"] == 1
        bisected += info["last"] > 1 and not message
    assert issubclass(IntegrationWarning, UserWarning)
    assert first_pass >= 50 and bisected >= 50
    assert {m[:24] for m in messages} == {  # quad's five warnings, ier 1 to 5
        "The maximum number of su", "The occurrence of roundo", "Extremely bad integrand ",
        "The algorithm does not c", "The integral is probably"}


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
    pair = ent.power_entropy_pair(3.0, md.PhiModel.shifted_power(1.0, 1.0))
    rs = np.linspace(0.0, 4.0, 81)
    exact = rs**3 + 1.5 * rs**4
    assert np.max(np.abs(pair.q(rs) - exact)) <= 1e-7


@pytest.mark.parametrize("m, gamma, r_max", [(4.0, 2.0, 10.0), (6.0, 1.0, 10.0),
                                              (2.0, 1.0, 100.0)])
def test_power_pair_with_large_moments_is_built(m, gamma, r_max):
    # the moment int_0^r s^(m-1) phi reaches 1.7e5 to 1.4e6 here, where an
    # absolute 1e-10 is below its rounding: the tolerance scales with it
    pair = ent.power_entropy_pair(m, md.PhiModel.power(gamma, r_max=r_max))
    rs = np.linspace(0.0, r_max, 81)
    exact = m * (gamma + 1.0) / (m + gamma) * rs ** (m + gamma)
    assert np.max(np.abs(pair.q(rs) - exact)) <= 1e-9 * exact[-1]


def test_power_pair_with_a_large_m_meets_its_closed_form():
    # q = 2m/(m+1) r^(m+1) for phi = r: the bound check passes it, and const:c,
    # where q = c r^m meets |q| <= r^m sup |lambda_2| with equality, too
    m = 1e4
    pair = ent.power_entropy_pair(m, md.PhiModel.power(1.0, r_max=1.0))
    assert abs(pair.q(1.0) - 2.0 * m / (m + 1.0)) <= 1e-9
    pair = ent.power_entropy_pair(1e3, md.PhiModel.constant(2.0, r_max=1.0))
    assert pair.q(1.0) == pytest.approx(2.0, rel=1e-9)


def test_power_pair_rejects_small_m():
    for m in (0.5, np.nan, np.inf):
        with pytest.raises(ConfigError):
            ent.power_entropy_pair(m, md.PhiModel.power(1.0))


# -- pairing verification --------------------------------------------------------


def test_verify_pair_accepts_true_pairs(rng):
    phis = [md.PhiModel.power(1.0), md.PhiModel.power(2.0), md.PhiModel.shifted_power(1.0, 1.0)]
    for phi in phis:
        for m in (1.0, 1.5, 2.0):
            pair = ent.power_entropy_pair(m, phi)
            us, vs = random_states(rng, 50, r_lo=0.05, r_hi=3.0)
            rep = verify_pair(pair, phi, list(zip(us, vs)))
            assert rep.passed, f"m={m} {phi.label}: residual {rep.max_residual:.2e}"
            assert rep.max_residual <= 1e-6


def test_verify_pair_rejects_wrong_flux(rng):
    phi = md.PhiModel.power(1.0)
    good = ent.power_entropy_pair(2.0, phi)
    bad = ent.EntropyPair(q=lambda r: 1.1 * np.asarray(good.q(r)), m=2.0)
    us, vs = random_states(rng, 30, r_lo=0.5, r_hi=2.0)
    rep = verify_pair(bad, phi, list(zip(us, vs)))
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

