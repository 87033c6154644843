import pickle

import numpy as np
import pytest
from _oracles import fd_grad, fd_jacobian, random_states, raw_flux
from hypothesis import given, settings
from hypothesis import strategies as st

from kkdamp import model as md
from kkdamp.errors import (
    AxisState,
    ConfigError,
    DegenerateState,
    OutOfRange,
    ValidationError,
)


def family_zoo():
    rs = np.linspace(0.0, 4.0, 201)
    return [
        md.PhiModel.power(1.0),
        md.PhiModel.power(2.0),
        md.PhiModel.power(0.5),
        md.PhiModel.shifted_power(1.0, 1.0),
        md.PhiModel.tabulated(rs, rs + 0.1 * np.sin(rs), label="tab:smooth"),
    ]


# -- frozen point examples ---------------------------------------------------


def test_jacobian_linear_phi_at_3_4():
    a = md.jacobian(md.State(3.0, 4.0), md.PhiModel.power(1.0))
    assert np.allclose(a, [[6.8, 2.4], [2.4, 8.2]], rtol=0, atol=1e-12)


def test_eigenvalues_quadratic_phi_at_3_4():
    lam1, lam2 = md.eigenvalues(md.State(3.0, 4.0), md.PhiModel.power(2.0))
    assert lam1 == pytest.approx(25.0, abs=1e-12)
    assert lam2 == pytest.approx(75.0, abs=1e-12)


def test_eigenvector_normalization_is_deterministic():
    basis = md.eigenvectors(md.State(1.0, 1.0))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.r1, [s, -s], atol=1e-15)
    assert np.allclose(basis.r2, [s, s], atol=1e-15)
    basis = md.eigenvectors(md.State(3.0, 4.0))
    assert np.allclose(basis.r1, [0.8, -0.6], atol=1e-15)
    assert np.allclose(basis.r2, [0.6, 0.8], atol=1e-15)
    assert not basis.axis_state
    assert md.eigenvectors(md.State(2.0, 0.0)).axis_state


def test_riemann_invariants_linear_phi():
    w, z = md.riemann_invariants(md.State(1.0, 1.0), md.PhiModel.power(1.0))
    assert w == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert z == pytest.approx(1.0, abs=1e-15)


# -- oracle-backed structure checks -----------------------------------------


def test_flux_matches_the_raw_flux_oracle(rng):
    for phi in family_zoo():
        us, vs = random_states(rng, 40, r_lo=0.0, r_hi=3.5)
        for u, v in zip(us, vs):
            assert np.array_equal(md.flux(md.State(u, v), phi), raw_flux(u, v, phi))


def test_jacobian_matches_finite_differences(rng):
    for phi in family_zoo():
        us, vs = random_states(rng, 60, r_lo=0.2, r_hi=3.5)
        for u, v in zip(us, vs):
            a = md.jacobian(md.State(u, v), phi)
            a_fd = fd_jacobian(u, v, phi)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - a_fd)) <= 1e-6 * scale


def test_eigen_residuals(rng):
    for phi in family_zoo():
        us, vs = random_states(rng, 60, r_lo=0.2, r_hi=3.5)
        for u, v in zip(us, vs):
            s = md.State(u, v)
            a = md.jacobian(s, phi)
            lam1, lam2 = md.eigenvalues(s, phi)
            basis = md.eigenvectors(s)
            assert np.max(np.abs(a @ basis.r1 - lam1 * basis.r1)) <= 1e-8
            assert np.max(np.abs(a @ basis.r2 - lam2 * basis.r2)) <= 1e-8
            assert abs(basis.r1 @ basis.r2) <= 1e-14
            assert np.hypot(*basis.r1) == pytest.approx(1.0, abs=1e-14)
            assert np.hypot(*basis.r2) == pytest.approx(1.0, abs=1e-14)


def test_eigenvalue_gap_is_r_dphi(rng):
    for phi in family_zoo():
        us, vs = random_states(rng, 40, r_lo=0.2, r_hi=3.5)
        for u, v in zip(us, vs):
            s = md.State(u, v)
            lam1, lam2 = md.eigenvalues(s, phi)
            gap = float(phi.r_dphi(s.r))
            assert lam2 - lam1 == pytest.approx(gap, rel=1e-12, abs=1e-13)


def test_field_one_linearly_degenerate_by_fd(rng):
    # grad(lambda_1) computed numerically must be orthogonal to r1
    for phi in family_zoo():
        us, vs = random_states(rng, 40, r_lo=0.2, r_hi=3.5)
        for u, v in zip(us, vs):
            s = md.State(u, v)
            grad = fd_grad(lambda uu, vv: float(phi.phi(np.hypot(uu, vv))), u, v)
            basis = md.eigenvectors(s)
            assert abs(grad @ basis.r1) <= 1e-8
            c = md.classify_field(s, phi, 1)
            assert c.kind == md.LINEARLY_DEGENERATE and c.gn_value == 0.0


def test_field_two_indicator_matches_fd(rng):
    # grad(lambda_2) . r2 by central differences vs 2 phi' + r phi''
    for phi in [md.PhiModel.power(1.0), md.PhiModel.power(2.0), md.PhiModel.shifted_power(1.0, 1.0)]:
        us, vs = random_states(rng, 40, r_lo=0.2, r_hi=3.5)

        def lam2_of(uu, vv):
            r = np.hypot(uu, vv)
            return float(phi.phi(r)) + float(phi.r_dphi(r))

        for u, v in zip(us, vs):
            s = md.State(u, v)
            grad = fd_grad(lam2_of, u, v)
            basis = md.eigenvectors(s)
            expected = float(grad @ basis.r2)
            got = md.classify_field(s, phi, 2).gn_value
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-7)


def test_classification_kinds():
    s = md.State(1.0, 2.0)
    assert md.classify_field(s, md.PhiModel.power(1.0), 2).kind == md.GENUINELY_NONLINEAR
    assert md.classify_field(s, md.PhiModel.constant(1.0), 2).kind == md.LINEARLY_DEGENERATE
    rng_kind = md.classify_field_range(md.PhiModel.power(1.0), 0.1, 5.0)
    assert rng_kind.kind == md.GENUINELY_NONLINEAR
    assert md.classify_field_range(md.PhiModel.constant(2.0), 0.1, 5.0).kind == md.LINEARLY_DEGENERATE
    # 2 phi' + r phi'' changes sign for phi = sin 2r
    rs = np.linspace(0.0, 2.0, 201)
    wavy = md.PhiModel.tabulated(rs, np.sin(2.0 * rs))
    assert md.classify_field_range(wavy, 0.1, 1.9).kind == md.MIXED


# -- degenerate and invalid inputs -------------------------------------------


def test_origin_is_degenerate():
    phi = md.PhiModel.power(1.0)
    zero = md.State(0.0, 0.0)
    with pytest.raises(DegenerateState):
        md.eigenvalues(zero, phi)
    with pytest.raises(DegenerateState):
        md.eigenvectors(zero)
    with pytest.raises(DegenerateState):
        md.classify_field(zero, phi, 2)
    # the Jacobian limit exists whenever phi(0) is finite
    assert np.allclose(md.jacobian(zero, phi), np.zeros((2, 2)))
    assert np.allclose(md.jacobian(zero, md.PhiModel.shifted_power(2.0, 1.0)), 2.0 * np.eye(2))


def test_axis_state_for_z():
    with pytest.raises(AxisState):
        md.riemann_invariants(md.State(1.0, 0.0), md.PhiModel.power(1.0))


def test_out_of_range_radius():
    phi = md.PhiModel.power(1.0, r_max=1.0)
    with pytest.raises(OutOfRange):
        md.flux(md.State(3.0, 4.0), phi)
    with pytest.raises(OutOfRange):
        md.eigenvalues(md.State(3.0, 4.0), phi)


def test_nan_radius_is_out_of_range():
    phi = md.PhiModel.power(1.0)
    with pytest.raises(OutOfRange):
        md.riemann_invariants(md.State(np.nan, 1.0), phi)


def test_damping_validation():
    md.Damping(0.5, 0.5)
    md.Damping(0.0, 0.0)
    with pytest.raises(ValidationError, match="C2"):
        md.Damping(0.2, 0.6)
    with pytest.raises(ValidationError):
        md.Damping(0.5, -0.1)
    try:
        md.Damping(0.1, 0.7)
    except ValidationError as exc:
        assert exc.field == "damping"


# -- phi families -------------------------------------------------------------


def test_from_spec_parsing():
    assert md.PhiModel.from_spec("power:2").family == "power"
    assert md.PhiModel.from_spec("shifted:1,0.5").phi0 == 1.0
    assert float(md.PhiModel.from_spec("const:3").phi(1.7)) == 3.0
    assert float(md.PhiModel.from_spec("constant:3").phi(0.2)) == 3.0
    for bad in ("power", "power:x", "shifted:1", "mystery:1", "power:-1", "shifted:-1,2",
                "power:nan", "power:inf", "shifted:nan,1", "shifted:1,inf", "const:inf",
                "const:nan"):
        with pytest.raises(ConfigError):
            md.PhiModel.from_spec(bad)


def test_tabulated_matches_sampled_function(tmp_path):
    rs = np.linspace(0.0, 5.0, 401)
    vals = rs + 0.1 * np.sin(rs)
    phi = md.PhiModel.tabulated(rs, vals)
    probe = np.linspace(0.05, 4.9, 57)
    assert np.max(np.abs(phi.phi(probe) - (probe + 0.1 * np.sin(probe)))) <= 1e-6
    assert np.max(np.abs(phi.dphi(probe) - (1.0 + 0.1 * np.cos(probe)))) <= 1e-4
    assert phi.r_max == 5.0

    path = tmp_path / "phi.tsv"
    with open(path, "w") as fh:
        fh.write("# r phi\n")
        for r, val in zip(rs, vals):
            fh.write(f"{float(r)!r} {float(val)!r}\n")
    phi2 = md.PhiModel.from_file(path)
    assert np.allclose(phi2.phi(probe), phi.phi(probe), atol=1e-14)

    with pytest.raises(ConfigError):
        md.PhiModel.tabulated([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ConfigError):
        md.PhiModel.tabulated([0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 2.0, 3.0])


def test_tabulated_spec_honours_a_smaller_r_max(tmp_path):
    path = tmp_path / "phi.txt"
    rs = np.linspace(0.0, 4.0, 9)
    np.savetxt(path, np.column_stack((rs, 0.5 + rs)))
    assert md.PhiModel.from_spec(f"tabulated:{path}", r_max=2.0).r_max == 2.0
    # a larger r_max stays capped at the table's last radius
    assert md.PhiModel.from_spec(f"tabulated:{path}", r_max=10.0).r_max == 4.0
    assert md.PhiModel.from_spec(f"tabulated:{path}", r_max=np.inf).r_max == 4.0
    assert md.PhiModel.from_file(path).r_max == 4.0
    # a nan r_max is refused, as by every other family
    with pytest.raises(ConfigError, match="r_max must be positive and finite, got nan"):
        md.PhiModel.from_spec(f"tabulated:{path}", r_max=np.nan)


def test_tabulated_r_dphi_is_r_times_dphi_and_zero_at_the_origin():
    rs = np.linspace(0.0, 4.0, 9)
    phi = md.PhiModel.tabulated(rs, 0.5 + rs + 0.1 * rs**2)
    r = np.linspace(0.0, 4.0, 33)
    assert np.array_equal(phi.r_dphi(r), np.where(r == 0, 0, r * phi.dphi(r)))
    assert phi.r_dphi(0.0) == 0.0


# -- wave speeds ---------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_speed_is_the_general_formula(phi, r):
    """phi.wave_speed(r, phi(r)) against max(|phi|, |phi + r phi'|), bit for
    bit (signed zeros too), leaving its phi(r) argument as it was."""
    p = np.asarray(phi.phi(r), dtype=float)
    p_bits = _bits(p).copy()
    got = phi.wave_speed(r, p)
    want = np.maximum(np.abs(p), np.abs(p + phi.r_dphi(r)))
    assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(p), p_bits)
    return got


_SPEED_TABLE_RS = np.linspace(0.0, 4.0, 33)
SPEED_PHIS = [
    *(md.PhiModel.power(g) for g in (0.5, 1.0, 1.5, 2.0, 3.0)),
    md.PhiModel.shifted_power(0.3, 1.5),
    md.PhiModel.shifted_power(0.0, 2.0),
    *(md.PhiModel.constant(c) for c in (-1.0, 0.0, -0.0, 2.0)),
    # phi and phi + r phi' both change sign on [0, 4]
    md.PhiModel.tabulated(
        _SPEED_TABLE_RS, 1.0 - _SPEED_TABLE_RS + 0.1 * _SPEED_TABLE_RS**2, label="tab:dip"
    ),
]


@pytest.mark.parametrize("phi", SPEED_PHIS, ids=lambda phi: phi.label)
def test_family_wave_speed_is_bit_identical_to_the_general_formula(phi):
    r = np.concatenate(
        [
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308],  # zero and subnormals
            np.random.default_rng(11).uniform(0.0, phi.r_max, 256),
            [phi.r_max],
        ]
    )
    speed = _assert_speed_is_the_general_formula(phi, r)
    # the formulas are module-level partials: a PhiModel still pickles, and
    # the copy gives the same bits
    copy = pickle.loads(pickle.dumps(phi))
    assert copy.label == phi.label and copy.r_max == phi.r_max
    assert np.array_equal(_bits(_assert_speed_is_the_general_formula(copy, r)), _bits(speed))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(1e-6, 8.0),
    c=st.floats(0.0, 1e3),
    radii=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16),
)
def test_power_and_shifted_speeds_are_the_general_formula(gamma, c, radii):
    r = np.array(radii)
    for phi in (md.PhiModel.power(gamma), md.PhiModel.shifted_power(c, gamma)):
        _assert_speed_is_the_general_formula(phi, r)


def test_structure_condition_report():
    assert md.PhiModel.power(1.0).c1_report.satisfied
    assert md.PhiModel.power(0.5).c1_report.satisfied
    assert md.PhiModel.shifted_power(1.0, 1.0).c1_report.satisfied
    rep = md.PhiModel.constant(1.0).c1_report
    assert not rep.satisfied
    assert rep.min_abs_r_dphi == 0.0


def test_strict_hyperbolicity_report():
    rep = md.check_strict_hyperbolicity(md.PhiModel.power(1.0), 0.1, 5.0)
    assert rep.passed and rep.min_gap == pytest.approx(0.1, rel=1e-12)
    rep = md.check_strict_hyperbolicity(md.PhiModel.constant(1.0), 0.1, 5.0)
    assert not rep.passed and rep.min_gap == 0.0
    with pytest.raises(ConfigError):
        md.check_strict_hyperbolicity(md.PhiModel.power(1.0), 0.0, 5.0)
    with pytest.raises(ConfigError):
        md.check_strict_hyperbolicity(md.PhiModel.power(1.0), 1.0, 99.0)


def test_level_radius_and_sup():
    phi = md.PhiModel.power(1.0)
    assert phi.level_radius(2.5) == pytest.approx(2.5, abs=1e-10)
    assert phi.sup_phi(2.0) == pytest.approx(2.0, rel=1e-10)
    shifted = md.PhiModel.shifted_power(1.0, 2.0)
    assert shifted.level_radius(5.0) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ConfigError):
        phi.level_radius(99.0)
