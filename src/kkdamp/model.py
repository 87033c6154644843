"""Velocity model, eigenstructure and the angular invariant Z = u/v of the
symmetric Keyfitz-Kranzer system with linear damping.

The system is

    u_t + (u phi(r))_x + a u = 0
    v_t + (v phi(r))_x + b v = 0,      r = sqrt(u^2 + v^2),

for a scalar radial velocity function phi on [0, r_max]. The flux Jacobian
is phi(r) I + (phi'(r)/r) w w^T with w = (u, v), so the eigenvalues are

    lambda_1 = phi(r)                  (eigenvector orthogonal to w)
    lambda_2 = phi(r) + r phi'(r)      (eigenvector parallel to w)

and the fields are separated exactly when r phi'(r) != 0. Field 1 is
always linearly degenerate; field 2 has the nonlinearity indicator
grad(lambda_2) . r2_hat = 2 phi'(r) + r phi''(r).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AxisState,
    ConfigError,
    DegenerateState,
    OutOfRange,
    ValidationError,
)

R_MAX_DEFAULT = 10.0

LINEARLY_DEGENERATE = "linearly_degenerate"
GENUINELY_NONLINEAR = "genuinely_nonlinear"


@dataclass(frozen=True)
class C1Report:
    """Sampled check of the structure condition on phi:
    r phi(r) -> 0 as r -> 0+, and r phi'(r) != 0 on (0, r_max]."""

    satisfied: bool
    min_abs_r_dphi: float


@dataclass(frozen=True)
class FieldClassification:
    gn_value: float         # grad(lambda_i) . unit eigenvector, exact formula
    kind: str               # LINEARLY_DEGENERATE / GENUINELY_NONLINEAR


def short_label(x: float) -> str:
    """x as the shortest `g` text where that reads back as x, else repr(x),
    so two floats never share a label or a file name."""
    text = format(x, "g")
    return text if float(text) == x else repr(x)


# family formulas: module-level and bound by functools.partial, so a PhiModel pickles
def _power(r, g):
    return r**g


def _shifted(r, c, g):
    return c + r**g


def _scaled_power(r, k, g):  # k r**g: the derivatives of both power families
    return k * r**g


def _constant(r, c):
    return np.full_like(r, c)[()]


def _r_times(r, dphi):  # r phi'(r) of a table, continued by its limit 0 at r = 0
    return np.where(r == 0.0, 0.0, r * dphi(r))[()]


# wave speeds max(|phi|, |phi + r phi'|) from r >= 0 and p = phi(r), bit for bit;
# none writes into p
def _power_speed(r, p, g):  # r phi' = g p >= 0 and p >= 0: (1 + g) p, as p + g p
    s = p * g
    s += p
    return s


def _general_speed(r, p, r_dphi):
    s = p + r_dphi(r)  # lambda_2
    np.abs(s, out=s)
    return np.maximum(np.abs(p), s, out=s)


class PhiModel:
    """Radial velocity function phi with derivatives on [0, r_max].

    Instances are built through the family constructors (`power`,
    `shifted_power`, `constant`, `tabulated`, `from_file`) or from a
    compact label via `from_spec` ("power:2", "shifted:1,1", "const:1",
    "tabulated:<path>").

    Each family supplies its wave speed max(|phi|, |phi + r phi'|) from r
    and the phi(r) already computed (`wave_speed`): (1 + gamma) phi for
    `power`, bit-identical to the general formula without a second
    r**gamma, abs or maximum; the general formula for the other families.

    `speed_grows_with_r` is a fact of the family, set by its constructor:
    True when the wave speed does not decrease in r, so that its maximum
    over a field sits at the field's top radius.
    """

    def __init__(
        self,
        label: str,
        r_max: float,
        phi_fn: Callable,
        dphi_fn: Callable,
        d2phi_fn: Callable,
        r_dphi_fn: Callable,
        speed_fn: Callable,
        speed_grows_with_r: bool,
    ):
        if not np.isfinite(r_max) or r_max <= 0:
            raise ConfigError(f"r_max must be positive and finite, got {r_max}")
        self.label = label
        self.r_max = float(r_max)
        self._phi = phi_fn
        self._dphi = dphi_fn
        self._d2phi = d2phi_fn
        self._r_dphi = r_dphi_fn
        self._speed = speed_fn
        self.speed_grows_with_r = speed_grows_with_r
        self.phi0 = float(phi_fn(0.0))
        self.c1_report = self._check_structure_condition()

    # -- evaluation -----------------------------------------------------

    def phi(self, r):
        return self._phi(np.asarray(r, dtype=float))

    def dphi(self, r):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._dphi(np.asarray(r, dtype=float))

    def d2phi(self, r):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._d2phi(np.asarray(r, dtype=float))

    def r_dphi(self, r):
        """r * phi'(r), continued by its limit 0 at r = 0; each family supplies the formula."""
        return self._r_dphi(np.asarray(r, dtype=float))

    def wave_speed(self, r: np.ndarray, p: np.ndarray) -> np.ndarray:
        """max(|phi(r)|, |phi(r) + r phi'(r)|) from float arrays r >= 0 and
        p = phi(r), leaving p as it is; each family supplies the formula."""
        return self._speed(r, p)

    def lambda2(self, r):
        return self.phi(r) + self.r_dphi(r)

    def check_radius(self, r: float) -> float:
        """r, after checking r <= r_max (to 1e-12 relative); OutOfRange if not.
        The one owner of that rule, for point states and for whole grids."""
        if not r <= self.r_max * (1.0 + 1e-12):  # nan too
            raise OutOfRange(f"state radius {r:g} is outside [0, r_max={self.r_max:g}]")
        return r

    def sup_phi(self, r_hi: float | None = None) -> float:
        """sup |phi| over [0, r_hi] by dense sampling."""
        hi = self.r_max if r_hi is None else float(r_hi)
        if hi <= 0 or hi > self.r_max:
            raise ConfigError(f"r_hi must lie in (0, r_max], got {hi}")
        rs = np.linspace(0.0, hi, 4096)
        return float(np.max(np.abs(self.phi(rs))))

    def level_radius(self, c: float) -> float:
        """Smallest r in (0, r_max] with phi(r) = c. Requires c in the
        sampled range of phi; used to locate the boundary {W = C0}."""
        rs = np.linspace(0.0, self.r_max, 4097)
        vals = self.phi(rs) - c
        if abs(vals[0]) < 1e-14:
            return 0.0
        # by signs: the product of two values can overflow, or underflow to 0
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
        if sign_change.size == 0:
            raise ConfigError(
                f"level phi = {c} not attained on (0, {self.r_max}] for {self.label}"
            )
        i = int(sign_change[0])
        if vals[i + 1] == 0.0:
            return float(rs[i + 1])
        from scipy.optimize import brentq

        return float(brentq(lambda r: float(self.phi(r)) - c, rs[i], rs[i + 1]))

    # -- structure condition --------------------------------------------

    def _check_structure_condition(self) -> C1Report:
        small = self.r_max * 10.0 ** -np.arange(2.0, 13.0)
        rs = np.concatenate(
            [
                self.r_max * 10.0 ** -np.linspace(6.0, 1.0, 64),
                np.linspace(self.r_max / 256.0, self.r_max, 512),
            ]
        )
        # a huge r_max or gamma overflows to inf here; inf compares as the
        # value it stands for, so the tests below hold
        with np.errstate(over="ignore"):
            limit_vals = small * self.phi(small)
            abs_r_dphi = np.abs(self.r_dphi(rs))
        scale = max(1.0, abs(float(limit_vals[0])))
        limit_ok = abs(float(limit_vals[-1])) <= 1e-8 * scale
        min_gap = float(np.min(abs_r_dphi))
        return C1Report(satisfied=bool(limit_ok and min_gap > 0.0), min_abs_r_dphi=min_gap)

    # -- families --------------------------------------------------------

    @classmethod
    def power(cls, gamma: float, r_max: float = R_MAX_DEFAULT) -> "PhiModel":
        """phi(r) = r**gamma, gamma > 0."""
        if not 0 < gamma < np.inf:
            raise ConfigError(f"power family needs finite gamma > 0, got {gamma}")
        g = float(gamma)
        return cls(
            label=f"power:{short_label(g)}",
            r_max=r_max,
            phi_fn=partial(_power, g=g),
            dphi_fn=partial(_scaled_power, k=g, g=g - 1.0),
            d2phi_fn=partial(_scaled_power, k=g * (g - 1.0), g=g - 2.0),
            r_dphi_fn=partial(_scaled_power, k=g, g=g),
            speed_fn=partial(_power_speed, g=g),
            speed_grows_with_r=True,  # (1 + gamma) r**gamma
        )

    @classmethod
    def shifted_power(
        cls, c: float, gamma: float, r_max: float = R_MAX_DEFAULT
    ) -> "PhiModel":
        """phi(r) = c + r**gamma, c >= 0, gamma > 0; the derivatives are power's."""
        if not 0 <= c < np.inf:
            raise ConfigError(f"shifted family needs finite c >= 0, got {c}")
        if not 0 < gamma < np.inf:
            raise ConfigError(f"shifted family needs finite gamma > 0, got {gamma}")
        c = float(c)
        g = float(gamma)
        r_dphi = partial(_scaled_power, k=g, g=g)
        return cls(
            label=f"shifted:{short_label(c)},{short_label(g)}",
            r_max=r_max,
            phi_fn=partial(_shifted, c=c, g=g),
            dphi_fn=partial(_scaled_power, k=g, g=g - 1.0),
            d2phi_fn=partial(_scaled_power, k=g * (g - 1.0), g=g - 2.0),
            r_dphi_fn=r_dphi,
            speed_fn=partial(_general_speed, r_dphi=r_dphi),
            speed_grows_with_r=True,  # c + (1 + gamma) r**gamma, c >= 0
        )

    @classmethod
    def constant(cls, c: float, r_max: float = R_MAX_DEFAULT) -> "PhiModel":
        """phi(r) = c. Both fields collapse to speed c; the transport
        decouples channel by channel. Fails the structure condition
        (r phi' = 0), which is recorded in `c1_report`, not raised."""
        if not np.isfinite(c):
            raise ConfigError(f"constant family needs a finite c, got {c}")
        c = float(c)
        r_dphi = partial(_constant, c=0.0)
        return cls(
            label=f"const:{short_label(c)}",
            r_max=r_max,
            phi_fn=partial(_constant, c=c),
            dphi_fn=partial(_constant, c=0.0),
            d2phi_fn=partial(_constant, c=0.0),
            r_dphi_fn=r_dphi,
            speed_fn=partial(_general_speed, r_dphi=r_dphi),
            speed_grows_with_r=True,  # |c| at every r
        )

    @classmethod
    def tabulated(
        cls, r_samples, phi_samples, label: str = "tabulated", r_max: float | None = None
    ) -> "PhiModel":
        """Monotone C^1 interpolant through (r_j, phi_j); r_max is capped at r_samples[-1]."""
        rs = np.asarray(r_samples, dtype=float)
        vals = np.asarray(phi_samples, dtype=float)
        if rs.ndim != 1 or rs.size < 4 or rs.shape != vals.shape:
            raise ConfigError("tabulated family needs >= 4 matching samples")
        if rs[0] < 0 or np.any(np.diff(rs) <= 0):
            raise ConfigError("tabulated radii must be nonnegative and increasing")
        if not (np.all(np.isfinite(rs)) and np.all(np.isfinite(vals))):
            raise ConfigError("tabulated samples must be finite")
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(rs, vals, extrapolate=True)
        dphi = interp.derivative(1)
        r_dphi = partial(_r_times, dphi=dphi)
        return cls(
            label=label,
            # min(r_max, ...) keeps a nan r_max, which the constructor then refuses
            r_max=float(rs[-1]) if r_max is None else min(r_max, float(rs[-1])),
            phi_fn=interp,
            dphi_fn=dphi,
            d2phi_fn=interp.derivative(2),
            r_dphi_fn=r_dphi,
            speed_fn=partial(_general_speed, r_dphi=r_dphi),
            speed_grows_with_r=False,  # PCHIP keeps phi monotone, not phi + r phi'
        )

    @classmethod
    def from_file(cls, path, r_max: float | None = None) -> "PhiModel":
        """Two-column whitespace table (r, phi); '#' comment lines allowed."""
        try:
            with warnings.catch_warnings():  # an empty table is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, comments="#", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read phi table: {exc}") from exc
        if data.shape[1] != 2:
            raise ConfigError(f"{path}: expected two columns (r, phi)")
        return cls.tabulated(data[:, 0], data[:, 1], label=f"tabulated:{path}", r_max=r_max)

    @classmethod
    def from_spec(cls, spec: str, r_max: float = R_MAX_DEFAULT) -> "PhiModel":
        """Parse a compact label: "power:G", "shifted:C,G", "const:C",
        "constant:C", "tabulated:PATH"."""
        head, sep, rest = spec.partition(":")
        head = head.strip().lower()
        if not sep:
            raise ConfigError(f"phi spec {spec!r} needs '<family>:<params>'")
        try:
            if head == "power":
                return cls.power(float(rest), r_max=r_max)
            if head == "shifted":
                parts = rest.split(",")
                if len(parts) != 2:
                    raise ConfigError(f"shifted spec needs 'c,gamma', got {rest!r}")
                return cls.shifted_power(float(parts[0]), float(parts[1]), r_max=r_max)
            if head in ("const", "constant"):
                return cls.constant(float(rest), r_max=r_max)
            if head == "tabulated":
                return cls.from_file(rest, r_max=r_max)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad phi spec {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown phi family {head!r}")

    def __repr__(self):
        return f"PhiModel({self.label}, r_max={self.r_max:g})"


@dataclass(frozen=True)
class State:
    """Point value (u, v) of the conserved pair."""

    u: float
    v: float

    @property
    def r(self) -> float:
        return float(np.hypot(self.u, self.v))


@dataclass(frozen=True)
class Damping:
    """Per-channel damping rates; ordering a >= b >= 0 is required so the
    angular invariant Z = u/v is nonincreasing in magnitude."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValidationError("damping", "rates must be finite")
        if self.b < 0:
            raise ValidationError("damping", f"need b >= 0, got b={self.b}")
        if self.a < self.b:
            raise ValidationError(
                "damping",
                f"need a >= b (damping-order condition C2), got a={self.a} < b={self.b}",
            )


class EigenBasis(NamedTuple):
    r1: np.ndarray          # unit eigenvector of lambda_1, (v, -u)/r
    r2: np.ndarray          # unit eigenvector of lambda_2, (u, v)/r


def _state_radius(s: State, phi: PhiModel) -> float:
    """s.r after phi.check_radius; OutOfRange also where phi or lambda_2 is not finite."""
    r = phi.check_radius(s.r)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(phi.lambda2(r)):
            raise OutOfRange(f"phi or lambda_2 is not finite at state radius {r:g} ({phi.label})")
    return r


def eigenvalues(s: State, phi: PhiModel) -> tuple[float, float]:
    """(lambda_1, lambda_2) = (phi(r), phi(r) + r phi'(r)); r = 0 is degenerate."""
    r = _state_radius(s, phi)
    if r == 0.0:
        raise DegenerateState("eigenvalues coincide at r = 0")
    return float(phi.phi(r)), float(phi.lambda2(r))


def eigenvectors(s: State) -> EigenBasis:
    """Unit eigenvectors with the fixed normalization r1 = (v, -u)/r,
    r2 = (u, v)/r. Raises DegenerateState at r = 0."""
    r = s.r
    if r == 0.0:
        raise DegenerateState("eigenvectors undefined at r = 0")
    r1 = np.array([s.v, -s.u]) / r
    r2 = np.array([s.u, s.v]) / r
    return EigenBasis(r1=r1, r2=r2)


def z_invariant(u, v):
    """Z = u/v of a state or a field; AxisState where v = 0, the one owner of that rule."""
    if np.any(np.asarray(v) == 0.0):
        raise AxisState("Z = u/v undefined where v = 0")
    return u / v


def classify_field(s: State, phi: PhiModel, field_index: int) -> FieldClassification:
    """Nonlinearity indicator grad(lambda_i) . unit eigenvector at a state.

    Field 1 gives exactly 0 (linearly degenerate for every phi). Field 2
    gives 2 phi'(r) + r phi''(r)."""
    if field_index not in (1, 2):
        raise ConfigError(f"field_index must be 1 or 2, got {field_index}")
    r = _state_radius(s, phi)
    if r == 0.0:
        raise DegenerateState("classification undefined at r = 0")
    if field_index == 1:
        return FieldClassification(0.0, LINEARLY_DEGENERATE)
    gn = 2.0 * float(phi.dphi(r)) + r * float(phi.d2phi(r))
    lam2 = float(phi.lambda2(r))
    kind = LINEARLY_DEGENERATE if abs(gn) <= 1e-10 * max(1.0, abs(lam2)) else GENUINELY_NONLINEAR
    return FieldClassification(gn, kind)

