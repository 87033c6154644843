"""Invariant-region bookkeeping in Riemann-invariant coordinates.

Sigma = { (u, v) : phi(r) <= C0,  C1 <= u/v <= C2 } with 0 <= C1 < C2.
The damping field g = (-a u, -b v) points inward through {W = C0} and
{Z = C2} whenever a >= b > 0 and u, v > 0, but through {Z = C1} it points
inward only when C1 = 0: for C1 > 0 the angular drift -(a - b) Z pushes
states across the lower edge, and the corresponding piece report flags
that boundary as outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .model import Damping, PhiModel, State, z_invariant


@dataclass(frozen=True)
class RegionSigma:
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        if not all(np.isfinite([self.c0, self.c1, self.c2])):
            raise ValidationError("region", "C0, C1, C2 must be finite")
        if self.c1 < 0:
            raise ValidationError("region", f"need C1 >= 0, got {self.c1}")
        if not self.c1 < self.c2:
            raise ValidationError(
                "region", f"need C1 < C2, got C1={self.c1}, C2={self.c2}"
            )


@dataclass(frozen=True)
class PieceReport:
    """Flow direction of g = (-a u, -b v) through one boundary piece.

    `outward_max` is the largest sampled component of g along the outward
    normal of Sigma on that piece; the piece passes when it is <= 0 up to
    rounding. `reversed_min` records the same dot product for the sign
    convention h = (+a u, +b v), so either orientation can be audited."""

    name: str
    outward_max: float
    outward_min: float
    reversed_min: float
    passed: bool
    n_samples: int


@dataclass(frozen=True)
class BoundaryFlowReport:
    w_piece: PieceReport
    z_upper: PieceReport
    z_lower: PieceReport
    passed: bool            # all pieces inward (lower edge included)
    inward_except_lower: bool


@dataclass(frozen=True)
class ContainmentReport:
    max_violation: float
    first_violation_time: float | None
    violations_per_time: np.ndarray
    passed: bool


def contains(s: State, sigma: RegionSigma, phi: PhiModel) -> bool:
    """Membership of a state in Sigma, with additive slack 1e-8 on each face;
    OutOfRange for a state beyond r_max."""
    z = z_invariant(s.u, s.v)
    w = float(phi.phi(phi.check_radius(s.r)))
    return (w <= sigma.c0 + 1e-8) and (sigma.c1 - 1e-8 <= z <= sigma.c2 + 1e-8)


def _piece(name: str, dots_outward: np.ndarray) -> PieceReport:
    # pass = flow never leaves through this piece (up to rounding)
    return PieceReport(
        name=name,
        outward_max=float(np.max(dots_outward)),
        outward_min=float(np.min(dots_outward)),
        reversed_min=float(np.min(-dots_outward)),
        passed=bool(np.max(dots_outward) <= 1e-12),
        n_samples=int(dots_outward.size),
    )


def boundary_flow_check(
    sigma: RegionSigma,
    phi: PhiModel,
    d: Damping,
    n_samples: int = 64,
) -> BoundaryFlowReport:
    """Sampled sign check of g . n_out on the three boundary pieces of
    Sigma in the first quadrant (u, v > 0).

    Requires strict ordering a > b: with a = b the angular field vanishes
    and both Z pieces are only neutrally invariant."""
    if not d.a > d.b:
        raise ConfigError(f"boundary flow check needs a > b, got a={d.a}, b={d.b}")
    if d.b <= 0:
        raise ConfigError(f"boundary flow check needs b > 0, got b={d.b}")

    # {W = C0}: radius r* with phi(r*) = C0; outward normal along grad W.
    r_star = phi.level_radius(sigma.c0)
    if r_star <= 0:
        raise ConfigError(f"level radius for C0={sigma.c0} degenerates to r = 0")
    zs = np.linspace(sigma.c1, sigma.c2, max(n_samples, 0))
    zs = zs[zs > 0] if sigma.c1 == 0 else zs  # v > 0, u = z v >= 0
    if zs.size < 2:
        raise ConfigError(f"boundary flow check needs >= 2 samples with v > 0, got {zs.size}")
    v = r_star / np.sqrt(1.0 + zs**2)
    u = zs * v
    dp = float(phi.dphi(r_star))
    # Sigma is the sublevel set {W <= C0}, so grad W points outward and
    # g . grad W = -phi'(r) (a u^2 + b v^2)/r is the outward component.
    dots_w = -dp * (d.a * u * u + d.b * v * v) / r_star
    w_piece = _piece("W=C0", dots_w)

    # {Z = C2}: outward normal along +grad Z; g . grad Z = -(a - b) u/v,
    # which equals -(a - b) C2 on the whole piece (r-independent).
    z_upper = _piece("Z=C2", np.full(n_samples, -(d.a - d.b) * sigma.c2))

    # {Z = C1}: outward normal along -grad Z, so the outward component is
    # +(a - b) C1: strictly positive for C1 > 0 (flagged), zero for C1 = 0.
    z_lower = _piece("Z=C1", np.full(n_samples, (d.a - d.b) * sigma.c1))

    return BoundaryFlowReport(
        w_piece=w_piece,
        z_upper=z_upper,
        z_lower=z_lower,
        passed=bool(w_piece.passed and z_upper.passed and z_lower.passed),
        inward_except_lower=bool(w_piece.passed and z_upper.passed),
    )


def trajectory_containment(
    traj,
    sigma: RegionSigma,
    phi: PhiModel,
    tol: float = 1e-8,
) -> ContainmentReport:
    """Largest pointwise violation of the Sigma constraints over a
    trajectory of state fields. Violation at a cell is
    max(phi(r) - C0, C1 - Z, Z - C2, 0)."""
    times = np.asarray(traj.times, dtype=float)
    per_time = np.empty(times.size)
    for k, f in enumerate(traj.fields):
        z = z_invariant(f.u, f.v)
        w = np.asarray(phi.phi(f.r), dtype=float)
        viol = np.maximum(w - sigma.c0, np.maximum(sigma.c1 - z, z - sigma.c2))
        per_time[k] = max(float(np.max(viol)), 0.0)
    max_violation = float(np.max(per_time))
    bad = np.nonzero(per_time > tol)[0]
    return ContainmentReport(
        max_violation=max_violation,
        first_violation_time=float(times[bad[0]]) if bad.size else None,
        violations_per_time=per_time,
        passed=max_violation <= tol,
    )
