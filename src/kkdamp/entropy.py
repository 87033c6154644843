"""Radial entropy pairs for the symmetric system.

For eta = eta(r) the pairing condition grad(eta) . dF = grad(q) reduces to
the scalar relation q'(r) = eta'(r) lambda_2(r) with lambda_2 = phi + r phi'.
Writing psi = q - eta phi, this is psi'(s) = (s eta'(s) - eta(s)) phi'(s),
which is integrated cumulatively from 0. For the power family eta = r**m
(m >= 1) integration by parts gives the closed form

    q(r) = m r**m phi(r) - m (m - 1) int_0^r s**(m-1) phi(s) ds,

which is what `power_entropy_pair` evaluates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as md
from .errors import ConfigError, NonLipschitz
from .quadrature import CumulativeIntegral


@dataclass(frozen=True)
class EntropyPair:
    eta: Callable
    deta: Callable          # eta'
    q: Callable
    label: str
    quadrature_tol: float
    m: float | None = None  # exponent when eta = r**m, else None


@dataclass(frozen=True)
class PairingReport:
    max_residual: float
    argmax_state: tuple[float, float]
    tol: float
    passed: bool
    n_states: int


@dataclass(frozen=True)
class BoundReport:
    """Check of |q(r)| <= 2 m M r**m with M = sup phi on the working range."""

    max_ratio: float
    argmax_r: float
    m: float
    sup_phi: float
    passed: bool
    n_samples: int


def power_entropy_pair(
    m: float, phi: md.PhiModel, quadrature_tol: float = 1e-10
) -> EntropyPair:
    """Entropy pair (r**m, q) for m >= 1 on [0, phi.r_max]."""
    if not 1.0 <= m < np.inf:
        raise ConfigError(f"power entropy needs finite m >= 1, got {m}")
    m = float(m)
    moment = CumulativeIntegral(
        lambda s: s ** (m - 1.0) * float(phi.phi(s)), phi.r_max, abs_tol=quadrature_tol
    )

    def eta(r):
        return np.asarray(r, dtype=float) ** m

    def deta(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = m * r ** (m - 1.0)
        return out[()]

    def q(r):
        r = np.asarray(r, dtype=float)
        return (m * r**m * phi.phi(r) - m * (m - 1.0) * moment(r))[()]

    return EntropyPair(
        eta=eta,
        deta=deta,
        q=q,
        label=f"power entropy m={m:g}, {phi.label}",
        quadrature_tol=quadrature_tol,
        m=m,
    )


def flux_from_eta(
    eta: Callable,
    deta: Callable,
    phi: md.PhiModel,
    quadrature_tol: float = 1e-10,
    label: str = "custom entropy",
) -> EntropyPair:
    """Entropy flux for a general radial eta via cumulative quadrature of
    psi'(s) = (s eta'(s) - eta(s)) phi'(s), then q = psi + eta phi.

    Rejects candidates whose slope s*eta'(s) blows up toward r = 0
    (non-Lipschitz at the origin; the pairing integral is not usable)."""
    probe = phi.r_max * 10.0 ** -np.linspace(12.0, 1.0, 45)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs(probe * np.asarray(deta(probe), dtype=float))
    ref = max(1.0, abs(float(deta(phi.r_max))) * phi.r_max)
    if not np.all(np.isfinite(slope)) or np.max(slope) > 1e8 * ref:
        raise NonLipschitz("r * eta'(r) unbounded near r = 0")

    def integrand(s: float) -> float:
        return (s * float(deta(s)) - float(eta(s))) * float(phi.dphi(s))

    psi = CumulativeIntegral(integrand, phi.r_max, abs_tol=quadrature_tol)

    def q(r):
        r = np.asarray(r, dtype=float)
        return (psi(r) + np.asarray(eta(r), dtype=float) * phi.phi(r))[()]

    return EntropyPair(
        eta=eta, deta=deta, q=q, label=label, quadrature_tol=quadrature_tol, m=None
    )


def verify_pair(
    pair: EntropyPair,
    phi: md.PhiModel,
    states,
    tol: float | None = None,
    fd_step: float = 1e-6,
) -> PairingReport:
    """Residual | grad(eta) . dF - grad(q) | at sample states, with both
    gradients taken by central differences in (u, v) so the check does not
    reuse the analytic construction it is verifying."""
    if tol is None:
        # FD gradients floor the achievable residual near sqrt(eps);
        # quadrature_tol only matters below that.
        tol = max(1e-6, 10.0 * pair.quadrature_tol)

    def eta_of(u, v):
        return float(pair.eta(np.hypot(u, v)))

    def q_of(u, v):
        return float(pair.q(np.hypot(u, v)))

    worst = 0.0
    worst_state = (np.nan, np.nan)
    n = 0
    for s in states:
        u, v = (s.u, s.v) if isinstance(s, md.State) else (float(s[0]), float(s[1]))
        n += 1
        hu = fd_step * max(1.0, abs(u))
        hv = fd_step * max(1.0, abs(v))
        grad_eta = np.array(
            [
                (eta_of(u + hu, v) - eta_of(u - hu, v)) / (2 * hu),
                (eta_of(u, v + hv) - eta_of(u, v - hv)) / (2 * hv),
            ]
        )
        grad_q = np.array(
            [
                (q_of(u + hu, v) - q_of(u - hu, v)) / (2 * hu),
                (q_of(u, v + hv) - q_of(u, v - hv)) / (2 * hv),
            ]
        )
        a_mat = md.jacobian(md.State(u, v), phi)
        res = float(np.max(np.abs(grad_eta @ a_mat - grad_q)))
        if res > worst:
            worst = res
            worst_state = (u, v)
    return PairingReport(
        max_residual=worst,
        argmax_state=worst_state,
        tol=float(tol),
        passed=bool(worst <= tol),
        n_states=n,
    )


def flux_bound(
    pair: EntropyPair,
    sup_phi: float,
    r_working: float,
    n_samples: int = 4096,
) -> BoundReport:
    """|q(r)| <= 2 m M r**m on (0, r_working], M = sup phi there (compute
    M with PhiModel.sup_phi). Only defined for power-family pairs."""
    if pair.m is None:
        raise ConfigError("flux bound applies to power-family pairs only")
    if r_working <= 0:
        raise ConfigError(f"r_working must be positive, got {r_working}")
    if sup_phi <= 0:
        warnings.warn("sup phi <= 0 makes the bound vacuous or empty")
    rs = np.concatenate(
        [
            r_working * 10.0 ** -np.linspace(8.0, 1.0, 64),
            np.linspace(r_working / n_samples, r_working, n_samples),
        ]
    )
    qs = np.abs(np.asarray(pair.q(rs), dtype=float))
    cap = 2.0 * pair.m * sup_phi * rs**pair.m
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cap > 0, qs / cap, np.inf)
    k = int(np.argmax(ratio))
    return BoundReport(
        max_ratio=float(ratio[k]),
        argmax_r=float(rs[k]),
        m=pair.m,
        sup_phi=float(sup_phi),
        passed=bool(ratio[k] <= 1.0 + 1e-10),
        n_samples=int(rs.size),
    )
