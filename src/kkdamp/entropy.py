"""Radial entropy pairs for the symmetric system.

For eta = eta(r) the pairing condition grad(eta) . dF = grad(q) reduces to
the scalar relation q'(r) = eta'(r) lambda_2(r) with lambda_2 = phi + r phi'.
For the power family eta = r**m (m >= 1) integration by parts gives the
closed form

    q(r) = m r**m phi(r) - m (m - 1) int_0^r s**(m-1) phi(s) ds,

which is what `power_entropy_pair` evaluates, the moment by cumulative
quadrature (`quadrature.CumulativeIntegral`, whose one accuracy contract is
`quadrature.ABS_TOL`). Since q' = m r**(m-1) lambda_2,
|q(r)| <= r**m sup_[0,r] |lambda_2|, and `power_entropy_pair` refuses a
pair whose quadrature breaks that bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as md
from .errors import ConfigError, QuadratureFailure
from .quadrature import CumulativeIntegral


@dataclass(frozen=True)
class EntropyPair:
    q: Callable             # the entropy flux q(r)
    m: float                # the exponent: eta = r**m


@dataclass(frozen=True)
class BoundReport:
    """Check of |q(r)| <= 2 m M r**m with M = sup phi on the working range."""

    max_ratio: float
    passed: bool


def power_entropy_pair(m: float, phi: md.PhiModel) -> EntropyPair:
    """Entropy pair (r**m, q) for m >= 1 on [0, phi.r_max].

    ConfigError if m (m - 1), or s**(m - 1) on [0, r_max], overflows.
    Since q' = m r**(m-1) lambda_2, |q(r)| <= r**m sup_[0,r] |lambda_2|.
    QuadratureFailure if q breaks that bound at a probe radius of the moment
    by more than m (m - 1) times the moment's error there (the spline's
    probe error plus the quadrature's estimate) plus a relative 1e-9, which
    const:c needs, as it meets the bound with equality. This catches a large
    m, whose integrand peaks at r_max between every node: probes and spline
    then agree on a moment of about 0, and q(r_max) reads about m r_max**m
    phi(r_max). sup |lambda_2| is taken as the running maximum of the wave
    speed max(|phi|, |lambda_2|): at the probe radii alone for power,
    shifted and const, whose speed grows with r and is |lambda_2|, and also
    over 4096 even radii for a tabulated phi, a sampled sup."""
    if not 1.0 <= m < np.inf:
        raise ConfigError(f"power entropy needs finite m >= 1, got {m}")
    m = float(m)
    if not m * (m - 1.0) < np.inf:
        raise ConfigError(f"power entropy needs a finite m (m - 1), got m = {m:g}")
    try:
        moment = CumulativeIntegral(lambda s: s ** (m - 1.0) * float(phi.phi(s)), phi.r_max)
    except OverflowError as exc:  # a float s**(m - 1) raises instead of reading inf
        raise ConfigError(f"power entropy m={m:g}: s**(m - 1) overflows on "
                          f"[0, r_max = {phi.r_max:g}]") from exc

    def q(r):
        r = np.asarray(r, dtype=float)
        return (m * r**m * phi.phi(r) - m * (m - 1.0) * moment(r))[()]

    rs = moment.probes
    grid = rs if phi.speed_grows_with_r else np.union1d(np.linspace(0.0, phi.r_max, 4096), rs)
    with np.errstate(over="ignore", invalid="ignore"):
        speed = np.maximum.accumulate(phi.wave_speed(grid, phi.phi(grid)))
        cap = rs**m * speed[np.searchsorted(grid, rs)]
        q_rs = q(rs)
        slack = 1e-9 * cap + m * (m - 1.0) * (moment.probe_error + moment.probe_errors)
        broken = np.nonzero(~(np.abs(q_rs) <= cap + slack))[0]  # a nan q breaks it too
    if broken.size:
        i = broken[-1]
        raise QuadratureFailure(
            f"power entropy m={m:g}, {phi.label}: q({rs[i]:g}) = {q_rs[i]:g} breaks "
            f"|q(r)| <= r**m sup |lambda_2| = {cap[i]:g}; the moment's quadrature is wrong there"
        )

    return EntropyPair(q=q, m=m)


def flux_bound(pair: EntropyPair, sup_phi: float, r_working: float) -> BoundReport:
    """|q(r)| <= 2 m M r**m on (0, r_working], M = sup phi there (compute
    M with PhiModel.sup_phi), sampled at 4096 even radii and 64 log-spaced
    ones toward r = 0."""
    if r_working <= 0:
        raise ConfigError(f"r_working must be positive, got {r_working}")
    if sup_phi <= 0:
        warnings.warn("sup phi <= 0 makes the bound vacuous or empty")
    rs = np.concatenate(
        [
            r_working * 10.0 ** -np.linspace(8.0, 1.0, 64),
            np.linspace(r_working / 4096, r_working, 4096),
        ]
    )
    qs = np.abs(np.asarray(pair.q(rs), dtype=float))
    cap = 2.0 * pair.m * sup_phi * rs**pair.m
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a zero cap holds a zero |q| (ratio 0) and nothing else (ratio inf);
        # a subnormal one may overflow the ratio to inf
        ratio = np.where(cap > 0, qs / cap, np.where(qs == 0.0, 0.0, np.inf))
    max_ratio = float(np.max(ratio))
    return BoundReport(max_ratio=max_ratio, passed=max_ratio <= 1.0 + 1e-10)
