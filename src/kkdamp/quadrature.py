"""Cumulative integrals F(r) = int_0^r f(s) ds with spot-checked accuracy,
the smooth compactly supported bump used for mollifiers and space-time
test functions, and the spatial weight of the weighted decay estimates."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, QuadratureFailure


def bump(s):
    """exp(-1 / (1 - s^2)) on |s| < 1, zero outside. Smooth, unnormalized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out[()]


def bump_derivative(s):
    """d/ds of `bump`: bump(s) * (-2 s / (1 - s^2)^2) inside the support."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = np.exp(-1.0 / one) * (-2.0 * si / (one * one))
    return out[()]


def weight(x):
    """Spatial weight k(x) = exp(-h(x)) with h(x) = sqrt(1 + x^2). Since
    |h'| <= 1, |k'| <= k: that slope bound is what lets the weighted entropy
    flux term be absorbed into the weighted entropy itself."""
    return np.exp(-np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2))


def weight_slope(x):
    """d/dx of `weight`: -h'(x) k(x) with h'(x) = x / sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    return -(x / np.sqrt(1.0 + x * x)) * weight(x)


class CumulativeIntegral:
    """F(r) = int_0^r f(s) ds on [0, r_max], evaluable on arrays.

    Per-segment adaptive quadrature on nodes clustered quadratically near
    zero (integrands like s**(m-1) phi'(s) may be singular there but
    integrable), accumulated and interpolated with a cubic spline. The
    spline is spot-checked against direct adaptive quadrature at probe
    points, to within `abs_tol * max(1, max |F(probe)|)`: absolute for
    integrals up to 1, relative beyond, where an absolute 1e-10 would be
    below the rounding of F itself. On failure the node count doubles, up
    to `max_nodes`, after which QuadratureFailure is raised. So it is when
    the probe integrals or the cumulative sums are not finite or the spline
    cannot be built (its slopes overflow); each message names r_max.
    `probes` holds the probe radii and `probe_errors` quad's estimate of
    each probe integral's absolute error.
    """

    def __init__(
        self,
        f,
        r_max: float,
        abs_tol: float = 1e-10,
        n_init: int = 256,
        max_nodes: int = 8192,
    ):
        if r_max <= 0 or not np.isfinite(r_max):
            raise ConfigError(f"r_max must be positive and finite, got {r_max}")
        if abs_tol <= 0:
            raise ConfigError(f"abs_tol must be positive, got {abs_tol}")
        self.f = f
        self.r_max = float(r_max)
        self.abs_tol = float(abs_tol)

        self.probes = probes = self.r_max * np.array(
            [1e-4, 1e-3, 1e-2, 0.05, 0.13, 0.25, 0.41, 0.5, 0.66, 0.79, 0.9, 1.0]
        )
        direct, self.probe_errors = np.array([self._direct(r) for r in probes]).T
        if not np.all(np.isfinite(direct)):
            raise self._failure("probe integrals are not finite")

        tol = self.abs_tol * max(1.0, float(np.max(np.abs(direct))))
        n = int(n_init)
        while True:
            self._build(n)
            err = np.max(np.abs(self(probes) - direct))
            if err <= tol:
                self.probe_error = float(err)
                return
            if n >= max_nodes:
                raise self._failure(
                    f"not within {tol:g} at {max_nodes} nodes (probe error {err:.3e})"
                )
            n *= 2

    def _failure(self, why: str) -> QuadratureFailure:
        return QuadratureFailure(f"cumulative integral on [0, r_max = {self.r_max:g}]: {why}")

    def _direct(self, r: float) -> tuple[float, float]:
        """int_0^r f by adaptive quadrature, and quad's estimate of its absolute error."""
        if r == 0.0:
            return 0.0, 0.0
        from scipy.integrate import quad

        return quad(self.f, 0.0, r, epsabs=self.abs_tol * 0.1, epsrel=1e-12, limit=400)

    def _build(self, n: int):
        from scipy.integrate import quad
        from scipy.interpolate import CubicSpline

        nodes = self.r_max * np.linspace(0.0, 1.0, n + 1) ** 2
        segs = np.empty(n)
        seg_tol = self.abs_tol * 0.1 / n
        for i in range(n):
            segs[i], _ = quad(
                self.f, nodes[i], nodes[i + 1], epsabs=seg_tol, epsrel=1e-12, limit=200
            )
        cumulative = np.concatenate([[0.0], np.cumsum(segs)])
        if not np.all(np.isfinite(cumulative)):
            raise self._failure("cumulative sums are not finite")
        try:
            self._spline = CubicSpline(nodes, cumulative)
        except ValueError as exc:  # slopes that overflow, or nodes that underflow into repeats
            raise self._failure(f"no spline: {exc}") from exc
        # below the first interior node the spline cannot deliver relative
        # accuracy (F(r) -> 0 there); route those through direct quadrature
        self._small_cut = nodes[1]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < -1e-15) or np.any(r > self.r_max * (1.0 + 1e-12)):
            raise ConfigError(f"argument outside [0, {self.r_max:g}]")
        rc = np.clip(r, 0.0, self.r_max)
        out = np.asarray(self._spline(rc), dtype=float)
        flat_r = np.atleast_1d(rc).ravel()
        small = np.nonzero(flat_r < self._small_cut)[0]
        if small.size:
            flat_out = np.atleast_1d(out).ravel()
            for i in small:
                flat_out[i] = self._direct(float(flat_r[i]))[0]
            out = flat_out.reshape(np.shape(rc))
        return out[()]
