"""Cumulative integrals F(r) = int_0^r f(s) ds with spot-checked accuracy,
the not-a-knot cubic spline that interpolates them (numpy and LAPACK's
tridiagonal solve on Python floats, value for value scipy's `CubicSpline`),
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


def solve_tridiagonal(dl, d, du, b) -> list[float]:
    """x with A x = b, for the n x n tridiagonal A with sub-, main and
    super-diagonals dl, d, du (n >= 2). LAPACK's `dgtsv` for one right-hand
    side (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999), row by row
    on Python floats, so bit for bit its result: Gaussian elimination with
    partial pivoting, whose row swaps fill a second super-diagonal, then
    back substitution. ValueError on a zero pivot, where dgtsv returns
    info > 0."""
    dl, d, du, b = (np.asarray(a, dtype=float).tolist() for a in (dl, d, du, b))
    n = len(d)
    du2 = [0.0] * n  # the fill-in of the row swaps
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
        else:  # swap rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("singular matrix")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


class NotAKnotSpline:
    """The not-a-knot cubic spline through (x, y), at least 4 nodes.

    Bit for bit scipy's `CubicSpline(x, y)` in its coefficients `c` and its
    values: the same slopes, interior rows and not-a-knot end rows, the
    system solved by `solve_tridiagonal` (scipy's `solve_banded` calls
    LAPACK `dgtsv`), the Hermite coefficients formed as `CubicHermiteSpline`
    forms them, and PPoly's evaluation: interval `searchsorted(x, r,
    "right") - 1` clipped to [0, n - 2] (half-open intervals, the last one
    closed, the end pieces extrapolated), summed in PPoly's power-series
    order. ValueError, where scipy raised one too, for nodes that are not
    strictly increasing, a singular system or derivatives that are not
    finite, and also for coefficients that are not finite (scipy warned
    and kept them)."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 4:
            raise ValueError(f"need at least 4 nodes, got {n}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("nodes are not strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):  # dx > 0: no division by zero
            slope = np.diff(y) / dx
            d = np.empty(n)
            d[0], d[1:-1], d[-1] = dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]
            du = np.concatenate([[x[2] - x[0]], dx[:-1]])
            dl = np.concatenate([dx[1:], [x[-1] - x[-3]]])
            b = np.empty(n)
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            h = x[2] - x[0]
            b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h
            h = x[-1] - x[-3]
            b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
            s = np.array(solve_tridiagonal(dl, d, du, b))
            if not np.all(np.isfinite(s)):
                raise ValueError("solved derivatives are not finite")
            t = (s[:-1] + s[1:] - 2 * slope) / dx
            self.c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
        if not np.all(np.isfinite(self.c)):
            raise ValueError("coefficients are not finite")
        self.x = x

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, "right") - 1, 0, len(self.x) - 2)
        s = r - self.x[i]
        c0, c1, c2, y = self.c[:, i]
        # PPoly's compiled loop never warns, and its sum starts from 0.0, so
        # a -0.0 at a node reads +0.0
        with np.errstate(over="ignore", invalid="ignore"):
            ss = s * s
            return 0.0 + y + c2 * s + c1 * ss + c0 * (ss * s)


class CumulativeIntegral:
    """F(r) = int_0^r f(s) ds on [0, r_max], evaluable on arrays.

    Per-segment adaptive quadrature (scipy's `quad`) on `n_init` >= 3
    segments whose nodes cluster quadratically near zero (integrands like
    s**(m-1) phi'(s) may be singular there but integrable), accumulated and
    interpolated with a `NotAKnotSpline`, bit for bit scipy's
    `CubicSpline`. The spline is spot-checked against direct adaptive
    quadrature at probe points, to within `abs_tol * max(1, max
    |F(probe)|)`: absolute for integrals up to 1, relative beyond, where an
    absolute 1e-10 would be below the rounding of F itself. On failure the
    node count doubles, up to `max_nodes`, after which QuadratureFailure is
    raised. So it is when the probe integrals or the cumulative sums are
    not finite, and, at the first build that meets it, `no spline: ...`
    when the nodes are not strictly increasing (they underflow into
    repeats), or the spline's derivatives or coefficients are not finite
    (its slopes overflow, or its coefficients do near r_max: more nodes
    only shrink the node spacing near 0, so no doubling mends that). Each
    message names r_max. `probes` holds the probe radii and `probe_errors`
    quad's estimate of each probe integral's absolute error.
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
        if n_init < 3:  # a spline through 3 nodes or fewer is a special case, not built
            raise ConfigError(f"n_init must be at least 3, got {n_init}")
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
            self._spline = NotAKnotSpline(nodes, cumulative)
        except ValueError as exc:
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
