"""Cumulative integrals F(r) = int_0^r f(s) ds with spot-checked accuracy,
the adaptive quadrature that computes them (QUADPACK's QAGS on Python
floats, bit for bit scipy's `quad`) and the not-a-knot cubic spline that
interpolates them (numpy and LAPACK's tridiagonal solve on Python floats,
value for value scipy's `CubicSpline`). One accuracy contract holds for
every cumulative integral: `ABS_TOL`, `N_INIT` and `MAX_NODES`. Only
`entropy` imports it."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, QuadratureFailure


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


class IntegrationWarning(UserWarning):
    """`qags` stopped short of its tolerance; the message is scipy's `quad`'s."""


# QUADPACK's d1mach(4), d1mach(1) and d1mach(2)
_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
_OFLOW = 1.7976931348623157e308

# the 21-point Kronrod abscissae on [0, 1] (descending, the centre last),
# their Kronrod weights, and the weights of the 10-point Gauss rule, whose
# abscissae are xgk[1], xgk[3], ..., xgk[9]
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_QAGS_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  If increasing the "
       "limit yields no improvement it is advised to analyze \n  the integrand in order to "
       "determine the difficulties.  If the position of a \n  local difficulty can be "
       "determined (singularity, discontinuity) one will \n  probably gain from splitting up "
       "the interval and calling the integrator \n  on the subranges.  Perhaps a "
       "special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  the requested "
       "tolerance from being achieved.  The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  in the extrapolation "
       "table.  It is assumed that the requested tolerance\n  cannot be achieved, and that "
       "the returned result (if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """QUADPACK's `dqk21`: the 21-point Kronrod estimate of int_a^b f, its
    error estimate, int |f| and int |f - mean f|, in QUADPACK's order of
    evaluation and summation."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):  # the Gauss abscissae
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    for j in (0, 2, 4, 6, 8):  # the Kronrod ones
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        scale = 200.0 * abserr / resasc
        # min(1, scale**1.5): a scale >= 1 gives 1 either way, and a Python
        # float power raises where C's overflows to inf
        abserr = resasc * (scale**1.5 if scale < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """QUADPACK's `dqpsrt`: keep `iord` (1-based, like `elist`) pointing at
    the error estimates in descending order, after `maxerr` was bisected
    into itself and `last`. Returns the next interval to bisect, its error
    and nrmax."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # only after a subdivision that raised the error estimate
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        # the list is kept in order only as far as subdivisions remain
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                for k in range(jbnd, i - 1, -1):  # then errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """QUADPACK's `dqelg`: Wynn's epsilon algorithm on the n (1-based)
    entries of `epstab` (53 long), the last of them new. Returns the
    shortened n, the extrapolated limit, its error estimate and nres, the
    number of calls so far; `res3la` (4 long, 1-based) holds the last three
    limits."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two entries very close, or an irregular table: drop its tail
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """int_a^b f for a <= b, and an estimate of its absolute error: QUADPACK's
    QAGS (Piessens et al., QUADPACK, Springer 1983), the routine behind
    scipy's `quad(f, a, b, epsabs=, epsrel=, limit=)` on a finite interval.
    Globally adaptive bisection with the 21-point Gauss-Kronrod rule (`dqk21`),
    the error list kept in order (`dqpsrt`) and Wynn's epsilon extrapolation
    (`dqelg`), written out from `dqagse` on Python floats and calling f on one
    Python float at a time, so `(result, abserr)` is quad's bit for bit. Its
    tests keep QUADPACK's sense (`not abseps >= abserr` where it jumps on
    `abseps >= abserr`), so that a nan takes QUADPACK's branch too.
    Where QUADPACK stops short (ier 1-5) it warns, with quad's message, an
    `IntegrationWarning`; an exception raised by f propagates. ValueError for
    a limit below 1 or tolerances that QUADPACK refuses (ier 6)."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0, 0.0
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError(f"qags: invalid limit {limit} or tolerances {epsabs}, {epsrel}")
    # the interval list, 1-based as in QUADPACK
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1] = a, b

    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _qags_done(result, abserr, ier, limit)

    rlist2 = [0.0] * 53  # the epsilon table, 1-based
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # QUADPACK's jump to 115: the result is the sum of the list
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour at a point
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the smallest interval is the one to bisect
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # ones first, while they lead the list
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # choose between the extrapolated result and the sum over the list
    test_divergence = False
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            test_divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
                test_divergence = not summed
            elif abserr > errsum:
                summed = True
            else:
                test_divergence = area != 0.0
    if test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # errsum > errbnd >= 0 here, so a zero area is divergent by its first
        # test (a nan errsum aside), before its ratio is read
        if errsum > abs(area) or (area != 0.0 and (0.01 > result / area or result / area > 100.0)):
            ier = 6
    if summed:
        result = 0.0  # in order: Python 3.12's sum() of floats is compensated
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return _qags_done(result, abserr, ier, limit)


def _qags_done(result: float, abserr: float, ier: int, limit: int) -> tuple[float, float]:
    if ier:
        warnings.warn(_QAGS_MESSAGES[ier].format(limit=limit), IntegrationWarning, stacklevel=3)
    return result, abserr


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


# CumulativeIntegral's accuracy: its probe tolerance, its first node count
# and the node count at which it gives up; read where used, so a test can patch them
ABS_TOL = 1e-10
N_INIT = 256
MAX_NODES = 8192


class CumulativeIntegral:
    """F(r) = int_0^r f(s) ds on [0, r_max], evaluable on arrays.

    Per-segment adaptive quadrature (`qags`) on `N_INIT`
    segments whose nodes cluster quadratically near zero (integrands like
    s**(m-1) phi'(s) may be singular there but integrable), accumulated and
    interpolated with a `NotAKnotSpline`, bit for bit scipy's
    `CubicSpline`. The spline is spot-checked against direct adaptive
    quadrature at probe points, to within `ABS_TOL * max(1, max
    |F(probe)|)`: absolute for integrals up to 1, relative beyond, where an
    absolute 1e-10 would be below the rounding of F itself. On failure the
    node count doubles, up to `MAX_NODES`, after which QuadratureFailure is
    raised. So it is when the probe integrals or the cumulative sums are
    not finite, and, at the first build that meets it, `no spline: ...`
    when the nodes are not strictly increasing (they underflow into
    repeats), or the spline's derivatives or coefficients are not finite
    (its slopes overflow, or its coefficients do near r_max: more nodes
    only shrink the node spacing near 0, so no doubling mends that). Each
    message names r_max. `probes` holds the probe radii and `probe_errors`
    `qags`'s estimate of each probe integral's absolute error.
    """

    def __init__(self, f, r_max: float):
        if r_max <= 0 or not np.isfinite(r_max):
            raise ConfigError(f"r_max must be positive and finite, got {r_max}")
        self.f = f
        self.r_max = float(r_max)

        self.probes = probes = self.r_max * np.array(
            [1e-4, 1e-3, 1e-2, 0.05, 0.13, 0.25, 0.41, 0.5, 0.66, 0.79, 0.9, 1.0]
        )
        direct, self.probe_errors = np.array([self._direct(r) for r in probes]).T
        if not np.all(np.isfinite(direct)):
            raise self._failure("probe integrals are not finite")

        tol = ABS_TOL * max(1.0, float(np.max(np.abs(direct))))
        n = N_INIT
        while True:
            self._build(n)
            err = np.max(np.abs(self(probes) - direct))
            if err <= tol:
                self.probe_error = float(err)
                return
            if n >= MAX_NODES:
                raise self._failure(
                    f"not within {tol:g} at {MAX_NODES} nodes (probe error {err:.3e})"
                )
            n *= 2

    def _failure(self, why: str) -> QuadratureFailure:
        return QuadratureFailure(f"cumulative integral on [0, r_max = {self.r_max:g}]: {why}")

    def _direct(self, r: float) -> tuple[float, float]:
        """int_0^r f by `qags`, and its estimate of the absolute error."""
        return qags(self.f, 0.0, r, ABS_TOL * 0.1, 1e-12, 400)

    def _build(self, n: int):
        nodes = self.r_max * np.linspace(0.0, 1.0, n + 1) ** 2
        segs = np.empty(n)
        seg_tol = ABS_TOL * 0.1 / n
        for i in range(n):
            segs[i], _ = qags(self.f, nodes[i], nodes[i + 1], seg_tol, 1e-12, 200)
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
