"""Special functions for the validation statistics, in the standard
library only: the regularized incomplete beta and the Student t p-value
built on it. The tests hold student_t_p to 1e-11 relative of
2 * scipy.special.stdtr(df, -|t|) for df 1-2000 and |t| 1e-4 to 1e3, and
below that to the closed forms at df 1 and 2."""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_TINY = 1e-300
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_rest(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), for x >= 10."""
    r = 1.0 / (x * x)
    series = -691 / 360360 + r / 156
    for coef in (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12):
        series = coef + r * series
    return series / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b). Past 10, lgamma's large terms cancel, so the Stirling
    forms there keep the result's digits (as R's lbeta does)."""
    p, q = min(a, b), max(a, b)
    if p >= 10.0:
        corr = _stirling_rest(p) + _stirling_rest(q) - _stirling_rest(p + q)
        return (-0.5 * math.log(q) + _LOG_SQRT_2PI + corr
                + (p - 0.5) * math.log(p / (p + q)) + q * math.log1p(-p / (p + q)))
    if q >= 10.0:
        corr = _stirling_rest(q) - _stirling_rest(p + q)
        return (math.lgamma(p) + corr + p - p * math.log(p + q)
                + (q - 0.5) * math.log1p(-p / (p + q)))
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x passed in.

    y is a separate argument because callers can form it without the
    cancellation of 1 - x. The continued fraction (modified Lentz) runs on
    whichever of I_x(a, b) and 1 - I_y(b, a) converges fast.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _continued_fraction(b, a, y, x)
    return _continued_fraction(a, b, x, y)


def _continued_fraction(a: float, b: float, x: float, y: float) -> float:
    # each log from whichever of x and y = 1 - x is the smaller
    log_x, log_y = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    log_front = a * log_x + b * log_y - log_beta(a, b)
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    f = d
    for m in range(1, 10_000):
        # the even and the odd term of the continued fraction
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            if abs(c) < _TINY:
                c = _TINY
            f *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return math.exp(log_front) * f / a


def student_t_p(df: float, t: float) -> float:
    """Two-sided p of Student's t, P(|T| >= |t|) = I_x(df/2, 1/2) with
    x = df / (df + t^2). A p below the smallest normal double is 0.0."""
    t2 = t * t
    if math.isnan(t2):
        return math.nan
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    p = betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))
    return p if p >= sys.float_info.min else 0.0
