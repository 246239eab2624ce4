"""Student t tail probabilities and quantiles in plain Python, within
3e-14 relative of 45-digit values (tests/test_studentt.py).

The two-sided tail P(|T| >= t) with nu degrees of freedom is the
regularized incomplete beta function I_x(nu/2, 1/2) at x = nu / (nu + t^2),
and 1 - x = t^2 / (nu + t^2) is formed directly, never as 1 - x. Writing
a = nu/2,

    I_x(a, 1/2) = x^a (1 - x)^(1/2) Gamma(a + 1/2) / (Gamma(a) sqrt(pi)) * F,

where F is the continued fraction BFRAC of DiDonato & Morris (1992, ACM
TOMS 708), taken for I_x(a, 1/2) itself when |t| >= 1 and for its
complement I_{1-x}(1/2, a) when |t| < 1, so that it is always evaluated
below the distribution's mean, where it converges. Its terms use x and
1 - x only in products, so neither is ever recovered by cancellation.
The power x^a is exp(a log x), and for large a the exponent reaches -745
before the result underflows: its rounding in double precision alone would
cost |a log x| ulps, so it is taken from a 34-digit decimal logarithm.
Gamma(a + 1/2) / Gamma(a) comes from its asymptotic series, not from a
difference of log-gammas, which for a = 5e5 would lose six digits.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from functools import lru_cache

_SQRT_PI = math.sqrt(math.pi)
_DECIMAL = Context(prec=34)
_CF_TOL = 1e-16  # relative change of the continued fraction that ends it
_MAX_TERMS = 10_000  # the fraction takes ~200 terms at a = 5e5, |t| = 1
_NEWTON_TOL = 1e-12  # a Newton step this small (relative) leaves round-off


def _gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a) for a > 0.

    The recurrence r(a) = r(a + 1) * a / (a + 1/2) moves the argument to
    a >= 25, where log r(a) - log(a)/2 is the series
    sum_k (2^(1-2k) - 2) B_2k / (2k (2k - 1) a^(2k-1)) in the Bernoulli
    numbers B_2k; the first omitted term is below 2e-18.
    """
    factor = 1.0
    while a < 25.0:
        factor *= a / (a + 0.5)
        a += 1.0
    z = 1.0 / a
    z2 = z * z
    series = z * (-1 / 8 + z2 * (1 / 192 + z2 * (-1 / 640 + z2 * (17 / 14336 + z2 * (-31 / 18432)))))
    return factor * math.sqrt(a) * math.exp(series)


def _power_term(nu: float, t: float) -> float:
    """x^(nu/2) (1 - x)^(1/2) at x = nu / (nu + t^2), correctly rounded
    from 34-digit logarithms (t finite and nonzero)."""
    n, tt = Decimal(nu), _DECIMAL.multiply(Decimal(t), Decimal(t))
    s = _DECIMAL.add(n, tt)
    log_x = _DECIMAL.ln(_DECIMAL.divide(n, s))
    log_y = _DECIMAL.ln(_DECIMAL.divide(tt, s))
    exponent = _DECIMAL.divide(_DECIMAL.add(_DECIMAL.multiply(n, log_x), log_y), 2)
    return float(_DECIMAL.exp(exponent))


def _bfrac(a: float, b: float, x: float, y: float, c: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)), y = 1 - x, by TOMS 708's BFRAC,
    with c = (a + b) y - b + 1; converges fast for x at most a / (a + b)."""
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _CF_TOL * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0  # rescale
    raise ArithmeticError(f"t tail: continued fraction did not converge (a={a}, b={b}, x={x})")


def two_sided_p(t: float, nu: float) -> float:
    """P(|T| >= |t|) for T Student t with nu > 0 degrees of freedom."""
    t, nu = abs(float(t)), float(nu)
    if math.isnan(t):
        return math.nan
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    a = nu / 2.0
    tt = t * t
    s = nu + tt
    x, y = (nu / s, tt / s) if math.isfinite(s) else (0.0, 1.0)
    front = _power_term(nu, t) * _gamma_ratio(a) / _SQRT_PI  # x^a y^(1/2) / B(a, 1/2)
    if t >= 1.0:  # x <= a / (a + 1/2)
        return front * _bfrac(a, 0.5, x, y, (a + 0.5) * y + 0.5)
    return 1.0 - front * _bfrac(0.5, a, y, x, 1.5 - (a + 0.5) * y)


def _density(t: float, nu: float) -> float:
    """The Student t density at t (to a relative error near |t|^2/2 ulps;
    it only sets Newton's step)."""
    a = nu / 2.0
    return _gamma_ratio(a) / math.sqrt(nu * math.pi) * math.exp(-(a + 0.5) * math.log1p(t * t / nu))


def _initial_quantile(alpha: float, nu: float) -> float:
    """A start for Newton: exact for nu = 1 and 2; otherwise the
    Cornish-Fisher expansion (Abramowitz & Stegun 26.7.5) around the normal
    quantile of Abramowitz & Stegun 26.2.23."""
    if nu == 1.0:
        return 1.0 / math.tan(0.5 * math.pi * alpha)
    if nu == 2.0:
        return (1.0 - alpha) * math.sqrt(2.0 / (alpha * (2.0 - alpha)))
    u = math.sqrt(-2.0 * math.log(0.5 * alpha))
    z = u - (2.515517 + u * (0.802853 + u * 0.010328)) / (
        1.0 + u * (1.432788 + u * (0.189269 + u * 0.001308)))
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * (3.0 + z2 * (16.0 + 5.0 * z2)) / 96.0
    g3 = z * (-15.0 + z2 * (17.0 + z2 * (19.0 + 3.0 * z2))) / 384.0
    g4 = z * (-945.0 + z2 * (-1920.0 + z2 * (1482.0 + z2 * (776.0 + 79.0 * z2)))) / 92160.0
    return max(z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu, 1e-3)


@lru_cache(maxsize=256)
def two_sided_quantile(alpha: float, nu: float) -> float:
    """The t > 0 with P(|T| >= t) = alpha, for 0 < alpha < 1.

    Newton's method on log P against log t, kept inside a bracket that
    every evaluation narrows; a step that would leave the bracket bisects
    it (geometrically) instead.
    """
    t = _initial_quantile(alpha, nu)
    lo, hi = 0.0, math.inf
    log_alpha = math.log(alpha)
    for _ in range(200):
        p = two_sided_p(t, nu)
        if p == alpha:
            return t
        if p > alpha:
            lo = t
        else:
            hi = t
        slope = 2.0 * t * _density(t, nu)  # -d P / d log t
        step = (math.log(p) - log_alpha) * p / slope if p > 0 and slope > 0 else math.nan
        if abs(step) <= _NEWTON_TOL:
            return t * math.exp(step)
        new = t * math.exp(step) if abs(step) < 700 else math.nan
        if not lo < new < hi:
            new = 2.0 * t if hi == math.inf else math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
        t = new
    raise ArithmeticError(f"t quantile: no convergence (alpha={alpha}, nu={nu})")
