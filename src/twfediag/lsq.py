"""The standard errors of any OLS fit, classical or clustered, t-based
inference, and the two numeric rules every fit shares: sums that do not
depend on the BLAS thread count, and an outcome scaled by a power of two
so that no square of it overflows or underflows."""

from __future__ import annotations

import math

import numpy as np

from .studentt import two_sided_p, two_sided_quantile

EXACT_FIT_TOL = 1e-20  # a variance this small, relative to the outcome's scale, is round-off


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors by numpy's own pairwise sum. A 1-D
    `@` goes to BLAS, which splits long sums across threads, so its last
    bits would depend on the thread count."""
    return float(np.add.reduce(a * b))


def scale_exponent(y: np.ndarray) -> int:
    """The e that brings max|y| * 2**-e into [0.5, 1) (0 for y all 0): no square
    of np.ldexp(y, -e) overflows or underflows, and scaling back by 2**e is exact."""
    return math.frexp(float(np.abs(y).max()))[1]


def standard_errors(
    X: np.ndarray,
    residuals: np.ndarray,
    bread: np.ndarray,
    k: int,
    yy: float,
    inference: str,
    clusters: np.ndarray,
) -> tuple[np.ndarray, int]:
    """(standard error of each coefficient, t degrees of freedom) of an OLS
    fit on the N x m regressor columns X, from its residuals and
    bread = (X'X)^-1. k is the model's parameter count, which exceeds m
    when X holds only what is left after partialling the other regressors
    out (Frisch-Waugh-Lovell); yy is the outcome's sum of squares.

    inference "classical": the variance is RSS / (N - k) times the bread's
    diagonal, on N - k degrees of freedom. "cluster_by_unit", on the
    integer codes 0..G-1 of `clusters` (G >= 2): the diagonal of
    bread (S'S) bread, S the G x m per-cluster score sums, times
    [G/(G-1)] * [(N-1)/(N-k)] (Cameron & Miller 2015), on G - 1.

    A standard error is 0 when its variance is round-off: at most
    EXACT_FIT_TOL * yy times its bread entry times the factor (1 / (N - k)
    or the one above), which is what a residual sum of squares of
    EXACT_FIT_TOL * yy gives classically and bounds clustered
    (Cauchy-Schwarz). So a round-off RSS flags every coefficient, and
    clustered, a coefficient whose scores cancel is flagged alone. With
    N == k every standard error is 0: the fit is exact.

    Scores are bincount sums in row order and every sum over rows or
    clusters is an `inner`, so no result depends on the BLAS thread count.
    """
    n = len(residuals)
    if inference == "classical":
        dof = n - k
    elif inference == "cluster_by_unit":
        scores = [np.bincount(clusters, x * residuals) for x in X.T]
        G = len(scores[0])
        dof = G - 1
    else:
        raise ValueError(f"unknown inference kind {inference!r}")
    if n == k:
        return np.zeros(len(bread)), dof
    scale = np.diag(bread)
    if inference == "classical":
        var = inner(residuals, residuals) / (n - k) * scale
        factor = 1 / (n - k)
    else:
        meat = np.array([[inner(a, b) for b in scores] for a in scores])
        factor = (G / (G - 1)) * ((n - 1) / (n - k))
        var = np.diag(factor * bread @ meat @ bread)
    exact = var <= EXACT_FIT_TOL * yy * factor * scale
    return np.sqrt(np.where(exact, 0.0, var)), dof


def _no_inference(standard_error: float) -> bool:
    """Whether a standard error is 0, which makes its t, p and interval nan."""
    if standard_error < 0:
        raise ValueError(f"standard error must be non-negative, got {standard_error}")
    return standard_error == 0


def _check_level(level: float) -> None:
    if not 0 < level < 1:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")


def t_test(coefficient: float, standard_error: float, dof: int) -> tuple[float, float]:
    """Two-sided t test of a zero null; returns (t statistic, p-value)."""
    if _no_inference(standard_error):
        return np.nan, np.nan
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    t = coefficient / standard_error
    return t, two_sided_p(t, dof)


def t_critical(level: float, dof: int) -> float:
    """Two-sided critical value, e.g. level=0.95 gives the 97.5% quantile."""
    _check_level(level)
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    return two_sided_quantile(1.0 - level, dof)


def t_interval(estimate: float, standard_error: float, dof: int, level: float) -> tuple[float, float]:
    """estimate -/+ t_critical(level, dof) * standard_error."""
    _check_level(level)
    half = np.nan if _no_inference(standard_error) else t_critical(level, dof) * standard_error
    return estimate - half, estimate + half
