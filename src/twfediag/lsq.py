"""Dense least squares by QR on plain arrays: classical and cluster-robust
covariance, and t-based inference."""

from __future__ import annotations

import numpy as np

from .errors import NonpositiveSE, SingularDesign
from .studentt import two_sided_p, two_sided_quantile

SINGULAR_TOL = 1e-10  # |R diagonal| at most this, relative to the largest (or 1), is singular


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors by numpy's own pairwise sum. A 1-D
    `@` goes to BLAS, which splits long sums across threads, so its last
    bits would depend on the thread count."""
    return float(np.add.reduce(a * b))


def qr_lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefficients, residuals, R) of the OLS of y on the columns of X,
    from the reduced QR factorization X = QR.

    Raises SingularDesign when the columns are numerically dependent.
    """
    X = np.asfortranarray(X)  # column-major, as LAPACK factors it
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.min() <= SINGULAR_TOL * max(1.0, diag.max()):
        raise SingularDesign("design columns are numerically singular")
    beta = np.linalg.solve(R, Q.T @ y)
    return beta, y - X @ beta, R


def _bread(R: np.ndarray, n: int) -> np.ndarray:
    """(X'X)^-1 from the triangular factor of an n-row design."""
    if n <= len(R):
        raise SingularDesign("no residual degrees of freedom")
    Rinv = np.linalg.solve(R, np.eye(len(R)))
    return Rinv @ Rinv.T


def classical_vcov(R: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(homoskedastic covariance (RSS / (N - K)) * (X'X)^-1, its diagonal
    per unit of RSS)."""
    n, k = len(residuals), len(R)
    bread = _bread(R, n)
    cov = inner(residuals, residuals) / (n - k) * bread
    return 0.5 * (cov + cov.T), np.diag(bread) / (n - k)


def cluster_vcov(
    X: np.ndarray, R: np.ndarray, residuals: np.ndarray, clusters: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """(sandwich covariance clustered on the integer codes `clusters`, a
    bound on its diagonal per unit of RSS, the cluster count G), with the
    finite-sample factor c = [G/(G-1)] * [(N-1)/(N-K)]; needs G >= 2.

    By Cauchy-Schwarz each diagonal term of (X'X)^-1 meat (X'X)^-1 is at
    most RSS times that of (X'X)^-1, so the bound is c * diag((X'X)^-1).

    Rows are stably sorted by cluster, so each cluster's score sums its
    rows in their original order.
    """
    n, k = X.shape
    bread = _bread(R, n)
    order = np.argsort(clusters, kind="stable")
    X, residuals = X[order], residuals[order]
    cuts = (np.flatnonzero(np.diff(clusters[order])) + 1).tolist()
    meat = np.zeros((k, k))
    for a, b in zip([0] + cuts, cuts + [n]):
        score = X[a:b].T @ residuals[a:b]
        meat += np.outer(score, score)
    G = len(cuts) + 1
    c = (G / (G - 1)) * ((n - 1) / (n - k))
    cov = c * bread @ meat @ bread
    return 0.5 * (cov + cov.T), c * np.diag(bread), G


def t_test(coefficient: float, standard_error: float, dof: int) -> tuple[float, float]:
    """Two-sided t test of a zero null; returns (t statistic, p-value)."""
    if standard_error <= 0:
        raise NonpositiveSE(f"standard error must be positive, got {standard_error}")
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    t = coefficient / standard_error
    return t, two_sided_p(t, dof)


def t_critical(level: float, dof: int) -> float:
    """Two-sided critical value, e.g. level=0.95 gives the 97.5% quantile."""
    if not 0 < level < 1:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    return two_sided_quantile(1.0 - level, dof)
