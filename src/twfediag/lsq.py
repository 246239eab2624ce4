"""Dense linear least squares with rank-revealing column selection,
classical and cluster-robust covariance, and t-based inference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDesign,
    NonpositiveSE,
    SingularDesign,
    TooFewClusters,
)

RANK_TOL = 1e-10  # relative to the largest column norm


@dataclass(frozen=True)
class DesignMatrix:
    values: np.ndarray  # (N, K)
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DimensionMismatch("design matrix must be 2-dimensional")
        if self.values.shape[1] != len(self.labels):
            raise DimensionMismatch("label count does not match column count")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LsqFit:
    coefficients: np.ndarray  # length K; zeros for dropped columns
    residuals: np.ndarray
    fitted: np.ndarray
    rss: float
    rank: int
    dof_residual: int
    kept: tuple[int, ...]      # retained column indices, original order
    dropped: tuple[int, ...]   # dropped column indices (dependent columns)


@dataclass(frozen=True)
class CovarianceEstimate:
    matrix: np.ndarray  # (K, K); zero rows/cols for dropped columns
    kind: str           # "classical" | "cluster_robust"
    clusters: int | None
    small_sample_factor: float

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.matrix), 0.0, None))


def _select_columns(X: np.ndarray) -> tuple[list[int], list[int]]:
    """Greedy left-to-right rank-revealing pass.

    Keeps a column iff it is numerically independent of the columns kept so
    far, so dependent columns later in the ordering are dropped first. Uses
    orthogonal projection with one reorthogonalization step.
    """
    n, k = X.shape
    col_norms = np.linalg.norm(X, axis=0)
    threshold = RANK_TOL * (col_norms.max() if k else 0.0)
    kept: list[int] = []
    dropped: list[int] = []
    Q = np.empty((n, 0))
    for j in range(k):
        v = X[:, j].astype(float)
        if Q.shape[1]:
            v = v - Q @ (Q.T @ v)
            v = v - Q @ (Q.T @ v)
        norm = np.linalg.norm(v)
        if norm > threshold:
            kept.append(j)
            Q = np.hstack([Q, (v / norm)[:, None]])
        else:
            dropped.append(j)
    return kept, dropped


def solve_least_squares(X: DesignMatrix, y: np.ndarray) -> LsqFit:
    """Minimum-norm-free OLS via QR on the independent columns.

    Rank deficiency is resolved deterministically: a column is dropped when
    it is spanned by earlier columns (tolerance RANK_TOL relative to the
    largest column norm), and its coefficient is reported as zero.
    """
    y = np.asarray(y, dtype=float)
    if X.k == 0 or X.n == 0:
        raise EmptyDesign("design matrix has no rows or no columns")
    if y.shape != (X.n,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({X.n},)")

    kept, dropped = _select_columns(X.values)
    if not kept:
        raise EmptyDesign("all design columns are numerically zero")
    Xk = X.values[:, kept]
    Q, R = np.linalg.qr(Xk)
    beta_k = np.linalg.solve(R, Q.T @ y)

    coefficients = np.zeros(X.k)
    coefficients[kept] = beta_k
    residuals = y - Xk @ beta_k
    fitted = y - residuals  # identity fitted + residuals = y holds exactly
    rss = float(residuals @ residuals)
    rank = len(kept)
    return LsqFit(
        coefficients=coefficients,
        residuals=residuals,
        fitted=fitted,
        rss=rss,
        rank=rank,
        dof_residual=X.n - rank,
        kept=tuple(kept),
        dropped=tuple(dropped),
    )


def _bread(X: DesignMatrix, kept: tuple[int, ...]) -> np.ndarray:
    """(X'X)^-1 over the retained columns, via the triangular factor."""
    Xk = X.values[:, kept]
    R = np.linalg.qr(Xk, mode="r")
    if np.min(np.abs(np.diag(R))) <= RANK_TOL * max(1.0, np.max(np.abs(np.diag(R)))):
        raise SingularDesign("retained design columns are numerically singular")
    Rinv = np.linalg.solve(R, np.eye(len(kept)))
    return Rinv @ Rinv.T


def _embed(small: np.ndarray, kept: tuple[int, ...], k: int) -> np.ndarray:
    full = np.zeros((k, k))
    full[np.ix_(kept, kept)] = small
    return full


def classical_covariance(fit: LsqFit, X: DesignMatrix) -> CovarianceEstimate:
    """Homoskedastic covariance: (RSS / dof) * (X'X)^-1."""
    if fit.dof_residual <= 0:
        raise SingularDesign("no residual degrees of freedom")
    sigma2 = fit.rss / fit.dof_residual
    cov = sigma2 * _bread(X, fit.kept)
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(
        matrix=_embed(cov, fit.kept, X.k),
        kind="classical",
        clusters=None,
        small_sample_factor=1.0,
    )


def cluster_robust_covariance(
    fit: LsqFit, X: DesignMatrix, cluster_ids: np.ndarray
) -> CovarianceEstimate:
    """Sandwich covariance clustered on cluster_ids.

    Scale factor c = [G/(G-1)] * [(N-1)/(N-K)], the standard finite-sample
    correction; K is the retained-column count.
    """
    cluster_ids = np.asarray(cluster_ids)
    if cluster_ids.shape != (X.n,):
        raise DimensionMismatch("cluster_ids length must equal row count")
    groups = np.unique(cluster_ids)
    G = len(groups)
    if G < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {G}")
    n, k = X.n, fit.rank
    bread = _bread(X, fit.kept)
    Xk = X.values[:, fit.kept]
    meat = np.zeros((k, k))
    for g in groups:
        mask = cluster_ids == g
        score = Xk[mask].T @ fit.residuals[mask]
        meat += np.outer(score, score)
    c = (G / (G - 1)) * ((n - 1) / (n - k))
    cov = c * bread @ meat @ bread
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(
        matrix=_embed(cov, fit.kept, X.k),
        kind="cluster_robust",
        clusters=G,
        small_sample_factor=c,
    )


# The t distribution is the only use of scipy. It is imported inside the two
# functions below, so that only commands that compute a p-value or a
# confidence interval pay for loading scipy.special. stdtr and stdtrit are
# the ufuncs behind scipy.stats.t.sf and t.ppf, so the results are the same.

def t_test(coefficient: float, standard_error: float, dof: int) -> tuple[float, float]:
    """Two-sided t test of a zero null; returns (t statistic, p-value)."""
    if standard_error <= 0:
        raise NonpositiveSE(f"standard error must be positive, got {standard_error}")
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    from scipy.special import stdtr

    t = coefficient / standard_error
    p = 2.0 * stdtr(dof, -abs(t))
    return t, float(min(p, 1.0))


def t_critical(level: float, dof: int) -> float:
    """Two-sided critical value, e.g. level=0.95 gives the 97.5% quantile."""
    if not 0 < level < 1:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    from scipy.special import stdtrit

    return float(stdtrit(dof, 0.5 + level / 2.0))
