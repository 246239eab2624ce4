"""Two-way fixed-effects estimation for staggered-adoption panels and its
partialled-out (residualized-treatment) weight representation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import nan, sqrt

import numpy as np

from .errors import CollinearTreatment, DegenerateTreatment
from .lsq import t_test
from .panel import PanelDataset, first_appearance

COLLINEARITY_TOL = 1e-12
EXACT_FIT_TOL = 1e-20  # residual spread below this, relative to sum(y**2), is round-off
NEGATIVE_WEIGHT_TOL = -1e-12  # weights below this count as negative


@dataclass(frozen=True)
class TwfeFit:
    beta: float
    se: float  # 0 for an exact fit
    dof: int
    n_obs: int
    n_treated: int
    residualized_treatment: np.ndarray
    residualized_outcome: np.ndarray
    weights: np.ndarray
    treatment: np.ndarray  # 0/1 over the estimation sample
    outcome: np.ndarray  # the outcome over the estimation sample
    unit_effects: dict[str, float]
    period_effects: dict[int, float]
    units: tuple[str, ...]  # sample units in order of first appearance
    unit: np.ndarray  # code of each sample row's unit, an index into units
    period: np.ndarray  # period of each sample row
    inference: str  # "cluster_by_unit" | "classical"

    @cached_property
    def p_value(self) -> float:
        """Two-sided t-test p-value of beta, nan when the standard error is
        zero (an exact fit). Computed on first read, so a fit that only
        feeds weights, a scatter or a sweep point never computes it."""
        return t_test(self.beta, self.se, self.dof)[1] if self.se > 0 else nan


def _count_components(linked: np.ndarray) -> int:
    """Connected components of the bipartite graph with biadjacency `linked`
    (rows x columns, every row and column linked at least once)."""
    unseen = np.ones(linked.shape[1], dtype=bool)
    count = 0
    while unseen.any():
        count += 1
        cols = np.zeros_like(unseen)
        cols[np.argmax(unseen)] = True
        while True:
            grown = linked[linked[:, cols].any(axis=1)].any(axis=0)
            if np.array_equal(grown, cols):
                break
            cols = grown
        unseen &= ~cols
    return count


class _WithinCore:
    """Least squares on the unit and period dummies of one estimation sample.

    The normal equations of both dummy sets are reduced to the smaller set
    by eliminating the larger one (a Schur complement of the dummy
    cross-product), which one small exact solve then handles. The dummy
    block has rank U + T - C, with C the connected components of the
    unit-period graph; each component leaves one free level, which the
    minimum-norm solve fixes.
    """

    def __init__(self, u: np.ndarray, p: np.ndarray, n_units: int, n_periods: int):
        cells = np.bincount(u * n_periods + p, minlength=n_units * n_periods)
        cells = cells.reshape(n_units, n_periods).astype(float)
        self.u, self.p = u, p
        self.rank = n_units + n_periods - _count_components(cells > 0)
        # eliminate the larger dummy set (a), solve on the smaller (b)
        self._units_eliminated = n_units >= n_periods
        if not self._units_eliminated:
            cells = cells.T
        self._cells = cells
        self._count_a = cells.sum(axis=1)
        self._schur = np.diag(cells.sum(axis=0)) - cells.T @ (cells / self._count_a[:, None])

    def fit(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(residuals, unit effects, period effects) of each column of v (N x k)."""
        a, b = (self.u, self.p) if self._units_eliminated else (self.p, self.u)
        n_a, n_b = self._cells.shape
        sum_a = np.column_stack([np.bincount(a, c, n_a) for c in v.T])
        sum_b = np.column_stack([np.bincount(b, c, n_b) for c in v.T])
        mean_a = sum_a / self._count_a[:, None]
        eff_b = np.linalg.lstsq(self._schur, sum_b - self._cells.T @ mean_a, rcond=None)[0]
        eff_a = mean_a - (self._cells @ eff_b) / self._count_a[:, None]
        eff_u, eff_p = (eff_a, eff_b) if self._units_eliminated else (eff_b, eff_a)
        return v - eff_u[self.u] - eff_p[self.p], eff_u, eff_p


def fit_twfe(dataset: PanelDataset, inference: str = "cluster_by_unit") -> TwfeFit:
    """OLS of outcome on treatment plus full unit and period dummy sets.

    Fitted by Frisch-Waugh-Lovell: the treatment and the outcome are
    residualized on the fixed effects, and the coefficient is the slope of
    one residual on the other. The residualized treatment also gives the
    per-observation weights behind the coefficient.

    The standard error is zero, and the p-value nan, when the spread it is
    computed from is round-off: the residual sum of squares (classical), or
    the sum of squared cluster scores (clustered; zero whenever the
    residuals are, and for any two-unit balanced panel), at most
    EXACT_FIT_TOL relative to the outcome's scale.
    """
    if inference not in ("cluster_by_unit", "classical"):
        raise ValueError(f"unknown inference kind {inference!r}")
    # the estimation sample (non-missing outcomes) in dataset order; units
    # in order of first appearance in it, periods ascending
    observed = dataset.observed
    order, u = first_appearance(dataset.unit[observed])
    u = u.astype(np.intp)
    period = dataset.period[observed]
    periods, p = np.unique(period, return_inverse=True)
    periods = periods.tolist()
    y = dataset.outcome[observed]
    d = dataset.treated[observed].astype(float)
    units = [dataset.units[i] for i in order.tolist()]
    if len(units) < 2 or len(periods) < 2:
        raise DegenerateTreatment(
            f"estimation sample needs >= 2 units and >= 2 periods, "
            f"got {len(units)} and {len(periods)}"
        )
    if d.sum() in (0, len(d)):
        raise DegenerateTreatment("estimation sample is all-treated or all-untreated")

    core = _WithinCore(u, p, len(units), len(periods))
    resid, eff_u, eff_p = core.fit(np.column_stack([d, y]))
    d_resid, y_resid = resid[:, 0], resid[:, 1]
    ssd = float(d_resid @ d_resid)
    if ssd < COLLINEARITY_TOL * len(d):
        raise CollinearTreatment("treatment is collinear with the fixed effects")
    beta = float(d_resid @ y_resid) / ssd
    e = y_resid - beta * d_resid
    rss = float(e @ e)

    n, k, clusters = len(y), core.rank + 1, len(units)
    yy = float(y @ y)
    if inference == "cluster_by_unit":
        dof = clusters - 1
        scores = np.bincount(u, d_resid * e, clusters)
        spread, scale = float(scores @ scores), ssd * yy  # spread <= ssd * rss
    else:
        dof = n - k
        spread, scale = rss, yy
    if n == k or spread <= EXACT_FIT_TOL * scale:
        se = 0.0
    elif inference == "cluster_by_unit":
        c = (clusters / (clusters - 1)) * ((n - 1) / (n - k))
        se = sqrt(c * spread) / ssd
    else:
        se = sqrt(spread / (n - k) / ssd)

    # effects of y - beta*d, with the first period's effect set to 0 (on a
    # disconnected panel the other components' levels stay arbitrary)
    alpha = eff_u[:, 1] - beta * eff_u[:, 0]
    gamma = eff_p[:, 1] - beta * eff_p[:, 0]
    alpha, gamma = alpha + gamma[0], gamma - gamma[0]
    return TwfeFit(
        beta=beta,
        se=se,
        dof=dof,
        n_obs=n,
        n_treated=int(d.sum()),
        residualized_treatment=d_resid,
        residualized_outcome=y_resid,
        weights=d_resid / ssd,
        treatment=d.astype(int),
        outcome=y,
        unit_effects=dict(zip(units, alpha.tolist())),
        period_effects=dict(zip(periods, gamma.tolist())),
        units=tuple(units),
        unit=u,
        period=period,
        inference=inference,
    )
