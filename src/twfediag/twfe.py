"""Two-way fixed-effects estimation for staggered-adoption panels and its
partialled-out (residualized-treatment) weight representation."""

from __future__ import annotations

from dataclasses import dataclass
from math import nan, sqrt

import numpy as np

from .errors import (
    CollinearTreatment,
    DegenerateTreatment,
    DimensionMismatch,
    UnbalancedPanel,
    ZeroVariance,
)
from .lsq import t_test
from .panel import PanelDataset, first_appearance

COLLINEARITY_TOL = 1e-12
EXACT_FIT_TOL = 1e-20  # residual spread below this, relative to sum(y**2), is round-off
NEGATIVE_WEIGHT_TOL = -1e-12  # weights below this count as negative


@dataclass(frozen=True)
class TwfeFit:
    beta: float
    se: float
    p_value: float  # nan when the standard error is zero (an exact fit)
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


def _estimation_arrays(dataset: PanelDataset):
    """Arrays over the estimation sample (non-missing outcomes), in dataset
    order; units in order of first appearance in the sample, periods
    ascending; `period` per row, `p` its index into the periods."""
    observed = dataset.observed
    order, u = first_appearance(dataset.unit[observed])
    period = dataset.period[observed]
    periods, p = np.unique(period, return_inverse=True)
    y = dataset.outcome[observed]
    d = dataset.treated[observed].astype(float)
    units = [dataset.units[i] for i in order.tolist()]
    return units, periods.tolist(), u.astype(np.intp), p, y, d, period


def _check_sample(units, periods, d, require_both_groups: bool = True):
    if len(units) < 2 or len(periods) < 2:
        raise DegenerateTreatment(
            f"estimation sample needs >= 2 units and >= 2 periods, "
            f"got {len(units)} and {len(periods)}"
        )
    if require_both_groups and d.sum() in (0, len(d)):
        raise DegenerateTreatment("estimation sample is all-treated or all-untreated")


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
    units, periods, u, p, y, d, period = _estimation_arrays(dataset)
    _check_sample(units, periods, d)

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
    p_value = t_test(beta, se, dof)[1] if se > 0 else nan

    # effects of y - beta*d, with the first period's effect set to 0 (on a
    # disconnected panel the other components' levels stay arbitrary)
    alpha = eff_u[:, 1] - beta * eff_u[:, 0]
    gamma = eff_p[:, 1] - beta * eff_p[:, 0]
    alpha, gamma = alpha + gamma[0], gamma - gamma[0]
    return TwfeFit(
        beta=beta,
        se=se,
        p_value=p_value,
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


def _residualize(units, periods, u, p, v) -> np.ndarray:
    return _WithinCore(u, p, len(units), len(periods)).fit(v[:, None])[0][:, 0]


def residualize_treatment(dataset: PanelDataset) -> np.ndarray:
    """Residuals of the treatment dummy on unit and period fixed effects."""
    units, periods, u, p, _, d, _ = _estimation_arrays(dataset)
    _check_sample(units, periods, d, require_both_groups=False)
    d_resid = _residualize(units, periods, u, p, d)
    if float(d_resid @ d_resid) < COLLINEARITY_TOL * len(d):
        raise CollinearTreatment("treatment is collinear with the fixed effects")
    return d_resid


def residualize_outcome(dataset: PanelDataset) -> np.ndarray:
    """Residuals of the outcome on unit and period fixed effects."""
    units, periods, u, p, y, d, _ = _estimation_arrays(dataset)
    _check_sample(units, periods, d, require_both_groups=False)
    return _residualize(units, periods, u, p, y)


def balanced_weights_closed_form(dataset: PanelDataset) -> np.ndarray:
    """Residualized treatment on a balanced panel by double demeaning:
    D - unit mean - period mean + grand mean, evaluated termwise."""
    if not dataset.is_balanced():
        raise UnbalancedPanel("closed form requires a balanced panel")
    units, periods, u, p, _, d, _ = _estimation_arrays(dataset)
    n_units, n_periods = len(units), len(periods)
    unit_mean = np.bincount(u, weights=d, minlength=n_units) / n_periods
    period_mean = np.bincount(p, weights=d, minlength=n_periods) / n_units
    grand_mean = d.mean()
    return d - unit_mean[u] - period_mean[p] + grand_mean


def fwl_weights(d_resid: np.ndarray) -> np.ndarray:
    """Per-observation weights: residualized treatment scaled by its sum of squares."""
    d_resid = np.asarray(d_resid, dtype=float)
    ssd = float(d_resid @ d_resid)
    if ssd <= 0:
        raise ZeroVariance("residualized treatment has zero sum of squares")
    return d_resid / ssd


def beta_from_weights(w: np.ndarray, y: np.ndarray) -> float:
    """Treatment coefficient as the weighted sum of outcomes."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch: {w.shape} vs {y.shape}")
    return float(w @ y)
