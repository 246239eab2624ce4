"""Two-way fixed-effects estimation for staggered-adoption panels and its
partialled-out (residualized-treatment) weight representation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import nan, sqrt
from typing import Optional

import numpy as np

from .errors import CollinearTreatment, DegenerateTreatment
from .lsq import inner, t_test
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


def negative_treated(fit: TwfeFit) -> tuple[int, int, float]:
    """(treated cells, treated cells with a negative weight, their share)."""
    treated = fit.treatment == 1
    n_treated = int(treated.sum())
    n_negative = int((treated & (fit.weights < NEGATIVE_WEIGHT_TOL)).sum())
    return n_treated, n_negative, n_negative / n_treated if n_treated else 0.0


def _component_roots(cells: np.ndarray) -> list[int]:
    """The first column of each connected component of the bipartite graph
    whose edges are the positive entries of cells (rows x columns, every
    row and column with a positive entry)."""
    unseen = np.ones(cells.shape[1], dtype=bool)
    roots = []
    while unseen.any():
        roots.append(int(np.argmax(unseen)))
        cols = np.zeros(len(unseen), dtype=bool)
        cols[roots[-1]] = True
        while True:  # add the columns that share a row with one reached
            grown = cells.T @ (cells @ cols) > 0
            if np.array_equal(grown, cols):
                break
            cols = grown
        unseen &= ~cols
    return roots


class _WithinCore:
    """Least squares on the unit and period dummies of one estimation sample.

    The normal equations of both dummy sets are reduced to the smaller set
    by eliminating the larger one (a Schur complement of the dummy
    cross-product). The dummy block has rank U + T - C, with C the
    connected components of the unit-period graph: the Schur complement is
    singular with one null direction per component. Pinning the first
    level of each component at 0 leaves a nonsingular system, which one
    exact solve handles.
    """

    def __init__(self, u: np.ndarray, p: np.ndarray, n_units: int, n_periods: int):
        cells = np.bincount(u * n_periods + p, minlength=n_units * n_periods)
        cells = cells.reshape(n_units, n_periods).astype(float)
        self.u, self.p = u, p
        # eliminate the larger dummy set (a), solve on the smaller (b)
        self._units_eliminated = n_units >= n_periods
        if not self._units_eliminated:
            cells = cells.T
        roots = _component_roots(cells)
        self.rank = n_units + n_periods - len(roots)
        self._free = np.ones(cells.shape[1], dtype=bool)
        self._free[roots] = False
        self._cells = cells
        self._count_a = cells.sum(axis=1)
        schur = np.diag(cells.sum(axis=0)) - cells.T @ (cells / self._count_a[:, None])
        self._schur = schur[np.ix_(self._free, self._free)]

    def fit(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(residuals, unit effects, period effects) of each column of v (N x k)."""
        a, b = (self.u, self.p) if self._units_eliminated else (self.p, self.u)
        n_a, n_b = self._cells.shape
        sum_a = np.column_stack([np.bincount(a, c, n_a) for c in v.T])
        sum_b = np.column_stack([np.bincount(b, c, n_b) for c in v.T])
        mean_a = sum_a / self._count_a[:, None]
        rhs = sum_b - self._cells.T @ mean_a
        eff_b = np.zeros_like(rhs)
        eff_b[self._free] = np.linalg.solve(self._schur, rhs[self._free])
        eff_a = mean_a - (self._cells @ eff_b) / self._count_a[:, None]
        eff_u, eff_p = (eff_a, eff_b) if self._units_eliminated else (eff_b, eff_a)
        # take, not eff_u[self.u]: a row gather that fancy indexing does several times slower
        return v - eff_u.take(self.u, axis=0) - eff_p.take(self.p, axis=0), eff_u, eff_p


class EncodedSample:
    """A panel's estimation sample (the rows with an observed outcome, in
    dataset order), encoded once. fit_sample estimates on all of it or on
    any subset of its rows. A plain class: defining a frozen dataclass
    takes about 0.9 ms (CPython 3.11), which every process that fits
    would pay."""

    __slots__ = ("labels", "unit", "period", "periods", "period_code", "outcome", "treatment")

    def __init__(self, dataset: PanelDataset):
        observed = dataset.observed
        self.labels = dataset.units  # unit codes index these
        self.unit = dataset.unit[observed]
        self.period = dataset.period[observed]
        self.periods, self.period_code = np.unique(self.period, return_inverse=True)
        self.outcome = dataset.outcome[observed]
        self.treatment = dataset.treated[observed].astype(float)


def fit_twfe(dataset: PanelDataset, inference: str = "cluster_by_unit") -> TwfeFit:
    """OLS of outcome on treatment plus full unit and period dummy sets, on
    the dataset's rows with an observed outcome.

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
    return fit_sample(EncodedSample(dataset), None, inference)


def fit_sample(
    sample: EncodedSample, keep: Optional[np.ndarray] = None, inference: str = "cluster_by_unit"
) -> TwfeFit:
    """fit_twfe on the rows of sample where the boolean mask keep is true
    (all rows when keep is None).

    The kept rows are coded afresh, units in order of first appearance and
    periods ascending, as encoding the restricted panel would code them.
    So for a row mask over the dataset, fit_sample(EncodedSample(dataset),
    mask[dataset.observed]) is bit for bit fit_twfe(dataset.restrict(mask)).
    """
    if inference not in ("cluster_by_unit", "classical"):
        raise ValueError(f"unknown inference kind {inference!r}")
    rows = slice(None) if keep is None else keep
    order, u = first_appearance(sample.unit[rows])
    u = u.astype(np.intp)
    period_code = sample.period_code[rows]
    present = np.bincount(period_code, minlength=len(sample.periods)) > 0
    p = (np.cumsum(present) - 1)[period_code]  # the kept periods renumbered from 0
    periods = sample.periods[present].tolist()
    y = sample.outcome[rows]
    d = sample.treatment[rows]
    units = [sample.labels[i] for i in order.tolist()]
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
    ssd = inner(d_resid, d_resid)
    if ssd < COLLINEARITY_TOL * len(d):
        raise CollinearTreatment("treatment is collinear with the fixed effects")
    beta = inner(d_resid, y_resid) / ssd
    e = y_resid - beta * d_resid
    rss = inner(e, e)

    n, k, clusters = len(y), core.rank + 1, len(units)
    yy = inner(y, y)
    if inference == "cluster_by_unit":
        dof = clusters - 1
        scores = np.bincount(u, d_resid * e, clusters)
        spread, scale = inner(scores, scores), ssd * yy  # spread <= ssd * rss
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
        period=sample.period[rows],
        inference=inference,
    )
