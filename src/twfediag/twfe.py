"""Two-way fixed-effects estimation for staggered-adoption panels and its
partialled-out (residualized-treatment) weight representation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import CollinearTreatment, DegenerateTreatment
from .lsq import inner, scale_exponent, standard_errors, t_test
from .panel import PanelDataset, renumber

COLLINEARITY_TOL = 1e-12
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
    units: tuple[str, ...]  # sample units, in the dataset's order
    periods: tuple[int, ...]  # sample periods, ascending
    unit: np.ndarray  # code of each sample row's unit, an index into units
    period: np.ndarray  # code of each sample row's period, an index into periods
    inference: str  # "cluster_by_unit" | "classical"

    @cached_property
    def p_value(self) -> float:
        """Two-sided t-test p-value of beta (nan at se 0), computed on first
        read: a fit that only feeds weights, a scatter or a sweep never needs it."""
        return t_test(self.beta, self.se, self.dof)[1]


def negative_treated(fit: TwfeFit) -> tuple[int, float]:
    """(treated cells with a negative weight, their share of fit.n_treated)."""
    n_negative = int(((fit.treatment == 1) & (fit.weights < NEGATIVE_WEIGHT_TOL)).sum())
    return n_negative, n_negative / fit.n_treated  # a fit has a treated cell


def _component_roots(linked: np.ndarray) -> list[int]:
    """The lowest node of each connected component of the graph whose
    edges are the true entries of linked (square, symmetric). Each
    component is grown from its lowest unseen node one frontier at a time,
    reading only the frontier's rows, so the work is len(linked)**2
    whatever the graph's diameter."""
    unseen = np.ones(len(linked), dtype=bool)
    roots = []
    while unseen.any():
        frontier = [int(np.argmax(unseen))]
        roots.append(frontier[0])
        while len(frontier):
            unseen[frontier] = False
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
    return roots


def _within(u: np.ndarray, p: np.ndarray, n_units: int, n_periods: int, v: np.ndarray):
    """(residuals, rank): the residuals of the least squares of each column
    of v (N x k) on the unit and period dummies, whose codes are u and p,
    and the rank of those dummies.

    The normal equations of both dummy sets are reduced to the smaller set
    (b) by eliminating the larger one (a): a Schur complement of the dummy
    cross-product. Cell counts are non-negative, so the complement's entry
    (i, j) off the diagonal is minus a sum of non-negative terms, nonzero
    exactly when some level of a is seen with both i and j: its pattern is
    the unit-period graph seen from b, and gives the C connected components.
    The dummies have rank U + T - C and the complement one null direction
    per component; pinning the lowest level of each component at 0 leaves
    a nonsingular system, which one exact solve handles.
    """
    units_eliminated = n_units >= n_periods
    a, b = (u, p) if units_eliminated else (p, u)
    cells = np.bincount(u * n_periods + p, minlength=n_units * n_periods)
    cells = cells.reshape(n_units, n_periods).astype(float)
    cells = cells if units_eliminated else cells.T  # a x b
    n_a, n_b = cells.shape
    count_a = cells.sum(axis=1)
    schur = np.diag(cells.sum(axis=0)) - cells.T @ (cells / count_a[:, None])
    roots = _component_roots(schur != 0)
    free = np.ones(n_b, dtype=bool)
    free[roots] = False
    sum_a = np.column_stack([np.bincount(a, c, n_a) for c in v.T])
    sum_b = np.column_stack([np.bincount(b, c, n_b) for c in v.T])
    mean_a = sum_a / count_a[:, None]
    rhs = sum_b - cells.T @ mean_a
    eff_b = np.zeros_like(rhs)
    eff_b[free] = np.linalg.solve(schur[np.ix_(free, free)], rhs[free])
    eff_a = mean_a - (cells @ eff_b) / count_a[:, None]
    eff_u, eff_p = (eff_a, eff_b) if units_eliminated else (eff_b, eff_a)
    # take, not eff_u[u]: a row gather that fancy indexing does several times slower
    residuals = v - eff_u.take(u, axis=0) - eff_p.take(p, axis=0)
    return residuals, n_units + n_periods - len(roots)


def fit_twfe(
    dataset: PanelDataset, inference: str = "cluster_by_unit", keep: Optional[np.ndarray] = None
) -> TwfeFit:
    """OLS of outcome on treatment plus full unit and period dummy sets, on
    the dataset's rows with an observed outcome, or on those of them where
    the boolean row mask keep is true.

    The kept rows' units and periods are renumbered as restrict renumbers
    them, keeping the dataset's order and dropping those left without rows:
    fit_twfe(dataset, inference, keep) is bit for bit
    fit_twfe(dataset.restrict(keep), inference).

    Fitted by Frisch-Waugh-Lovell: the treatment and the outcome are
    residualized on the fixed effects, and the coefficient is the slope of
    one residual on the other. The residualized treatment also gives the
    per-observation weights behind the coefficient. Row i's fixed-effect part
    is outcome - residualized_outcome - beta * (treatment - residualized_treatment).

    The standard error is lsq.standard_errors' on the one-column design of
    the residualized treatment, with K = the fixed effects' rank + 1: zero,
    and the p-value nan, when its variance is round-off (clustered, that
    includes any two-unit balanced panel, whose cluster scores cancel).
    """
    kept = dataset.observed if keep is None else dataset.observed & dataset._row_mask(keep)
    # row indices, gathered with take: a boolean gather per column costs more
    rows = np.flatnonzero(kept)
    units, u = renumber(dataset.unit.take(rows), dataset.units)
    periods, p = renumber(dataset._period_code.take(rows), dataset.periods)
    y = dataset.outcome.take(rows)
    d = dataset.treated.take(rows).astype(float)
    if len(units) < 2 or len(periods) < 2:
        raise DegenerateTreatment(
            f"estimation sample needs >= 2 units and >= 2 periods, "
            f"got {len(units)} and {len(periods)}"
        )
    if d.sum() in (0, len(d)):
        raise DegenerateTreatment("estimation sample is all-treated or all-untreated")

    exponent = scale_exponent(y)  # fitted on y * 2**-exponent, scaled back below
    y_scaled = np.ldexp(y, -exponent)
    resid, rank = _within(u, p, len(units), len(periods), np.column_stack([d, y_scaled]))
    d_resid, y_resid = resid[:, 0], resid[:, 1]
    ssd = inner(d_resid, d_resid)
    if ssd < COLLINEARITY_TOL * len(d):
        raise CollinearTreatment("treatment is collinear with the fixed effects")
    beta = inner(d_resid, y_resid) / ssd
    e = y_resid - beta * d_resid
    se, dof = standard_errors(d_resid[:, None], e, np.array([[1 / ssd]]),
                              rank + 1, inner(y_scaled, y_scaled), inference, u)
    return TwfeFit(
        beta=float(np.ldexp(beta, exponent)),
        se=float(np.ldexp(se[0], exponent)),
        dof=dof,
        n_obs=len(y),
        n_treated=int(d.sum()),
        residualized_treatment=d_resid,
        residualized_outcome=np.ldexp(y_resid, exponent),
        weights=d_resid / ssd,
        treatment=d.astype(int),
        outcome=y,
        units=units,
        periods=periods,
        unit=u,
        period=p,
        inference=inference,
    )
