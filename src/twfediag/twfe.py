"""Two-way fixed-effects estimation for staggered-adoption panels and its
partialled-out (residualized-treatment) weight representation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import CollinearTreatment, DegenerateTreatment
from .lsq import inner, scale_exponent, standard_errors, t_test
from .panel import PanelDataset, first_appearance

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
    units: tuple[str, ...]  # sample units in order of first appearance
    periods: tuple[int, ...]  # sample periods, ascending
    unit_effect: np.ndarray  # aligned with units
    period_effect: np.ndarray  # aligned with periods; the first is 0
    unit: np.ndarray  # code of each sample row's unit, an index into units
    period: np.ndarray  # period of each sample row
    inference: str  # "cluster_by_unit" | "classical"

    @cached_property
    def p_value(self) -> float:
        """Two-sided t-test p-value of beta (nan at se 0), computed on first
        read: a fit that only feeds weights, a scatter or a sweep never needs it."""
        return t_test(self.beta, self.se, self.dof)[1]


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


def fit_twfe(
    dataset: PanelDataset, inference: str = "cluster_by_unit", keep: Optional[np.ndarray] = None
) -> TwfeFit:
    """OLS of outcome on treatment plus full unit and period dummy sets, on
    the dataset's rows with an observed outcome, or on those of them where
    the boolean row mask keep is true.

    The kept rows are coded afresh, units in order of first appearance and
    periods ascending, as encoding the restricted panel would code them:
    fit_twfe(dataset, inference, keep) is bit for bit
    fit_twfe(dataset.restrict(keep), inference).

    Fitted by Frisch-Waugh-Lovell: the treatment and the outcome are
    residualized on the fixed effects, and the coefficient is the slope of
    one residual on the other. The residualized treatment also gives the
    per-observation weights behind the coefficient.

    The standard error is lsq.standard_errors' on the one-column design of
    the residualized treatment, with K = the fixed effects' rank + 1: zero,
    and the p-value nan, when its variance is round-off (clustered, that
    includes any two-unit balanced panel, whose cluster scores cancel).
    """
    kept = dataset.observed if keep is None else dataset.observed & dataset._row_mask(keep)
    # row indices, gathered with take: a boolean gather per column costs more
    rows = np.flatnonzero(kept)
    order, u = first_appearance(dataset.unit.take(rows))
    u = u.astype(np.intp)
    period_code = dataset._period_code.take(rows)
    present = np.bincount(period_code, minlength=len(dataset.periods)) > 0
    p = (np.cumsum(present) - 1)[period_code]  # the kept periods renumbered from 0
    periods = tuple(dataset.periods[i] for i in np.flatnonzero(present).tolist())
    y = dataset.outcome.take(rows)
    d = dataset.treated.take(rows).astype(float)
    units = [dataset.units[i] for i in order.tolist()]
    if len(units) < 2 or len(periods) < 2:
        raise DegenerateTreatment(
            f"estimation sample needs >= 2 units and >= 2 periods, "
            f"got {len(units)} and {len(periods)}"
        )
    if d.sum() in (0, len(d)):
        raise DegenerateTreatment("estimation sample is all-treated or all-untreated")

    core = _WithinCore(u, p, len(units), len(periods))
    exponent = scale_exponent(y)  # fitted on y * 2**-exponent, scaled back below
    y_scaled = np.ldexp(y, -exponent)
    resid, eff_u, eff_p = core.fit(np.column_stack([d, y_scaled]))
    d_resid, y_resid = resid[:, 0], resid[:, 1]
    ssd = inner(d_resid, d_resid)
    if ssd < COLLINEARITY_TOL * len(d):
        raise CollinearTreatment("treatment is collinear with the fixed effects")
    beta = inner(d_resid, y_resid) / ssd
    e = y_resid - beta * d_resid
    se, dof = standard_errors(d_resid[:, None], e, np.array([[1 / ssd]]),
                              core.rank + 1, inner(y_scaled, y_scaled), inference, u)

    # effects of y - beta*d, with the first period's effect set to 0 (on a
    # disconnected panel the other components' levels stay arbitrary)
    alpha = eff_u[:, 1] - beta * eff_u[:, 0]
    gamma = eff_p[:, 1] - beta * eff_p[:, 0]
    alpha, gamma = alpha + gamma[0], gamma - gamma[0]
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
        units=tuple(units),
        periods=periods,
        unit_effect=np.ldexp(alpha, exponent),
        period_effect=np.ldexp(gamma, exponent),
        unit=u,
        period=dataset.period.take(rows),
        inference=inference,
    )
