"""Diagnostics on a fitted two-way fixed-effects model: where the implicit
weights fall (including negative weight on treated cells) and a direct
regression test of treatment-effect homogeneity."""

from __future__ import annotations

from dataclasses import dataclass
from math import nan
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateGroup
from .lsq import inner, scale_exponent, standard_errors, t_test
from .panel import AdoptionSchedule
from .twfe import NEGATIVE_WEIGHT_TOL, TwfeFit, negative_treated

DEFAULT_BINS = 40
DEFAULT_BANDWIDTH = 0.8
DEFAULT_GRID_POINTS = 50
STATUS = ("missing", "untreated", "treated_negative", "treated_positive")  # WeightGrid.status codes


@dataclass(frozen=True)
class WeightReport:
    n_treated: int
    n_treated_negative: int
    share_treated_negative: float
    n_control_positive: int
    histogram: tuple[tuple[float, float, int, int], ...]  # (lo, hi, treated, control)


@dataclass(frozen=True, eq=False)
class WeightGrid:
    units: tuple[str, ...]   # rows, ordered by adoption period, never-treated last
    periods: tuple[int, ...]  # columns
    status: np.ndarray  # rows x columns, int8 codes into STATUS
    weight: np.ndarray  # rows x columns, nan where missing


@dataclass(frozen=True)
class CoefficientRow:
    estimate: float
    se: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class HomogeneityTest:
    b_resid_treatment: CoefficientRow
    b_treat_group: CoefficientRow
    b_interaction: CoefficientRow
    n_obs: int
    inference: str


@dataclass(frozen=True)
class GroupCurve:
    slope: float
    intercept: float
    smoothed: tuple[tuple[float, float], ...]  # (grid x, smoothed y)


@dataclass(frozen=True)
class ResidualScatter:
    # the points are the fit's residualized_treatment and residualized_outcome
    control: GroupCurve
    treated: GroupCurve


def weight_report(fit: TwfeFit, bins: int = DEFAULT_BINS) -> WeightReport:
    """Counts and a histogram of the per-observation weights, split by
    treatment status."""
    w = fit.weights
    treated = fit.treatment == 1
    n_treated_negative, share = negative_treated(fit)
    n_control_positive = int((~treated & (w > -NEGATIVE_WEIGHT_TOL)).sum())

    # the weights sum to 0 and a fit's treatment is not collinear, so min < max
    edges = np.linspace(float(w.min()), float(w.max()), bins + 1)
    treated_counts, _ = np.histogram(w[treated], bins=edges)
    control_counts, _ = np.histogram(w[~treated], bins=edges)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(treated_counts[i]), int(control_counts[i]))
        for i in range(bins)
    )
    return WeightReport(
        n_treated=fit.n_treated,
        n_treated_negative=n_treated_negative,
        share_treated_negative=share,
        n_control_positive=n_control_positive,
        histogram=histogram,
    )


def weight_grid(fit: TwfeFit, schedule: AdoptionSchedule) -> WeightGrid:
    """Full unit-by-period rectangle of weight cells, rows sorted by adoption
    period (never-treated last), then unit name."""
    order = schedule.ordered(fit.units)  # grid row i holds unit code order[i]
    r, p = np.argsort(order)[fit.unit], fit.period  # each sample row's grid cell
    weight = np.full((len(order), len(fit.periods)), nan)
    weight[r, p] = fit.weights
    status = np.zeros(weight.shape, dtype=np.int8)  # 0: no observed outcome
    status[r, p] = np.where(fit.treatment == 0, 1, np.where(fit.weights < NEGATIVE_WEIGHT_TOL, 2, 3))
    units = tuple(fit.units[i] for i in order.tolist())
    return WeightGrid(units=units, periods=fit.periods, status=status, weight=weight)


def _groups(fit: TwfeFit):
    """(exponent, control, treated): each group's least-squares line of the
    residualized outcome, scaled by 2**-exponent as fit_twfe scales it, on
    the residualized treatment d, from its count n, means and centred sums
    S_dd and S_dy, with its rows of d and of the unscaled outcome. The one
    singularity rule: a group needs 2 rows and a d whose standard deviation
    exceeds 1e-10 of max|d|."""
    d, y = fit.residualized_treatment, fit.residualized_outcome
    exponent = scale_exponent(fit.outcome)
    treated = fit.treatment == 1
    scale = max(float(np.abs(d).max()), 1e-300)
    lines = []
    for name, mask in (("control", ~treated), ("treated", treated)):
        dg, yg = d[mask], y[mask]
        ys = np.ldexp(yg, -exponent)
        n = len(dg)
        if n < 2:
            raise DegenerateGroup(f"{name} group has fewer than 2 observations")
        mean_d, mean_y = np.add.reduce(dg) / n, np.add.reduce(ys) / n
        dc, yc = dg - mean_d, ys - mean_y
        s_dd = inner(dc, dc)
        if np.sqrt(s_dd / n) <= 1e-10 * scale:  # np.std(dg), by the same sums
            raise DegenerateGroup(f"{name} group has no residual-treatment variation")
        slope = inner(dc, yc) / s_dd
        lines.append(SimpleNamespace(mask=mask, d=dg, y=yg, n=n, mean_d=mean_d, s_dd=s_dd, slope=slope,
                                     intercept=mean_y - slope * mean_d, residuals=yc - slope * dc))
    return exponent, *lines


def homogeneity_test(fit: TwfeFit) -> HomogeneityTest:
    """Regression of the residualized outcome on residualized treatment, a
    treated-group indicator, and their interaction: the two lines of
    _groups, whose control slope, and treated minus control intercept and
    slope, are the coefficients. A nonzero interaction contradicts a single
    homogeneous effect. The intercept is estimated but not reported.

    Standard errors are lsq.standard_errors' with K = 4 and the fit's
    inference, as in fit_twfe: se 0 and nan t statistic and p-value for a
    coefficient whose variance is round-off, and for every coefficient of
    a design with 4 rows.
    """
    exponent, c, t = _groups(fit)
    d, g = fit.residualized_treatment, t.mask.astype(float)
    X = np.column_stack([np.ones(len(d)), d, g, g * d])  # intercept, d, group, interaction
    residuals = np.empty(len(d))
    residuals[c.mask], residuals[t.mask] = c.residuals, t.residuals
    # X = Z A with Z = [1_c, (d - m_c) 1_c, 1_t, (d - m_t) 1_t], whose Z'Z is
    # diag(n_c, S_c, n_t, S_t); so (X'X)^-1 = A^-1 diag(1/n_c, 1/S_c, 1/n_t, 1/S_t) A^-T
    a_inv = np.array([[1, -c.mean_d, 0, 0], [0, 1, 0, 0],
                      [-1, c.mean_d, 1, -t.mean_d], [0, -1, 0, 1]])
    bread = (a_inv / [c.n, c.s_dd, t.n, t.s_dd]) @ a_inv.T
    outcome = np.ldexp(fit.outcome, -exponent)
    ses, dof = standard_errors(X, residuals, bread, 4, inner(outcome, outcome), fit.inference, fit.unit)
    beta = [c.intercept, c.slope, t.intercept - c.intercept, t.slope - c.slope]

    def row(k: int) -> CoefficientRow:
        est, se = float(np.ldexp(beta[k], exponent)), float(np.ldexp(ses[k], exponent))
        return CoefficientRow(est, se, *t_test(est, se, dof))

    return HomogeneityTest(
        b_resid_treatment=row(1),
        b_treat_group=row(2),
        b_interaction=row(3),
        n_obs=len(d),
        inference=fit.inference,
    )


def _local_linear(
    x: np.ndarray, y: np.ndarray, bandwidth: float, grid_points: int
) -> tuple[tuple[float, float], ...]:
    """Tricube-kernel local linear smoother on an equally spaced grid over
    the support of x. A grid point is omitted if its window holds fewer than
    3 points, as every window of a zero-width support does, or det <= 0."""
    lo, hi = float(x.min()), float(x.max())
    h = bandwidth * (hi - lo)
    out = []
    for x0 in np.linspace(lo, hi, grid_points):
        in_window = np.abs(x - x0) < h
        xs, ys = x[in_window] - x0, y[in_window]
        if len(xs) < 3:
            continue
        k = (1 - (np.abs(xs) / h) ** 3) ** 3
        # weighted least squares of ys on (1, xs); value at x0 is the intercept
        s0, s1, s2 = k.sum(), (k * xs).sum(), (k * xs * xs).sum()
        t0, t1 = (k * ys).sum(), (k * xs * ys).sum()
        det = s0 * s2 - s1 * s1
        if det <= 0:
            continue
        out.append((float(x0), float((s2 * t0 - s1 * t1) / det)))
    return tuple(out)


def residual_scatter(
    fit: TwfeFit,
    bandwidth: float = DEFAULT_BANDWIDTH,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> ResidualScatter:
    """Residualized outcome vs. residualized treatment, with a best-fit line
    and a local-linear smoother per treatment group."""
    if not (0 < bandwidth <= 1):
        raise ValueError("bandwidth must be in (0, 1]")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    exponent, *lines = _groups(fit)
    return ResidualScatter(*(
        GroupCurve(float(np.ldexp(line.slope, exponent)), float(np.ldexp(line.intercept, exponent)),
                   _local_linear(line.d, line.y, bandwidth, grid_points))
        for line in lines))
