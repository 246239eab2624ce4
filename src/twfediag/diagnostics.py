"""Diagnostics on a fitted two-way fixed-effects model: where the implicit
weights fall (including negative weight on treated cells) and a direct
regression test of treatment-effect homogeneity."""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

import numpy as np

from .errors import DegenerateGroup, UnknownUnit
from .lsq import classical_vcov, cluster_vcov, inner, qr_lstsq, t_test
from .panel import AdoptionSchedule
from .twfe import EXACT_FIT_TOL, NEGATIVE_WEIGHT_TOL, TwfeFit, negative_treated

DEFAULT_BINS = 40
DEFAULT_BANDWIDTH = 0.8
DEFAULT_GRID_POINTS = 50


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
    status: np.ndarray  # rows x columns: missing, untreated, treated_negative, treated_positive
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
    n_treated, n_treated_negative, share = negative_treated(fit)
    n_control_positive = int((~treated & (w > -NEGATIVE_WEIGHT_TOL)).sum())

    lo, hi = float(w.min()), float(w.max())
    if hi == lo:
        hi = lo + 1.0  # degenerate support; one catch-all bin range
    edges = np.linspace(lo, hi, bins + 1)
    treated_counts, _ = np.histogram(w[treated], bins=edges)
    control_counts, _ = np.histogram(w[~treated], bins=edges)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(treated_counts[i]), int(control_counts[i]))
        for i in range(bins)
    )
    return WeightReport(
        n_treated=n_treated,
        n_treated_negative=n_treated_negative,
        share_treated_negative=share,
        n_control_positive=n_control_positive,
        histogram=histogram,
    )


def weight_grid(fit: TwfeFit, schedule: AdoptionSchedule) -> WeightGrid:
    """Full unit-by-period rectangle of weight cells, rows sorted by adoption
    period (never-treated last), then unit name."""
    entries = schedule.entries
    for u in sorted(fit.units):
        if u not in entries:
            raise UnknownUnit(u)
    units = tuple(sorted(fit.units, key=lambda u: (entries[u] is None, entries[u] or 0, u)))
    periods, p = np.unique(fit.period, return_inverse=True)
    weight = np.full((len(fit.units), len(periods)), nan)
    weight[fit.unit, p] = fit.weights
    treated = np.full(weight.shape, -1, dtype=np.int8)  # -1: no observed outcome
    treated[fit.unit, p] = fit.treatment
    code = {u: i for i, u in enumerate(fit.units)}
    rows = [code[u] for u in units]
    weight, treated = weight[rows], treated[rows]
    status = np.select(
        [treated == -1, treated == 0, weight < NEGATIVE_WEIGHT_TOL],
        ["missing", "untreated", "treated_negative"],
        "treated_positive",
    )
    return WeightGrid(units=units, periods=tuple(periods.tolist()), status=status, weight=weight)


def _groups(fit: TwfeFit):
    d = fit.residualized_treatment
    y = fit.residualized_outcome
    treated = fit.treatment == 1
    scale = max(float(np.abs(d).max()), 1e-300)
    for name, mask in (("control", ~treated), ("treated", treated)):
        if mask.sum() < 2:
            raise DegenerateGroup(f"{name} group has fewer than 2 observations")
        if np.std(d[mask]) <= 1e-10 * scale:
            raise DegenerateGroup(f"{name} group has no residual-treatment variation")
    return d, y, treated


def homogeneity_test(fit: TwfeFit, inference: str = "classical") -> HomogeneityTest:
    """Regression of the residualized outcome on residualized treatment, a
    treated-group indicator, and their interaction.

    A nonzero interaction coefficient means the residual slope differs between
    the treated and comparison groups, contradicting a single homogeneous
    effect. The intercept is estimated (within-group means need not be zero)
    but not reported.

    As in fit_twfe, a coefficient whose variance is round-off reports
    se = 0 and nan t statistic and p-value: one whose variance is at most
    what a residual sum of squares of EXACT_FIT_TOL times the raw outcome's
    sum of squares could give. Classically every row is flagged exactly
    when the residual sum of squares is that small; clustered, one row's
    cluster scores can also cancel to round-off while the residuals do not.
    """
    if inference not in ("classical", "cluster_by_unit"):
        raise ValueError(f"unknown inference kind {inference!r}")
    d, y, treated = _groups(fit)
    g = treated.astype(float)
    X = np.column_stack([np.ones(len(d)), d, g, g * d])  # intercept, d, group, interaction
    beta, resid, R = qr_lstsq(X, y)
    if inference == "cluster_by_unit":
        cov, per_rss, clusters = cluster_vcov(X, R, resid, fit.unit)
        dof = clusters - 1
    else:
        cov, per_rss = classical_vcov(R, resid)
        dof = len(y) - X.shape[1]
    var = np.diag(cov)
    ses = np.sqrt(np.clip(var, 0.0, None))
    exact = var <= EXACT_FIT_TOL * inner(fit.outcome, fit.outcome) * per_rss

    def row(k: int) -> CoefficientRow:
        est = float(beta[k])
        se = 0.0 if exact[k] else float(ses[k])
        if se > 0:
            t, p = t_test(est, se, dof)
        else:
            t, p = nan, nan
        return CoefficientRow(estimate=est, se=se, t_stat=t, p_value=p)

    return HomogeneityTest(
        b_resid_treatment=row(1),
        b_treat_group=row(2),
        b_interaction=row(3),
        n_obs=len(y),
        inference=inference,
    )


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    beta = qr_lstsq(np.column_stack([np.ones(len(x)), x]), y)[0]
    return float(beta[1]), float(beta[0])


def _local_linear(
    x: np.ndarray, y: np.ndarray, bandwidth: float, grid_points: int
) -> tuple[tuple[float, float], ...]:
    """Tricube-kernel local linear smoother on an equally spaced grid over
    the support of x; grid points with fewer than 3 in-window points are
    omitted."""
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    h = bandwidth * span
    grid = np.linspace(lo, hi, grid_points)
    out = []
    for x0 in grid:
        dist = np.abs(x - x0)
        in_window = dist < h if h > 0 else dist == 0
        if in_window.sum() < 3:
            continue
        u = dist[in_window] / h if h > 0 else np.zeros(int(in_window.sum()))
        k = (1 - u**3) ** 3
        xs = x[in_window] - x0
        ys = y[in_window]
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
    d, y, treated = _groups(fit)
    curves = {}
    for name, mask in (("control", ~treated), ("treated", treated)):
        slope, intercept = _ols_line(d[mask], y[mask])
        smoothed = _local_linear(d[mask], y[mask], bandwidth, grid_points)
        curves[name] = GroupCurve(slope=slope, intercept=intercept, smoothed=smoothed)
    return ResidualScatter(control=curves["control"], treated=curves["treated"])
