"""Diagnostics on a fitted two-way fixed-effects model: where the implicit
weights fall (including negative weight on treated cells) and a direct
regression test of treatment-effect homogeneity."""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

import numpy as np

from .errors import DegenerateGroup, UnknownUnit
from .lsq import (
    DesignMatrix,
    classical_covariance,
    cluster_robust_covariance,
    solve_least_squares,
    t_test,
)
from .panel import AdoptionSchedule
from .twfe import EXACT_FIT_TOL, NEGATIVE_WEIGHT_TOL, TwfeFit

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
    per_observation: tuple[tuple[str, int, int, float], ...]  # (unit, period, treated, weight)


@dataclass(frozen=True)
class WeightGrid:
    units: tuple[str, ...]   # ordered by adoption period, never-treated last
    periods: tuple[int, ...]
    cells: dict[tuple[str, int], tuple[str, float]]  # -> (status, weight); weight nan if missing


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
    points: tuple[tuple[float, float, int], ...]  # (resid treatment, resid outcome, treated)
    control: GroupCurve
    treated: GroupCurve


def weight_report(fit: TwfeFit, bins: int = DEFAULT_BINS) -> WeightReport:
    """Counts and a histogram of the per-observation weights, split by
    treatment status."""
    w = fit.weights
    treated = fit.treatment == 1
    n_treated = int(treated.sum())
    n_treated_negative = int((treated & (w < NEGATIVE_WEIGHT_TOL)).sum())
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
    per_observation = tuple(
        (unit, period, int(fit.treatment[i]), float(w[i]))
        for i, (unit, period) in enumerate(fit.sample_index)
    )
    return WeightReport(
        n_treated=n_treated,
        n_treated_negative=n_treated_negative,
        share_treated_negative=n_treated_negative / n_treated if n_treated else 0.0,
        n_control_positive=n_control_positive,
        histogram=histogram,
        per_observation=per_observation,
    )


def _classify(treated: int, weight: float) -> str:
    if treated == 0:
        return "untreated"
    return "treated_negative" if weight < NEGATIVE_WEIGHT_TOL else "treated_positive"


def weight_grid(fit: TwfeFit, schedule: AdoptionSchedule) -> WeightGrid:
    """Full unit-by-period rectangle of weight cells, rows sorted by adoption
    period (never-treated last), then unit name."""
    sample_units = sorted({u for u, _ in fit.sample_index})
    for u in sample_units:
        if u not in schedule.entries:
            raise UnknownUnit(u)
    periods = tuple(sorted({p for _, p in fit.sample_index}))
    units = tuple(
        sorted(
            sample_units,
            key=lambda u: (
                schedule.entries[u] is None,
                schedule.entries[u] if schedule.entries[u] is not None else 0,
                u,
            ),
        )
    )
    by_key = {
        (u, p): (int(fit.treatment[i]), float(fit.weights[i]))
        for i, (u, p) in enumerate(fit.sample_index)
    }
    cells: dict[tuple[str, int], tuple[str, float]] = {}
    for u in units:
        for p in periods:
            if (u, p) in by_key:
                treated, w = by_key[(u, p)]
                cells[(u, p)] = (_classify(treated, w), w)
            else:
                cells[(u, p)] = ("missing", nan)
    return WeightGrid(units=units, periods=periods, cells=cells)


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

    As in fit_twfe, an exact fit reports se = 0 and nan t statistics and
    p-values: one whose residual sum of squares is at most EXACT_FIT_TOL
    relative to the raw outcome's sum of squares, so that any spread left
    is round-off.
    """
    if inference not in ("classical", "cluster_by_unit"):
        raise ValueError(f"unknown inference kind {inference!r}")
    d, y, treated = _groups(fit)
    g = treated.astype(float)
    X = DesignMatrix(
        np.column_stack([np.ones(len(d)), d, g, g * d]),
        ("intercept", "resid_treatment", "treat_group", "interaction"),
    )
    ols = solve_least_squares(X, y)
    if inference == "cluster_by_unit":
        uniq = {u: i for i, u in enumerate(dict.fromkeys(u for u, _ in fit.sample_index))}
        unit_ids = np.array([uniq[u] for u, _ in fit.sample_index])
        cov = cluster_robust_covariance(ols, X, unit_ids)
        dof = cov.clusters - 1
    else:
        cov = classical_covariance(ols, X)
        dof = ols.dof_residual
    ses = cov.standard_errors()
    exact = ols.rss <= EXACT_FIT_TOL * float(fit.outcome @ fit.outcome)

    def row(k: int) -> CoefficientRow:
        est = float(ols.coefficients[k])
        se = 0.0 if exact else float(ses[k])
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
    X = DesignMatrix(np.column_stack([np.ones(len(x)), x]), ("intercept", "x"))
    fit = solve_least_squares(X, y)
    return float(fit.coefficients[1]), float(fit.coefficients[0])


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
        if h <= 0:
            in_window = dist == 0
        else:
            in_window = dist < h
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
    points = tuple(
        (float(d[i]), float(y[i]), int(treated[i])) for i in range(len(d))
    )
    curves = {}
    for name, mask in (("control", ~treated), ("treated", treated)):
        slope, intercept = _ols_line(d[mask], y[mask])
        smoothed = _local_linear(d[mask], y[mask], bandwidth, grid_points)
        curves[name] = GroupCurve(slope=slope, intercept=intercept, smoothed=smoothed)
    return ResidualScatter(points=points, control=curves["control"], treated=curves["treated"])
