"""Property suite: the diagnostics against plain-loop oracles.

Panels come from the TWFE property suite's strategy: random sizes, missing
cells, arbitrary or staggered treatment, one block or two disconnected
blocks. The homogeneity regression is checked against normal equations on
its 4-column design with the clusters taken from the Observation rows,
and the weight grid's arrays against a dict built from those rows.

On the TWFE suite's exact families, the homogeneity regression's
coefficients and their classical and clustered se**2 are checked against
the exact rational oracle, at bounds set from the fit's own exact bounds.

The scatter's smoother is checked on random groups for equality with its
two-branch form in the oracles, and each kept grid point against a
weighted least-squares solve of its window by np.linalg.lstsq.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from twfediag import fit_twfe, homogeneity_test, schedule_from_data, weight_grid
from twfediag.diagnostics import STATUS, _local_linear
from twfediag.errors import CollinearTreatment, DegenerateGroup, DegenerateTreatment
from twfediag.lsq import EXACT_FIT_TOL, t_test

from conftest import make_panel
from oracles import (
    cluster_score_sandwich,
    exact_homogeneity,
    exact_residualized,
    local_linear_reference,
    naive_weight_grid,
    normal_equations_ols,
)
from test_twfe_oracle import (
    BETA_FLOOR,
    EXACT_FAMILIES,
    EXACT_REL,
    EXACT_VECTOR_REL,
    REL,
    VARIANCE_FLOOR,
    panels,
)

REFUSED = (DegenerateTreatment, CollinearTreatment)


def _oracle(fit, dataset, inference):
    """(coefficients, covariance, dof, variance bounds per unit of RSS,
    coefficient scales, variance factor) of the homogeneity regression.
    A coefficient's scale, ||y|| * sqrt((X'X)^-1_jj), bounds it by
    Cauchy-Schwarz; its variance is at most RSS * factor * (X'X)^-1_jj,
    and so at most the squared scale times the factor."""
    d, y = fit.residualized_treatment, fit.residualized_outcome
    g = fit.treatment.astype(float)
    X = np.column_stack([np.ones(len(d)), d, g, g * d])
    coef = normal_equations_ols(X, y)
    resid = y - X @ coef
    n, k = X.shape
    if inference == "classical":
        factor, dof = 1.0 / (n - k), n - k
        cov = (resid @ resid) * factor * np.linalg.inv(X.T @ X)
    else:
        clusters = [o.unit for o in dataset.observations if o.outcome is not None]
        G = len(set(clusters))
        factor, dof = (G / (G - 1)) * ((n - 1) / (n - k)), G - 1
        cov = cluster_score_sandwich(X, resid, clusters, factor)
    inverse = np.diag(np.linalg.inv(X.T @ X))
    return coef, cov, dof, factor * inverse, np.linalg.norm(y) * np.sqrt(inverse), factor


# two clusters: their scores cancel (a meat of rank 1), so every clustered
# variance is 0 while the residual sum of squares is 0.25
TWO_CLUSTERS_CANCEL = make_panel([
    ("b0u0", 1, 0.0, 0), ("b0u0", 2, None, 0), ("b0u0", 3, 0.0, 1), ("b0u0", 4, 0.0, 0),
    ("b0u1", 1, 0.0, 0), ("b0u1", 2, 0.0, 1), ("b0u1", 3, 0.0, 0), ("b0u1", 4, 1.0, 0),
])
# an outcome of unit and period effects only: the residualized outcome, and
# with it every coefficient's scale, is itself round-off
FIXED_EFFECTS_ONLY = make_panel([
    (f"u{i}", t, 0.3 * i + 0.7 * t, int(i < 3 and t >= 2 + i)) for i in range(5) for t in range(1, 6)
])


@pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dataset=panels())
@example(dataset=TWO_CLUSTERS_CANCEL)
@example(dataset=FIXED_EFFECTS_ONLY)
def test_homogeneity_matches_normal_equations(inference, dataset):
    try:
        fit = fit_twfe(dataset, inference)
        result = homogeneity_test(fit)
    except REFUSED + (DegenerateGroup,):
        return
    coef, cov, dof, per_rss, scale, factor = _oracle(fit, dataset, inference)
    rows = (result.b_resid_treatment, result.b_treat_group, result.b_interaction)
    roundoff_rss = 10 * EXACT_FIT_TOL * float(fit.outcome @ fit.outcome)
    for j, row in enumerate(rows, start=1):
        assert abs(row.estimate - coef[j]) <= REL * abs(coef[j]) + BETA_FLOOR * scale[j]
        variance = cov[j, j]
        floor = VARIANCE_FLOOR * factor * scale[j] ** 2
        if row.se == 0.0:
            # a variance flagged as round-off: the oracle's is what a round-off
            # RSS gives (classically: the RSS is round-off), or within the
            # oracle's own floor (two cancelling clusters)
            assert abs(variance) <= roundoff_rss * per_rss[j] + floor
            assert math.isnan(row.t_stat) and math.isnan(row.p_value)
            continue
        assert abs(row.se**2 - variance) <= 2 * REL * variance + floor
        assert row.t_stat == row.estimate / row.se
        assert row.p_value == pytest.approx(2.0 * stats.t.sf(abs(row.t_stat), dof), rel=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dataset=panels())
def test_weight_grid_matches_observation_rows(dataset):
    try:
        fit = fit_twfe(dataset)
    except REFUSED:
        return
    schedule = schedule_from_data(dataset)
    grid = weight_grid(fit, schedule)
    units, periods, cells = naive_weight_grid(dataset, fit.weights, schedule)
    assert grid.units == units
    assert grid.periods == periods
    assert grid.status.shape == grid.weight.shape == (len(units), len(periods))
    for i, u in enumerate(units):
        for j, p in enumerate(periods):
            status, weight = cells[(u, p)]
            got_weight = float(grid.weight[i, j])
            assert STATUS[grid.status[i, j]] == status
            assert got_weight == weight or math.isnan(got_weight) and math.isnan(weight)


@functools.lru_cache(maxsize=None)
def _exact(family: str):
    """exact_homogeneity of an exact family, and the largest magnitude of
    its exact residualized outcome."""
    dataset = EXACT_FAMILIES[family]()
    return exact_homogeneity(dataset), max(map(abs, exact_residualized(dataset)[1]))


@pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_homogeneity_matches_exact_oracle(family, inference):
    """The reported coefficients and se**2 against the exact oracle, and
    the t statistics and p-values on the oracle's degrees of freedom. The
    residualized outcome is within EXACT_VECTOR_REL of max|y| of exact in
    every row, which moves coefficient j by at most
    sqrt(N (X'X)^-1_jj) times that (Cauchy-Schwarz); the residualized
    treatment's relative error moves it by EXACT_REL of itself. The group
    column is not residualized, so the homogeneity residuals are not
    orthogonal to the fitted effects' errors, and both kinds of se**2 are
    bounded at the outcome's scale, as the fit's clustered se**2 is:
    EXACT_REL times max|y| / max|residualized outcome|, relative."""
    (beta, bread, variances), y_res = _exact(family)
    fit = fit_twfe(EXACT_FAMILIES[family](), inference)
    result = homogeneity_test(fit)
    scale = float(np.abs(fit.outcome).max())
    se2, dof = variances[inference]
    rel = EXACT_REL * scale / y_res
    rows = (result.b_resid_treatment, result.b_treat_group, result.b_interaction)
    for j, row in enumerate(rows, start=1):
        bound = EXACT_REL * abs(beta[j]) + EXACT_VECTOR_REL * scale * math.sqrt(fit.n_obs * bread[j])
        assert abs(Fraction(row.estimate) - beta[j]) <= bound, j
        assert abs(Fraction(row.se) ** 2 - se2[j]) <= rel * se2[j], j
        assert (row.t_stat, row.p_value) == t_test(row.estimate, row.se, dof), j


@st.composite
def smoother_groups(draw):
    """(x, y, bandwidth, grid_points) of one scatter group: 2 to 300 rows
    whose x are spread, repeated (a few distinct values), on the grid
    points, or all equal (a zero-width support), at scales 1e-6 to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    bandwidth = draw(st.floats(1e-3, 1.0))
    grid_points = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["spread", "repeated", "on grid", "zero width"]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if kind == "spread":
        x = scale * rng.normal(size=n)
    elif kind == "repeated":
        x = scale * rng.integers(0, draw(st.integers(1, 6)), n)
    elif kind == "on grid":
        grid = np.linspace(-scale, scale, grid_points)
        x = grid[rng.integers(0, grid_points, n)]
        x[:2] = grid[0], grid[-1]  # so the smoother's grid is this grid
    else:
        x = np.full(n, scale * rng.normal())
    return x, rng.normal(size=n) + 0.5 * x / scale, bandwidth, grid_points


ZERO_WIDTH = (np.full(5, 2.5), np.arange(5.0), 0.8, 50)
REPEATED_AT_GRID = (np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5]), np.arange(7.0), 0.001, 3)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(group=smoother_groups())
@example(group=ZERO_WIDTH)
@example(group=REPEATED_AT_GRID)
def test_smoother_matches_reference_and_weighted_least_squares(group):
    x, y, bandwidth, grid_points = group
    smoothed = _local_linear(x, y, bandwidth, grid_points)
    assert smoothed == local_linear_reference(x, y, bandwidth, grid_points)
    h = bandwidth * (x.max() - x.min())
    if h == 0:
        assert smoothed == ()
    for x0, value in smoothed:
        window = np.abs(x - x0) < h
        assert window.sum() >= 3
        offset = x[window] - x0
        root_k = np.sqrt((1 - (np.abs(offset) / h) ** 3) ** 3)
        # the offset column scaled to max 1, which leaves the intercept as it is
        design = root_k[:, None] * np.column_stack([np.ones(len(offset)), offset / np.abs(offset).max()])
        (intercept, _), *_ = np.linalg.lstsq(design, root_k * y[window], rcond=None)
        # the smoother solves the normal equations, whose round-off grows
        # with the square of the design's condition number; for a window
        # whose x take one value (which det <= 0 can miss) it says nothing
        tol = 1e-12 * np.linalg.cond(design) ** 2 * np.abs(y[window]).max()
        assert abs(value - intercept) <= tol
