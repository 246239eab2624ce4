"""Property suite: the diagnostics against plain-loop oracles.

Panels come from the TWFE property suite's strategy: random sizes, missing
cells, arbitrary or staggered treatment, one block or two disconnected
blocks. The homogeneity regression is checked against normal equations on
its 4-column design with the clusters taken from the Observation rows,
and the weight grid's arrays against a dict built from those rows.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import stats

from twfediag import fit_twfe, homogeneity_test, schedule_from_data, weight_grid
from twfediag.diagnostics import STATUS
from twfediag.errors import CollinearTreatment, DegenerateGroup, DegenerateTreatment
from twfediag.lsq import EXACT_FIT_TOL

from conftest import make_panel
from oracles import cluster_score_sandwich, naive_weight_grid, normal_equations_ols
from test_twfe_oracle import BETA_FLOOR, REL, VARIANCE_FLOOR, panels

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
