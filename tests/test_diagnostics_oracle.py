"""Property suite: the diagnostics against plain-loop oracles.

Panels come from the TWFE property suite's strategy: random sizes, missing
cells, arbitrary or staggered treatment, one block or two disconnected
blocks. The homogeneity regression is checked against normal equations on
its 4-column design with the clusters taken from the Observation rows,
and the weight grid against a dict built from those rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from twfediag import fit_twfe, homogeneity_test, schedule_from_data, weight_grid
from twfediag.errors import CollinearTreatment, DegenerateGroup, DegenerateTreatment
from twfediag.twfe import EXACT_FIT_TOL

from oracles import cluster_score_sandwich, naive_weight_grid, normal_equations_ols
from test_twfe_oracle import BETA_FLOOR, REL, VARIANCE_FLOOR, panels

REFUSED = (DegenerateTreatment, CollinearTreatment)


def _oracle(fit, dataset, inference):
    """(coefficients, covariance, dof, rss, coefficient scales) of the
    homogeneity regression. A coefficient's scale, ||y|| * sqrt((X'X)^-1_jj),
    bounds it by Cauchy-Schwarz; the variance is bounded by its square
    times the variance factor."""
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
    scale = np.linalg.norm(y) * np.sqrt(np.diag(np.linalg.inv(X.T @ X)))
    return coef, cov, dof, float(resid @ resid), scale, factor


@pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dataset=panels())
def test_homogeneity_matches_normal_equations(inference, dataset):
    try:
        fit = fit_twfe(dataset, "classical")
        result = homogeneity_test(fit, inference)
    except REFUSED + (DegenerateGroup,):
        return
    coef, cov, dof, rss, scale, factor = _oracle(fit, dataset, inference)
    rows = (result.b_resid_treatment, result.b_treat_group, result.b_interaction)
    exact = all(row.se == 0.0 for row in rows)
    if exact:  # round-off spread: the oracle's residuals are round-off too
        assert rss <= 10 * EXACT_FIT_TOL * float(fit.outcome @ fit.outcome)
    for j, row in enumerate(rows, start=1):
        assert abs(row.estimate - coef[j]) <= REL * abs(coef[j]) + BETA_FLOOR * scale[j]
        if not exact:
            variance = cov[j, j]
            floor = VARIANCE_FLOOR * factor * scale[j] ** 2
            assert abs(row.se**2 - variance) <= 2 * REL * variance + floor
        if row.se == 0.0:  # an exact fit, or a clustered variance that cancels to 0
            assert math.isnan(row.t_stat) and math.isnan(row.p_value)
            continue
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
    assert list(grid.cells) == list(cells)
    for key, (status, weight) in cells.items():
        got_status, got_weight = grid.cells[key]
        assert got_status == status
        assert got_weight == weight or math.isnan(got_weight) and math.isnan(weight)
