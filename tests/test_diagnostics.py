import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    fit_twfe,
    homogeneity_test,
    residual_scatter,
    schedule_from_data,
    weight_grid,
    weight_report,
)
from twfediag.diagnostics import STATUS, _groups
from twfediag.errors import DegenerateGroup, UnknownUnit

from conftest import canonical_2x2, make_panel, random_panel, sample_keys
from test_twfe import homogeneous_panel
from oracles import naive_weight_counts, normal_equations_ols


class TestWeightReport:
    def test_counts_match_naive_loop(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            _, ds = random_panel(rng, missing=True, noise_sd=1.0)
            fit = fit_twfe(ds)
            report = weight_report(fit)
            n_treated, n_neg, n_ctrl_pos = naive_weight_counts(fit.weights, fit.treatment)
            assert report.n_treated == n_treated
            assert report.n_treated_negative == n_neg
            assert report.n_control_positive == n_ctrl_pos
            assert report.share_treated_negative == pytest.approx(n_neg / n_treated)

    def test_canonical_2x2_no_negative_treated(self):
        report = weight_report(fit_twfe(canonical_2x2()))
        assert report.n_treated == 1
        assert report.n_treated_negative == 0

    def test_histogram_covers_all_observations(self):
        rng = np.random.default_rng(41)
        _, ds = random_panel(rng, noise_sd=1.0)
        fit = fit_twfe(ds)
        report = weight_report(fit)
        assert len(report.histogram) == 40
        treated_total = sum(t for _, _, t, _ in report.histogram)
        control_total = sum(c for _, _, _, c in report.histogram)
        assert treated_total == report.n_treated
        assert treated_total + control_total == fit.n_obs

    def test_custom_bins(self):
        fit = fit_twfe(homogeneous_panel())
        assert len(weight_report(fit, bins=10).histogram) == 10


class TestWeightGrid:
    def test_full_rectangle_with_missing_marked(self):
        rng = np.random.default_rng(42)
        _, ds = random_panel(rng, missing=True, noise_sd=1.0)
        fit = fit_twfe(ds)
        grid = weight_grid(fit, schedule_from_data(ds))
        assert grid.status.shape == grid.weight.shape == (len(grid.units), len(grid.periods))
        assert grid.status.dtype == np.int8
        present = set(sample_keys(fit))
        for i, u in enumerate(grid.units):
            for j, p in enumerate(grid.periods):
                status, w = STATUS[grid.status[i, j]], grid.weight[i, j]
                if (u, p) in present:
                    assert status in ("untreated", "treated_positive", "treated_negative")
                else:
                    assert status == "missing" and math.isnan(w)

    def test_cell_multiset_matches_report(self):
        rng = np.random.default_rng(43)
        _, ds = random_panel(rng, missing=True, noise_sd=1.0)
        fit = fit_twfe(ds)
        grid = weight_grid(fit, schedule_from_data(ds))
        grid_weights = sorted(grid.weight[grid.status != STATUS.index("missing")].tolist())
        assert grid_weights == pytest.approx(sorted(fit.weights))

    def test_rows_ordered_by_adoption(self):
        ds = homogeneous_panel()
        fit = fit_twfe(ds)
        schedule = AdoptionSchedule({"u1": 3, "u2": 6, "u3": None, "u4": 7})
        grid = weight_grid(fit, schedule)
        assert grid.units == ("u1", "u2", "u4", "u3")  # never-treated last

    def test_unknown_unit(self):
        fit = fit_twfe(canonical_2x2())
        with pytest.raises(UnknownUnit):
            weight_grid(fit, AdoptionSchedule({"A": None}))

    def test_status_classification(self):
        ds = homogeneous_panel()
        fit = fit_twfe(ds)
        grid = weight_grid(fit, schedule_from_data(ds))
        by_key = dict(zip(sample_keys(fit), zip(fit.treatment, fit.weights)))
        for i, u in enumerate(grid.units):
            for j, p in enumerate(grid.periods):
                status = STATUS[grid.status[i, j]]
                if status == "missing":
                    continue
                treated, weight = by_key[(u, p)]
                if treated == 0:
                    assert status == "untreated"
                elif weight < -1e-12:
                    assert status == "treated_negative"
                else:
                    assert status == "treated_positive"


class TestHomogeneityTest:
    def test_noiseless_homogeneous(self):
        fit = fit_twfe(homogeneous_panel(delta=3.0))
        result = homogeneity_test(fit)
        assert result.b_resid_treatment.estimate == pytest.approx(3.0, abs=1e-8)
        assert abs(result.b_interaction.estimate) < 1e-8
        assert abs(result.b_treat_group.estimate) < 1e-8

    def test_per_group_decomposition(self):
        rng = np.random.default_rng(44)
        _, ds = random_panel(rng, missing=True, noise_sd=2.0)
        fit = fit_twfe(ds)
        result = homogeneity_test(fit)
        d = fit.residualized_treatment
        y = fit.residualized_outcome
        treated = fit.treatment == 1
        slopes = {}
        for name, mask in (("control", ~treated), ("treated", treated)):
            X = np.column_stack([np.ones(mask.sum()), d[mask]])
            slopes[name] = normal_equations_ols(X, y[mask])[1]
        assert result.b_resid_treatment.estimate == pytest.approx(slopes["control"], abs=1e-10)
        assert result.b_resid_treatment.estimate + result.b_interaction.estimate == pytest.approx(
            slopes["treated"], abs=1e-10
        )

    def test_pvalues_in_unit_interval(self):
        rng = np.random.default_rng(45)
        _, ds = random_panel(rng, noise_sd=1.0)
        result = homogeneity_test(fit_twfe(ds, "classical"))
        for row in (result.b_resid_treatment, result.b_treat_group, result.b_interaction):
            assert 0.0 <= row.p_value <= 1.0

    def test_cluster_inference_option(self):
        rng = np.random.default_rng(46)
        _, ds = random_panel(rng, noise_sd=1.0)
        classical = homogeneity_test(fit_twfe(ds, "classical"))
        clustered = homogeneity_test(fit_twfe(ds, "cluster_by_unit"))
        assert classical.inference == "classical"
        assert clustered.inference == "cluster_by_unit"
        # same point estimates, different standard errors in general
        assert clustered.b_interaction.estimate == pytest.approx(
            classical.b_interaction.estimate
        )

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroup):
            homogeneity_test(fit_twfe(canonical_2x2()))

    @pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_fit_reports_no_inference(self, seed, inference):
        # noiseless: the residuals are round-off, so no t or p-value
        _, ds = random_panel(np.random.default_rng(seed))
        fit = fit_twfe(ds, "classical")
        assert fit.se == 0.0 and math.isnan(fit.p_value)
        result = homogeneity_test(fit_twfe(ds, inference))
        assert abs(result.b_interaction.estimate) < 1e-8
        for row in (result.b_resid_treatment, result.b_treat_group, result.b_interaction):
            assert row.se == 0.0
            assert math.isnan(row.t_stat) and math.isnan(row.p_value)

    def test_clustered_variance_cancelling_in_one_row(self):
        # the residuals are not round-off, but the residualized-treatment
        # row's cluster scores cancel: its clustered variance is round-off
        # (se 5.7e-16, t 8.7e14 under the residual-sum-of-squares rule alone)
        ds = make_panel([
            ("u0", 1, 1.0, 1), ("u0", 2, 0.0, 1), ("u1", 1, 1.0, 0), ("u1", 2, None, 0),
            ("u2", 1, 0.0, 0), ("u2", 2, 0.0, 1), ("u3", 1, 0.0, 1), ("u3", 2, 0.0, 1),
            ("u4", 1, None, 0), ("u4", 2, None, 0),
        ])
        clustered = homogeneity_test(fit_twfe(ds, "cluster_by_unit"))
        row = clustered.b_resid_treatment
        assert row.estimate == pytest.approx(0.5)
        assert row.se == 0.0 and math.isnan(row.t_stat) and math.isnan(row.p_value)
        for row in (clustered.b_treat_group, clustered.b_interaction):
            assert row.se > 0.05 and 0.0 <= row.p_value <= 1.0
        # classically no row cancels: the residual sum of squares is not round-off
        classical = homogeneity_test(fit_twfe(ds, "classical"))
        for row in (classical.b_resid_treatment, classical.b_treat_group, classical.b_interaction):
            assert row.se > 0.3 and 0.0 <= row.p_value <= 1.0

    @pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
    def test_no_residual_degrees_of_freedom(self, inference):
        # 4 rows for the 4 coefficients; no panel's fit gets here (a 2x2
        # panel whose groups both vary is collinear), so the fit is built
        fit = dataclasses.replace(
            fit_twfe(canonical_2x2()),
            residualized_treatment=np.array([-1.0, 1.0, -2.0, 2.0]),
            residualized_outcome=np.array([0.5, -0.25, 1.0, 3.0]),
            treatment=np.array([0, 0, 1, 1]),
            outcome=np.array([1.0, 2.0, 3.0, 4.0]),
            unit=np.array([0, 0, 1, 1]),
            inference=inference,
        )
        # as for an N == K fit: se 0, so no t statistic or p-value
        result = homogeneity_test(fit)
        assert result.n_obs == 4
        for row in (result.b_resid_treatment, result.b_treat_group, result.b_interaction):
            assert math.isfinite(row.estimate)
            assert row.se == 0.0 and math.isnan(row.t_stat) and math.isnan(row.p_value)

    def test_noisy_rows_unchanged(self):
        # estimate, se and t pinned bit for bit: the exact-fit rule must leave
        # noisy fits alone; the p-values (pinned from scipy) to 1e-13
        doc = json.loads((Path(__file__).parent / "fixtures" / "homogeneity_noisy.json").read_text())
        for case in doc["cases"]:
            _, ds = random_panel(np.random.default_rng(case["seed"]), missing=True, noise_sd=1.0)
            inference = case["inference"]
            result = homogeneity_test(fit_twfe(ds, inference))
            got = [[row.estimate, row.se, row.t_stat, row.p_value]
                   for row in (result.b_resid_treatment, result.b_treat_group, result.b_interaction)]
            want = [[float.fromhex(v) for v in row] for row in case["rows"]]
            assert [row[:3] for row in got] == [row[:3] for row in want], (case["seed"], inference)
            assert [row[3] for row in got] == pytest.approx([row[3] for row in want], rel=1e-13)


def _design(fit):
    """The homogeneity regression's 4 columns: intercept, d, group, interaction."""
    d, g = fit.residualized_treatment, fit.treatment.astype(float)
    return np.column_stack([np.ones(len(d)), d, g, g * d])


def _line_fit(fit):
    """(coefficients, residuals) of the homogeneity regression, read from
    the two lines: the control intercept from the scatter, the rest from
    homogeneity_test, the residuals from _groups in sample-row order."""
    result, control = homogeneity_test(fit), residual_scatter(fit).control
    coef = np.array([control.intercept, result.b_resid_treatment.estimate,
                     result.b_treat_group.estimate, result.b_interaction.estimate])
    exponent, *lines = _groups(fit)
    residuals = np.empty(fit.n_obs)
    for line in lines:
        residuals[line.mask] = np.ldexp(line.residuals, exponent)
    return coef, residuals


def _two_rows_per_group(d, y):
    """A fit whose groups are rows 0-1 (control) and 2-3 (treated)."""
    return dataclasses.replace(
        fit_twfe(canonical_2x2()),
        residualized_treatment=np.array(d), residualized_outcome=np.array(y),
        treatment=np.array([0, 0, 1, 1]), outcome=np.array([1.0, 2.0, 3.0, 4.0]),
        unit=np.array([0, 0, 1, 1]),
    )


class TestGroupLines:
    """The per-group least-squares lines behind homogeneity_test and
    residual_scatter, against the normal equations of the 4-column design."""

    def test_two_point_lines(self):
        fit = _two_rows_per_group([-1.0, 1.0, -2.0, 2.0], [0.5, -0.25, 1.0, 3.0])
        scatter = residual_scatter(fit)
        assert (scatter.control.slope, scatter.control.intercept) == pytest.approx((-0.375, 0.125))
        assert (scatter.treated.slope, scatter.treated.intercept) == pytest.approx((0.5, 2.0))
        assert _line_fit(fit)[1] == pytest.approx([0, 0, 0, 0], abs=1e-15)

    def test_against_normal_equations(self):
        for seed in range(5):
            _, ds = random_panel(np.random.default_rng(seed), missing=True, noise_sd=1.0)
            fit = fit_twfe(ds)
            expected = normal_equations_ols(_design(fit), fit.residualized_outcome)
            assert _line_fit(fit)[0] == pytest.approx(expected, abs=1e-8), seed

    def test_residuals_match_normal_equations(self):
        for seed in range(5):
            _, ds = random_panel(np.random.default_rng(seed), missing=True, noise_sd=1.0)
            fit = fit_twfe(ds)
            X, y = _design(fit), fit.residualized_outcome
            expected = y - X @ normal_equations_ols(X, y)
            assert _line_fit(fit)[1] == pytest.approx(expected, abs=1e-8), seed

    def test_residual_orthogonality(self):
        _, ds = random_panel(np.random.default_rng(49), missing=True, noise_sd=3.0)
        fit = fit_twfe(ds)
        resid = _line_fit(fit)[1]
        for col in _design(fit).T:
            rel = abs(col @ resid) / (np.linalg.norm(col) * np.linalg.norm(resid) + 1e-300)
            assert rel < 1e-8

    def test_scale_equivariance(self):
        _, ds = random_panel(np.random.default_rng(50), missing=True, noise_sd=1.0)
        fit = fit_twfe(ds)
        scaled = dataclasses.replace(fit, residualized_outcome=7.0 * fit.residualized_outcome,
                                     outcome=7.0 * fit.outcome)
        (base, base_resid), (coef, resid) = _line_fit(fit), _line_fit(scaled)
        assert coef == pytest.approx(7.0 * base, rel=1e-12)
        assert resid == pytest.approx(7.0 * base_resid, rel=1e-12)

    def test_rank_deficiency_raises_degenerate_group(self):
        # the treated rows' d is constant: the group and interaction columns
        # are dependent, and _groups' rule is the only one that refuses it
        fit = _two_rows_per_group([-1.0, 1.0, 0.5, 0.5], [0.5, -0.25, 1.0, 3.0])
        for diagnostic in (homogeneity_test, residual_scatter):
            with pytest.raises(DegenerateGroup, match="treated group has no residual-treatment"):
                diagnostic(fit)


class TestResidualScatter:
    def test_noiseless_lines_and_smoother(self):
        fit = fit_twfe(homogeneous_panel(delta=3.0))
        scatter = residual_scatter(fit)
        assert scatter.control.slope == pytest.approx(3.0, abs=1e-8)
        assert scatter.treated.slope == pytest.approx(3.0, abs=1e-8)
        for curve in (scatter.control, scatter.treated):
            for x, y in curve.smoothed:
                line = curve.intercept + curve.slope * x
                assert y == pytest.approx(line, abs=1e-8)

    def test_group_slopes_match_homogeneity_coefficients(self):
        rng = np.random.default_rng(47)
        _, ds = random_panel(rng, missing=True, noise_sd=2.0)
        fit = fit_twfe(ds)
        result = homogeneity_test(fit)
        scatter = residual_scatter(fit)
        # one per-group summary gives both: the same floats, not nearby ones
        assert scatter.control.slope == result.b_resid_treatment.estimate
        assert scatter.treated.slope - scatter.control.slope == result.b_interaction.estimate
        assert scatter.treated.intercept - scatter.control.intercept == result.b_treat_group.estimate
        assert scatter.treated.slope == pytest.approx(
            result.b_resid_treatment.estimate + result.b_interaction.estimate, abs=1e-10
        )

    def test_points_partition_by_group(self):
        rng = np.random.default_rng(48)
        _, ds = random_panel(rng, noise_sd=1.0)
        fit = fit_twfe(ds)
        scatter = residual_scatter(fit)
        # the points are the fit's arrays; each group's line is fitted to its rows
        d, y, treated = fit.residualized_treatment, fit.residualized_outcome, fit.treatment == 1
        assert len(d) == len(y) == fit.n_obs
        assert int(treated.sum()) == fit.n_treated
        for curve, mask in ((scatter.control, ~treated), (scatter.treated, treated)):
            X = np.column_stack([np.ones(mask.sum()), d[mask]])
            intercept, slope = normal_equations_ols(X, y[mask])
            assert curve.slope == pytest.approx(slope, abs=1e-10)
            assert curve.intercept == pytest.approx(intercept, abs=1e-10)

    def test_bandwidth_validation(self):
        fit = fit_twfe(homogeneous_panel())
        with pytest.raises(ValueError):
            residual_scatter(fit, bandwidth=0.0)
        with pytest.raises(ValueError):
            residual_scatter(fit, grid_points=1)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_validation(self, bins):
        fit = fit_twfe(homogeneous_panel())
        with pytest.raises(ValueError, match="bins must be at least 1"):
            weight_report(fit, bins=bins)
        assert len(weight_report(fit, bins=1).histogram) == 1

    def test_sparse_window_grid_points_omitted(self):
        fit = fit_twfe(homogeneous_panel())
        scatter = residual_scatter(fit, bandwidth=0.01, grid_points=50)
        # tiny bandwidth leaves most windows with < 3 points
        assert len(scatter.treated.smoothed) < 50


def test_replication_negative_weight_counts(replication_primary, replication_secondary):
    primary = weight_report(fit_twfe(replication_primary))
    assert (primary.n_treated_negative, primary.n_treated) == (50, 193)
    secondary = weight_report(fit_twfe(replication_secondary))
    assert (secondary.n_treated_negative, secondary.n_treated) == (36, 138)


def test_replication_homogeneity_table(replication_primary):
    result = homogeneity_test(fit_twfe(replication_primary))
    assert result.b_resid_treatment.estimate == pytest.approx(23.76, abs=0.01)
    assert result.b_treat_group.estimate == pytest.approx(0.34, abs=0.01)
    assert result.b_interaction.estimate == pytest.approx(-7.81, abs=0.01)
