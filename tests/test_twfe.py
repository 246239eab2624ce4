import math

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    EffectModel,
    Observation,
    PanelDataset,
    SyntheticSpec,
    fit_twfe,
    generate_panel,
)
from twfediag.errors import CollinearTreatment, DegenerateTreatment, NonFiniteOutcome

from conftest import canonical_2x2, make_panel, random_panel, sample_keys
from oracles import bacon_decomposition, balanced_residualized_treatment, dummy_ols_beta


def homogeneous_panel(delta=3.0, seed=0):
    spec = SyntheticSpec(
        units=("u1", "u2", "u3", "u4"),
        periods=tuple(range(1, 9)),
        baselines={"u1": 5.0, "u2": -2.0, "u3": 11.0, "u4": 0.5},
        shocks={1: 0.0, 2: 1.5, 3: -0.5, 4: 2.0, 5: 0.0, 6: -1.0, 7: 0.25, 8: 3.0},
        schedule=AdoptionSchedule({"u1": 3, "u2": 6, "u3": None, "u4": 7}),
        effect=EffectModel.constant(delta),
        seed=seed,
    )
    return generate_panel(spec)


class TestFitTwfe:
    def test_canonical_2x2(self):
        fit = fit_twfe(canonical_2x2())
        assert fit.beta == pytest.approx(5.0)
        assert fit.n_obs == 4
        assert fit.n_treated == 1

    def test_noiseless_homogeneous_recovery(self):
        fit = fit_twfe(homogeneous_panel(delta=3.0))
        assert fit.beta == pytest.approx(3.0, abs=1e-8)

    def test_all_untreated_degenerate(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 0),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 0)])
        with pytest.raises(DegenerateTreatment):
            fit_twfe(ds)

    def test_single_unit_degenerate(self):
        # a single unit would be a single cluster; the fit refuses it first
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 3.0, 1), ("A", 3, 2.0, 1)])
        with pytest.raises(DegenerateTreatment):
            fit_twfe(ds)

    def test_simultaneous_adoption_all_units_collinear(self):
        # every unit treated from period 2: treatment is a period dummy
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 1),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 1)])
        with pytest.raises(CollinearTreatment):
            fit_twfe(ds)

    def test_weight_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            _, ds = random_panel(rng, missing=True, noise_sd=1.0)
            fit = fit_twfe(ds)
            assert abs(fit.weights.sum()) < 1e-10
            y = ds.outcome[ds.observed]
            assert fit.weights @ y == pytest.approx(fit.beta, rel=1e-8, abs=1e-8)
            ssd = np.add.reduce(fit.residualized_treatment * fit.residualized_treatment)
            np.testing.assert_array_equal(fit.weights, fit.residualized_treatment / ssd)

    def test_matches_brute_force_dummy_ols(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            _, ds = random_panel(rng, missing=True, noise_sd=2.0)
            assert fit_twfe(ds).beta == pytest.approx(dummy_ols_beta(ds), abs=1e-8)

    def test_reference_categories_do_not_affect_beta_or_weights(self):
        rng = np.random.default_rng(23)
        _, ds = random_panel(rng, noise_sd=1.0)
        fit = fit_twfe(ds)
        # rotate observations so a different unit/period pair leads
        rotated = PanelDataset.from_observations(ds.observations[10:] + ds.observations[:10])
        fit2 = fit_twfe(rotated)
        assert fit2.beta == pytest.approx(fit.beta, abs=1e-10)
        w1 = dict(zip(sample_keys(fit), fit.weights))
        w2 = dict(zip(sample_keys(fit2), fit2.weights))
        for key, w in w1.items():
            assert w2[key] == pytest.approx(w, abs=1e-12)

    def test_fixed_effect_reporting(self):
        ds = homogeneous_panel()
        fit = fit_twfe(ds)
        # reported effects + beta reconstruct fitted values
        by_key = {(o.unit, o.period): o for o in ds.observations}
        for (unit, period), y in zip(sample_keys(fit), ds.outcome[ds.observed]):
            obs = by_key[(unit, period)]
            pred = (
                fit.unit_effects[unit]
                + fit.period_effects[period]
                + fit.beta * obs.treated
            )
            assert pred == pytest.approx(y, abs=1e-8)


    def test_sample_arrays_match_dataset(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            _, ds = random_panel(rng, missing=True, noise_sd=1.0)
            fit = fit_twfe(ds)
            sample = [o for o in ds.observations if o.outcome is not None]
            assert sample_keys(fit) == [(o.unit, o.period) for o in sample]
            assert fit.treatment.tolist() == [o.treated for o in sample]
            # codes number the units by first appearance in the sample
            assert fit.units == tuple(dict.fromkeys(o.unit for o in sample))

    @pytest.mark.parametrize("inference", ["cluster_by_unit", "classical"])
    def test_noiseless_fit_is_exact(self, inference):
        fit = fit_twfe(homogeneous_panel(delta=3.0), inference)
        assert fit.se == 0.0
        assert math.isnan(fit.p_value)

    @pytest.mark.parametrize("inference", ["cluster_by_unit", "classical"])
    def test_fixed_effects_only_outcome_is_exact(self, inference):
        # outcome = unit level + period shock, no treatment effect: the
        # residuals are round-off relative to the outcome's large level
        fit = fit_twfe(homogeneous_panel(delta=0.0), inference)
        assert fit.beta == pytest.approx(0.0, abs=1e-10)
        assert fit.se == 0.0
        assert math.isnan(fit.p_value)

    def test_two_unit_cluster_scores_cancel(self):
        # balanced, two units: the two cluster scores are equal and sum to
        # zero, so the clustered variance is 0 while the classical is not
        ds = make_panel([("A", 1, 0.3, 0), ("A", 2, 1.9, 0), ("A", 3, -0.4, 1),
                         ("B", 1, 1.1, 0), ("B", 2, 0.2, 1), ("B", 3, 2.5, 1)])
        fit = fit_twfe(ds)
        assert fit.se == 0.0 and math.isnan(fit.p_value)
        assert fit_twfe(ds, "classical").se > 0

    def test_noisy_fit_is_not_exact(self):
        rng = np.random.default_rng(32)
        _, ds = random_panel(rng, missing=True, noise_sd=1e-6)
        fit = fit_twfe(ds)
        assert fit.se > 0 and 0.0 <= fit.p_value <= 1.0

    def test_disconnected_panel_degrees_of_freedom(self):
        # two blocks sharing no unit and no period: K = U + T - 2 + 1
        rng = np.random.default_rng(33)
        rows = [(f"a{i}", t, float(rng.normal()), int(t >= 2 + i))
                for i in range(3) for t in range(1, 5)]
        rows += [(f"b{i}", t, float(rng.normal()), int(t >= 6 + i))
                 for i in range(3) for t in range(5, 9)]
        ds = make_panel(rows)
        assert fit_twfe(ds, "classical").dof == 24 - (6 + 8 - 2 + 1)
        assert fit_twfe(ds).dof == 5
        assert fit_twfe(ds).beta == pytest.approx(dummy_ols_beta(ds), rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome_rejected(self, bad):
        # no panel holds one: building it fails and names the row, so no fit
        # can see it
        with pytest.raises(NonFiniteOutcome, match="unit 'A', period 2"):
            make_panel([("A", 1, 1.0, 0), ("A", 2, bad, 1),
                        ("B", 1, 2.0, 0), ("B", 2, 0.0, 0)])
        if math.isinf(bad):  # in the columns, nan marks a missing outcome
            with pytest.raises(NonFiniteOutcome, match="unit 'A', period 2"):
                PanelDataset(("A", "B"), [0, 0, 1, 1], [1, 2, 1, 2],
                             [1.0, bad, 2.0, 0.0], [0, 1, 0, 0])


class TestInvariances:
    def test_period_shock_invariance(self):
        rng = np.random.default_rng(24)
        _, ds = random_panel(rng, noise_sd=1.0)
        beta = fit_twfe(ds).beta
        target = ds.periods[len(ds.periods) // 2]
        shifted = PanelDataset.from_observations((
            Observation(o.unit, o.period,
                        o.outcome + (37.5 if o.period == target else 0.0), o.treated)
            for o in ds.observations
        ))
        assert fit_twfe(shifted).beta == pytest.approx(beta, abs=1e-8)

    def test_unit_shift_invariance(self):
        rng = np.random.default_rng(25)
        _, ds = random_panel(rng, noise_sd=1.0)
        beta = fit_twfe(ds).beta
        target = ds.units[0]
        shifted = PanelDataset.from_observations((
            Observation(o.unit, o.period,
                        o.outcome + (-12.25 if o.unit == target else 0.0), o.treated)
            for o in ds.observations
        ))
        assert fit_twfe(shifted).beta == pytest.approx(beta, abs=1e-8)

    def test_outcome_affine_transform(self):
        rng = np.random.default_rng(26)
        _, ds = random_panel(rng, noise_sd=1.0)
        beta = fit_twfe(ds).beta
        a, b = 2.5, -7.0
        scaled = PanelDataset.from_observations((
            Observation(o.unit, o.period, a * o.outcome + b, o.treated)
            for o in ds.observations
        ))
        assert fit_twfe(scaled).beta == pytest.approx(a * beta, rel=1e-10)


class TestResidualization:
    def test_balanced_2x2(self):
        d_resid = fit_twfe(canonical_2x2()).residualized_treatment
        assert d_resid == pytest.approx([0.25, -0.25, -0.25, 0.25], abs=1e-12)

    def test_mean_zero(self):
        rng = np.random.default_rng(27)
        _, ds = random_panel(rng, missing=True)
        assert abs(fit_twfe(ds).residualized_treatment.mean()) < 1e-12

    def test_all_zero_treatment_collinear(self):
        # an all-zero treatment is spanned by the fixed effects; the fit
        # rejects the one-group sample before it reaches that check
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 0),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 0)])
        with pytest.raises(DegenerateTreatment):
            fit_twfe(ds)
        # treatment that is a unit dummy has both groups and no residual
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 0),
                         ("B", 1, 2.0, 1), ("B", 2, 0.0, 1)])
        with pytest.raises(CollinearTreatment):
            fit_twfe(ds)

    def test_2x3_staggered_closed_form_value(self):
        # A adopts at period 2, B at period 3: the treated cell (A, 3) has
        # residual 1 - 1 - 2/3 + 1/2 = -1/6
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 1), ("A", 3, 1.0, 1),
                         ("B", 1, 1.0, 0), ("B", 2, 1.0, 0), ("B", 3, 1.0, 1)])
        d_resid = fit_twfe(ds).residualized_treatment
        assert d_resid[2] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert d_resid == pytest.approx(balanced_residualized_treatment(ds), abs=1e-10)

    def test_constant_outcome_residualizes_to_zero(self):
        ds = make_panel([("A", 1, 4.0, 0), ("A", 2, 4.0, 1),
                         ("B", 1, 4.0, 0), ("B", 2, 4.0, 0)])
        assert fit_twfe(ds).residualized_outcome == pytest.approx([0, 0, 0, 0], abs=1e-12)

    def test_noiseless_outcome_residual_is_scaled_treatment_residual(self):
        fit = fit_twfe(homogeneous_panel(delta=3.0))
        assert fit.residualized_outcome == pytest.approx(
            3.0 * fit.residualized_treatment, abs=1e-10
        )

    def test_fwl_slope_equals_fit_beta(self):
        # the slope of the residuals against the normal-equations oracle
        rng = np.random.default_rng(28)
        _, ds = random_panel(rng, missing=True, noise_sd=2.0)
        fit = fit_twfe(ds)
        d_resid, y_resid = fit.residualized_treatment, fit.residualized_outcome
        slope = (d_resid @ y_resid) / (d_resid @ d_resid)
        assert slope == pytest.approx(dummy_ols_beta(ds), rel=1e-8)


class TestClosedForm:
    def test_unbalanced_rejected(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, None, 1),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 0)])
        with pytest.raises(ValueError, match="balanced"):
            balanced_residualized_treatment(ds)

    def test_never_treated_all_zero(self):
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 0),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 0)])
        assert balanced_residualized_treatment(ds) == pytest.approx([0, 0, 0, 0])

    def test_matches_regression_residuals_on_balanced_panels(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            _, ds = random_panel(rng, missing=False)
            closed = balanced_residualized_treatment(ds)
            regressed = fit_twfe(ds).residualized_treatment
            assert np.max(np.abs(closed - regressed)) < 1e-10


class TestBaconDecomposition:
    def test_weighted_2x2_estimates_equal_beta(self):
        # Goodman-Bacon (2021): the coefficient is the weighted mean of the
        # 2x2 DiD estimates, and the weights sum to the variance of the
        # residualized treatment
        rng = np.random.default_rng(32)
        for _ in range(100):
            _, ds = random_panel(rng, missing=False, noise_sd=1.0)
            fit = fit_twfe(ds)
            weights, estimates = np.array(bacon_decomposition(ds)).T
            d_resid = fit.residualized_treatment
            assert weights @ estimates / weights.sum() == pytest.approx(fit.beta, rel=1e-10)
            assert weights.sum() == pytest.approx(d_resid @ d_resid / fit.n_obs, rel=1e-10)

    def test_2x2_is_one_comparison(self):
        # one treated unit against one never-treated unit: the DiD itself
        (weight, estimate), = bacon_decomposition(canonical_2x2())
        assert estimate == pytest.approx(5.0)
        assert weight == pytest.approx(0.0625)  # sum(0.25**2 * 4) / 4


class TestWeights:
    def test_fwl_weights_2x2(self):
        w = fit_twfe(canonical_2x2()).weights
        assert w == pytest.approx([1.0, -1.0, -1.0, 1.0])

    def test_normalization_identity(self):
        rng = np.random.default_rng(30)
        _, ds = random_panel(rng, missing=True, noise_sd=1.0)
        fit = fit_twfe(ds)
        assert fit.weights @ fit.residualized_treatment == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance(self):
        # a residualized treatment with zero sum of squares has no weights:
        # treatment on every cell of a late period is a period dummy
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, 1.0, 1),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 1)])
        with pytest.raises(CollinearTreatment):
            fit_twfe(ds)

    def test_beta_from_weights_2x2(self):
        fit = fit_twfe(canonical_2x2())
        assert fit.weights @ fit.outcome == pytest.approx(5.0)

    def test_beta_from_weights_mismatch(self):
        # weights and outcome come from one fit, over the same sample rows
        ds = make_panel([("A", 1, 1.0, 0), ("A", 2, None, 0), ("A", 3, 2.0, 1),
                         ("B", 1, 2.0, 0), ("B", 2, 0.0, 0), ("B", 3, 1.0, 0),
                         ("C", 1, None, 0), ("C", 2, 3.0, 1), ("C", 3, 5.0, 1)])
        fit = fit_twfe(ds)
        assert fit.weights.shape == fit.outcome.shape == (fit.n_obs,) == (7,)

    def test_fwl_identity_on_random_panels(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            _, ds = random_panel(rng, missing=True, noise_sd=1.5)
            fit = fit_twfe(ds)
            y = ds.outcome[ds.observed]
            assert fit.weights @ y == pytest.approx(dummy_ols_beta(ds), rel=1e-8, abs=1e-8)
