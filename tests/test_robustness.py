import math

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    EffectModel,
    SyntheticSpec,
    fit_twfe,
    generate_panel,
    leave_one_unit_out,
    schedule_from_data,
    sweep_end_year,
    sweep_post_horizon,
    weight_report,
)
from twfediag.errors import NoFeasiblePoint, UnknownUnit

from conftest import canonical_2x2, make_panel, random_panel
from test_twfe import homogeneous_panel


def homogeneous_schedule():
    return AdoptionSchedule({"u1": 3, "u2": 6, "u3": None, "u4": 7})


LOW, HIGH = -2**63, 2**63 - 1


def extremes_panel():
    """Periods at both ends of int64, where a period minus an adoption
    period can overflow; unit D adopts 2**64 - 2 periods before its last."""
    adoption = {"A": 0, "B": HIGH, "C": None, "D": LOW + 1}
    return make_panel(
        (unit, period, 1.5 * i + 0.25 * j + 2.0 * (start is not None and period >= start) + (i * j) % 3,
         int(start is not None and period >= start))
        for i, (unit, start) in enumerate(adoption.items())
        for j, period in enumerate([LOW, LOW + 1, 0, HIGH])
    ), AdoptionSchedule(adoption)


class TestEndYearSweep:
    def test_last_point_equals_full_sample(self):
        ds = homogeneous_panel()
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        full = fit_twfe(ds)
        last = sweep.points[-1]
        assert last.label == str(ds.periods[-1])
        assert last.beta == full.beta
        assert last.n_obs == full.n_obs

    def test_degenerate_truncation_skipped(self):
        sweep = sweep_end_year(canonical_2x2(), 1, 2)
        assert [p.label for p in sweep.points] == ["2"]
        assert sweep.skipped[0][0] == "1"

    def test_no_feasible_point(self):
        with pytest.raises(NoFeasiblePoint):
            sweep_end_year(canonical_2x2(), 1, 1)

    def test_points_match_manual_subsample(self):
        rng = np.random.default_rng(60)
        _, ds = random_panel(rng, missing=True, noise_sd=1.5)
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        for point in sweep.points:
            end = int(point.label)
            sub = ds.restrict(np.array([o.period <= end for o in ds.observations]))
            fit = fit_twfe(sub)
            report = weight_report(fit)
            assert point.beta == fit.beta
            assert point.share_negative_treated == report.share_treated_negative
            assert point.n_obs == fit.n_obs
            assert point.n_treated == fit.n_treated

    def test_ci_brackets_beta(self):
        rng = np.random.default_rng(61)
        _, ds = random_panel(rng, noise_sd=1.0)
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        for point in sweep.points:
            assert point.ci_low <= point.beta <= point.ci_high

    def test_saturated_classical_fit_has_nan_interval(self):
        # 4 observations, 4 parameters: no residual degrees of freedom
        sweep = sweep_end_year(canonical_2x2(), 1, 2, inference="classical")
        assert [(p.label, p.n_obs) for p in sweep.points] == [("2", 4)]  # the full sample
        for point in sweep.points:
            assert point.beta == pytest.approx(5.0)
            assert math.isnan(point.ci_low) and math.isnan(point.ci_high)

    def test_exact_clustered_fit_has_nan_interval(self):
        # noiseless: se == 0 with dof = G - 1 > 0, formerly [beta, beta]
        ds = homogeneous_panel(delta=3.0)
        assert fit_twfe(ds).se == 0.0
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        assert sweep.points[-1].n_obs == len(ds)  # the full sample
        for point in sweep.points:
            assert math.isnan(point.ci_low) and math.isnan(point.ci_high)

    def test_constant_effect_stable(self):
        ds = homogeneous_panel(delta=3.0)
        sweep = sweep_end_year(ds, ds.periods[0], ds.periods[-1])
        for point in sweep.points:
            assert point.beta == pytest.approx(3.0, abs=1e-8)


class TestPostHorizonSweep:
    def test_large_horizon_equals_full_sample(self):
        ds = homogeneous_panel()
        sweep = sweep_post_horizon(ds, homogeneous_schedule(), [100])
        full = fit_twfe(ds)
        assert sweep.points[0].beta == full.beta
        assert sweep.points[0].n_obs == full.n_obs

    def test_horizon_beyond_64_bits_equals_full_sample(self):
        ds = homogeneous_panel()
        sweep = sweep_post_horizon(ds, homogeneous_schedule(), [10**20])
        assert sweep.points[0].n_obs == fit_twfe(ds).n_obs

    def test_horizon_zero_one_treated_period_per_unit(self):
        ds = homogeneous_panel()
        sweep = sweep_post_horizon(ds, homogeneous_schedule(), [0])
        # adopting units u1, u2, u4 each contribute their adoption period only
        assert sweep.points[0].n_treated == 3

    def test_never_treated_units_untouched(self):
        ds = homogeneous_panel()
        sweep = sweep_post_horizon(ds, homogeneous_schedule(), [0])
        sub = ds.restrict(np.array([
            homogeneous_schedule().entries[o.unit] is None
            or o.period <= (homogeneous_schedule().entries[o.unit] or 0)
            for o in ds.observations
        ]))
        never_rows = [o for o in sub.observations if o.unit == "u3"]
        assert len(never_rows) == len(ds.periods)

    def test_constant_effect_stable_across_horizons(self):
        ds = homogeneous_panel(delta=3.0)
        sweep = sweep_post_horizon(ds, homogeneous_schedule(), [0, 1, 2, 3, 100])
        assert len(sweep.points) >= 2
        for point in sweep.points:
            assert point.beta == pytest.approx(3.0, abs=1e-8)

    def test_event_time_does_not_wrap_at_int64_extremes(self):
        # h = 0 keeps B's rows before its adoption at 2**63 - 1; h = 5 drops
        # D's row 2**64 - 2 periods after adoption: 13 rows either way
        ds, schedule = extremes_panel()
        sweep = sweep_post_horizon(ds, schedule, [0, 5])
        assert [(p.label, p.n_obs) for p in sweep.points] == [("0", 13), ("5", 13)]

    def test_unknown_unit(self):
        ds = homogeneous_panel()
        with pytest.raises(UnknownUnit):
            sweep_post_horizon(ds, AdoptionSchedule({"u1": 3}), [1])

    def test_horizon_validation(self):
        ds = homogeneous_panel()
        with pytest.raises(ValueError):
            sweep_post_horizon(ds, homogeneous_schedule(), [])
        with pytest.raises(ValueError):
            sweep_post_horizon(ds, homogeneous_schedule(), [-1])


class TestLeaveOneOut:
    def test_symmetric_units_give_equal_points(self):
        units = ("a", "b", "c", "d")
        spec = SyntheticSpec(
            units=units,
            periods=tuple(range(1, 7)),
            baselines={u: 1.0 for u in units},
            shocks={1: 0.0, 2: 1.0, 3: 0.5, 4: -1.0, 5: 2.0, 6: 0.0},
            schedule=AdoptionSchedule({"a": 4, "b": 4, "c": 4, "d": None}),
            effect=EffectModel.constant(2.0),
        )
        sweep = leave_one_unit_out(generate_panel(spec), spec.schedule)
        betas = {p.label: p.beta for p in sweep.points}
        assert betas["a"] == pytest.approx(betas["b"], abs=1e-8)
        assert betas["b"] == pytest.approx(betas["c"], abs=1e-8)

    def test_constant_effect_every_point(self):
        sweep = leave_one_unit_out(homogeneous_panel(delta=3.0), homogeneous_schedule())
        assert len(sweep.points) == 4
        for point in sweep.points:
            assert point.beta == pytest.approx(3.0, abs=1e-8)

    def test_points_ordered_by_adoption(self):
        sweep = leave_one_unit_out(homogeneous_panel(), homogeneous_schedule())
        assert [p.label for p in sweep.points] == ["u1", "u2", "u4", "u3"]

    def test_points_follow_the_given_schedule(self):
        # u3 adopts before the panel starts and u2 never: the schedule
        # orders the points, not the treated column
        schedule = AdoptionSchedule({"u1": 3, "u2": None, "u3": -5, "u4": 7})
        sweep = leave_one_unit_out(homogeneous_panel(), schedule)
        assert [p.label for p in sweep.points] == ["u3", "u1", "u4", "u2"]

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            leave_one_unit_out(homogeneous_panel(), AdoptionSchedule({"u1": 3}))

    def test_needs_three_units(self):
        with pytest.raises(ValueError):
            leave_one_unit_out(canonical_2x2(), schedule_from_data(canonical_2x2()))

    def test_points_match_manual_subsample(self):
        rng = np.random.default_rng(62)
        _, ds = random_panel(rng, missing=True, noise_sd=1.0)
        sweep = leave_one_unit_out(ds, schedule_from_data(ds))
        for point in sweep.points:
            sub = ds.restrict(np.array([o.unit != point.label for o in ds.observations]))
            fit = fit_twfe(sub)
            assert point.beta == fit.beta
            assert point.n_obs == fit.n_obs


def test_replication_end_year_negative_share(replication_primary):
    sweep = sweep_end_year(replication_primary, 2005, 2015)
    shares = {p.label: p.share_negative_treated for p in sweep.points}
    assert shares["2005"] == pytest.approx(0.03, abs=0.01)
    assert shares["2015"] == pytest.approx(0.26, abs=0.01)


def test_replication_jackknife_point_count(replication_primary):
    sweep = leave_one_unit_out(replication_primary, schedule_from_data(replication_primary))
    assert len(sweep.points) == 15
