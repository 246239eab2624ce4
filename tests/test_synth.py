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
    homogeneity_test,
    spec_from_json,
    spec_to_json,
    true_effect_summary,
)
from twfediag.errors import InvalidSpec

from oracles import dummy_ols_beta


def base_spec(**overrides):
    kwargs = dict(
        units=("A", "B", "C"),
        periods=(1, 2, 3, 4, 5),
        baselines={"A": 10.0, "B": 20.0, "C": 5.0},
        shocks={1: 0.0, 2: 1.0, 3: -2.0, 4: 0.5, 5: 3.0},
        schedule=AdoptionSchedule({"A": 3, "B": 5, "C": None}),
        effect=EffectModel.constant(3.0),
        noise_sd=0.0,
        seed=7,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestGeneratePanel:
    def test_zero_effect_zero_beta(self):
        panel = generate_panel(base_spec(effect=EffectModel.constant(0.0)))
        assert fit_twfe(panel).beta == pytest.approx(0.0, abs=1e-10)

    def test_constant_effect_recovered(self):
        panel = generate_panel(base_spec())
        assert fit_twfe(panel).beta == pytest.approx(3.0, abs=1e-8)

    def test_balanced_output(self):
        panel = generate_panel(base_spec())
        assert panel.is_balanced()
        assert len(panel) == 15

    def test_seed_determinism_bitwise(self):
        spec = base_spec(noise_sd=1.5)
        a = generate_panel(spec)
        b = generate_panel(spec)
        assert a.observations == b.observations

    def test_different_seeds_differ(self):
        a = generate_panel(base_spec(noise_sd=1.5, seed=1))
        b = generate_panel(base_spec(noise_sd=1.5, seed=2))
        assert a.observations != b.observations

    def test_cumulative_shocks(self):
        panel = generate_panel(base_spec(effect=EffectModel.constant(0.0)))
        values = {(o.unit, o.period): o.outcome for o in panel.observations}
        # unit A baseline 10, shocks cumulate: 0, 1, -1, -0.5, 2.5
        assert values[("A", 1)] == pytest.approx(10.0)
        assert values[("A", 3)] == pytest.approx(9.0)
        assert values[("A", 5)] == pytest.approx(12.5)

    def test_baseline_and_shock_shifts_leave_beta_unchanged(self):
        beta = fit_twfe(generate_panel(base_spec())).beta
        shifted_mu = base_spec(baselines={"A": 110.0, "B": 120.0, "C": 105.0})
        assert fit_twfe(generate_panel(shifted_mu)).beta == pytest.approx(beta, abs=1e-8)
        shifted_eta = base_spec(shocks={1: 0.0, 2: 1.0, 3: -2.0, 4: 42.5, 5: 3.0})
        assert fit_twfe(generate_panel(shifted_eta)).beta == pytest.approx(beta, abs=1e-8)

    def test_event_time_bias_can_leave_effect_range(self):
        # growing effects with a long-treated early adopter push the pooled
        # coefficient below every individual cell effect
        spec = SyntheticSpec(
            units=("early", "late"),
            periods=tuple(range(1, 11)),
            baselines={"early": 10.0, "late": 3.0},
            shocks={p: 0.0 for p in range(1, 11)},
            schedule=AdoptionSchedule({"early": 2, "late": 9}),
            effect=EffectModel.event_time(slope=1.0, intercept=0.0),
        )
        panel = generate_panel(spec)
        beta = dummy_ols_beta(panel)
        summary = true_effect_summary(spec)
        assert fit_twfe(panel).beta == pytest.approx(beta, abs=1e-8)
        assert beta < summary.minimum or beta > summary.maximum

    def test_heterogeneous_effects_produce_nonzero_interaction(self):
        spec = base_spec(
            units=("A", "B", "C", "D"),
            baselines={"A": 10.0, "B": 20.0, "C": 5.0, "D": 0.0},
            schedule=AdoptionSchedule({"A": 2, "B": 4, "C": None, "D": 5}),
            effect=EffectModel.by_unit({"A": 0.0, "B": 10.0, "C": 0.0, "D": -4.0}),
        )
        result = homogeneity_test(fit_twfe(generate_panel(spec)))
        assert abs(result.b_interaction.estimate) > 1e-6


class TestSpecValidation:
    def test_missing_baseline(self):
        with pytest.raises(InvalidSpec):
            base_spec(baselines={"A": 10.0, "B": 20.0})

    def test_missing_shock(self):
        with pytest.raises(InvalidSpec):
            base_spec(shocks={1: 0.0, 2: 1.0})

    def test_nonzero_first_shock(self):
        with pytest.raises(InvalidSpec):
            base_spec(shocks={1: 1.0, 2: 1.0, 3: -2.0, 4: 0.5, 5: 3.0})

    def test_missing_schedule_entry(self):
        with pytest.raises(InvalidSpec):
            base_spec(schedule=AdoptionSchedule({"A": 3}))

    def test_too_small(self):
        with pytest.raises(InvalidSpec):
            base_spec(units=("A",), baselines={"A": 1.0},
                      schedule=AdoptionSchedule({"A": 2}))

    @pytest.mark.parametrize("periods", [(1, 1, 2, 3, 4), (1, 2, 3, 5, 4)],
                             ids=["repeated", "descending"])
    def test_periods_not_strictly_ascending(self, periods):
        with pytest.raises(InvalidSpec, match="strictly ascending"):
            base_spec(periods=periods)

    def test_negative_noise(self):
        with pytest.raises(InvalidSpec):
            base_spec(noise_sd=-1.0)

    def test_by_unit_missing_entry(self):
        spec = base_spec(effect=EffectModel.by_unit({"A": 1.0}))
        with pytest.raises(InvalidSpec):
            generate_panel(spec)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "baseline", "shock", "delta", "per_unit", "slope", "intercept", "noise_sd",
    ])
    def test_non_finite_value(self, field, value):
        build = {
            "baseline": lambda: base_spec(baselines={"A": 10.0, "B": value, "C": 5.0}),
            "shock": lambda: base_spec(shocks={1: 0.0, 2: 1.0, 3: value, 4: 0.5, 5: 3.0}),
            "delta": lambda: base_spec(effect=EffectModel.constant(value)),
            "per_unit": lambda: base_spec(
                effect=EffectModel.by_unit({"A": 1.0, "B": value, "C": 0.0})),
            "slope": lambda: base_spec(effect=EffectModel.event_time(slope=value)),
            "intercept": lambda: base_spec(
                effect=EffectModel.event_time(slope=1.0, intercept=value)),
            "noise_sd": lambda: base_spec(noise_sd=value),
        }[field]
        with pytest.raises(InvalidSpec):
            build()

    def test_negative_seed(self):
        with pytest.raises(InvalidSpec):
            base_spec(seed=-1)
        assert base_spec(seed=0).seed == 0

    def test_repeated_unit(self):
        with pytest.raises(InvalidSpec):
            base_spec(units=("A", "B", "A"))

    @pytest.mark.parametrize("where", ["periods", "schedule"])
    def test_period_beyond_64_bits(self, where):
        big = 2**63
        with pytest.raises(InvalidSpec):
            if where == "periods":
                base_spec(periods=(1, 2, 3, 4, big),
                          shocks={1: 0.0, 2: 1.0, 3: -2.0, 4: 0.5, big: 3.0})
            else:
                base_spec(schedule=AdoptionSchedule({"A": 3, "B": -big - 1, "C": None}))


class TestTrueEffectSummary:
    def test_constant(self):
        assert true_effect_summary(base_spec()) == (3.0, 3.0, 3.0)

    def test_by_unit_mean(self):
        spec = base_spec(
            schedule=AdoptionSchedule({"A": 4, "B": 4, "C": None}),
            effect=EffectModel.by_unit({"A": 1.0, "B": 2.0, "C": 0.0}),
        )
        summary = true_effect_summary(spec)
        assert summary == (1.0, 2.0, 1.5)

    def test_event_time_enumeration(self):
        spec = base_spec(
            schedule=AdoptionSchedule({"A": 2, "B": None, "C": None}),
            effect=EffectModel.event_time(slope=1.0, intercept=0.0),
        )
        summary = true_effect_summary(spec)
        assert summary.minimum == 0.0
        assert summary.maximum == 3.0
        assert summary.mean == pytest.approx(1.5)

    def test_no_treated_cells(self):
        spec = base_spec(schedule=AdoptionSchedule({"A": None, "B": None, "C": None}))
        with pytest.raises(InvalidSpec):
            true_effect_summary(spec)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        spec = base_spec(noise_sd=0.5)
        path = tmp_path / "spec.json"
        spec_to_json(spec, path)
        back = spec_from_json(path)
        assert back == spec

    def test_seed_override(self, tmp_path):
        path = tmp_path / "spec.json"
        spec_to_json(base_spec(seed=7), path)
        assert spec_from_json(path, seed=99).seed == 99

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "spec.json"
        spec_to_json(base_spec(), path)
        path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        with pytest.raises(InvalidSpec, match="not UTF-8 text"):
            spec_from_json(path)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"units": ["A", "B"]}', encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)

    @pytest.mark.parametrize("field", ["baselines", "seed"])
    def test_number_beyond_float_range(self, tmp_path, field):
        # an integer literal too large for a float: float(), and int() of
        # the float JSON makes of 1e400, raise OverflowError
        path = tmp_path / "spec.json"
        spec_to_json(base_spec(), path)
        text = path.read_text(encoding="utf-8")
        if field == "baselines":
            text = text.replace('"A": 10.0', '"A": 1' + "0" * 400, 1)
        else:
            text = text.replace('"seed": 7', '"seed": 1e400', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)
