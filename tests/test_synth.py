import dataclasses
import json
import math
import warnings

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
)
from twfediag.errors import InvalidSpec

from conftest import write_spec
from oracles import dummy_ols_beta, effect_summary_reference, generate_panel_reference


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


# (text in write_spec(base_spec())'s document, what replaces it, message):
# a JSON object giving one key twice, and two shocks keys naming one period
REPEATED_KEYS = {
    "baseline twice": ('"C": 5.0', '"C": 5.0, "A": 9.0', "baselines gives the key 'A' twice"),
    "field twice": ('"seed": 7', '"seed": 7, "seed": 8', "the spec document gives the key 'seed' twice"),
    "shock period with underscore": ('"3": -2.0', '"3": -2.0, "0_3": 50.0',
                                     "shocks['0_3'] gives period 3 a second shock"),
    "shock period with space": ('"3": -2.0', '"3": -2.0, " 3": 50.0',
                                "shocks[' 3'] gives period 3 a second shock"),
}


def write_repeated_key_spec(path, case: str) -> str:
    """Write base_spec()'s document with REPEATED_KEYS[case]'s edit; returns
    the message that refuses it."""
    old, new, message = REPEATED_KEYS[case]
    write_spec(base_spec(), path)
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return message


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
        minimum, maximum, _ = effect_summary_reference(spec)
        assert fit_twfe(panel).beta == pytest.approx(beta, abs=1e-8)
        assert beta < minimum or beta > maximum

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


    def test_adoption_span_beyond_64_bits(self):
        # A adopts at the first int64 period and is treated through the last,
        # at event times up to 2**64-1: past int64, where they used to wrap
        periods = (-2**63, 0, 2**63 - 1)
        for effect in (EffectModel.event_time(1.0), EffectModel.event_time(1e-18, 3.0)):
            spec = base_spec(
                units=("A", "B"),
                periods=periods,
                baselines={"A": 0.0, "B": 1.0},
                shocks=dict.fromkeys(periods, 0.0),
                schedule=AdoptionSchedule({"A": -2**63, "B": None}),
                effect=effect,
            )
            panel = generate_panel(spec)
            assert panel.treated.tolist() == [1, 1, 1, 0, 0, 0]
            # A's outcomes less its baseline and shocks of 0: the effects at
            # event times 0, 2**63 and 2**64-1, as the reference has them
            want = [effect.intercept + effect.slope * float(e) for e in (0, 2**63, 2**64 - 1)]
            assert panel.outcome.tolist() == [*want, 1.0, 1.0, 1.0]
            assert generate_panel_reference(spec).outcome.tolist() == panel.outcome.tolist()
        # before adoption, event times wrap (A's two to 2**63 and 2**64-2**62),
        # and no effect there may overflow
        wrapped = base_spec(
            units=("A", "B"),
            periods=(-2**62, 0, 2**62),
            baselines={"A": 0.0, "B": 1.0},
            shocks={-2**62: 0.0, 0: 1.0, 2**62: 2.0},
            schedule=AdoptionSchedule({"A": 2**62, "B": None}),
            effect=EffectModel.event_time(1e300),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert generate_panel(wrapped).outcome.tolist() == [0.0, 1.0, 3.0, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(baselines=[10.0, 20.0, 5.0]), "baselines must be an object, got an array"),
        (lambda d: d.update(shocks=[0.0, 1.0]), "shocks must be an object, got an array"),
        (lambda d: d.update(schedule=["A", 3]), "schedule must be an object, got an array"),
        (lambda d: d.update(effect={"kind": "by_unit", "per_unit": [1.0, 2.0, 0.0]}),
         "effect.per_unit must be an object, got an array"),
        (lambda d: d.update(effect="constant"), 'effect must be an object, got "constant"'),
        (lambda d: d.update(effect=[3.0]), "effect must be an object, got an array"),
        (lambda d: d.update(periods=[1.5, 2.5]), r"periods\[0\] must be an integer, got 1.5"),
        (lambda d: d["schedule"].update(A=2.7), r"schedule\['A'\] must be an integer, got 2.7"),
        (lambda d: d.update(seed=3.9), "seed must be an integer, got 3.9"),
        (lambda d: d.update(periods=[True, 2, 3, 4, 5]), r"periods\[0\] must be an integer, got true"),
        (lambda d: d.update(units="ab"), 'units must be an array, got "ab"'),
        (lambda d: d.update(units=["A", 2, "C"]), r"units\[1\] must be a string, got 2"),
        (lambda d: d["baselines"].update(A="10"), r"baselines\['A'\] must be a number, got \"10\""),
        (lambda d: d["effect"].update(delta=None), "effect.delta must be a number, got null"),
    ], ids=["baselines array", "shocks array", "schedule array", "per_unit array",
            "effect string", "effect array", "non-integral periods", "non-integral adoption",
            "non-integral seed", "period true", "units string", "unit label number",
            "baseline string", "delta null"])
    def test_field_of_wrong_json_type(self, tmp_path, change, message):
        path = tmp_path / "spec.json"
        write_spec(base_spec(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        change(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidSpec, match=message):
            spec_from_json(path)


class TestTrueEffectSummary:
    """The oracle's summary of a spec's true effects, against hand values
    and against the effects generate_panel adds to the treated cells: the
    outcome less the same spec's outcome with a zero effect, exact at
    these levels."""

    @staticmethod
    def _check_generated(spec, summary):
        panel = generate_panel(spec)
        untreated = generate_panel(dataclasses.replace(spec, effect=EffectModel.constant(0.0)))
        effects = (panel.outcome - untreated.outcome)[panel.treated == 1].tolist()
        assert summary == (min(effects), max(effects), sum(effects) / len(effects))

    def test_constant(self):
        assert effect_summary_reference(base_spec()) == (3.0, 3.0, 3.0)
        self._check_generated(base_spec(), (3.0, 3.0, 3.0))

    def test_by_unit_mean(self):
        spec = base_spec(
            schedule=AdoptionSchedule({"A": 4, "B": 4, "C": None}),
            effect=EffectModel.by_unit({"A": 1.0, "B": 2.0, "C": 0.0}),
        )
        summary = effect_summary_reference(spec)
        assert summary == (1.0, 2.0, 1.5)
        self._check_generated(spec, summary)

    def test_event_time_enumeration(self):
        spec = base_spec(
            schedule=AdoptionSchedule({"A": 2, "B": None, "C": None}),
            effect=EffectModel.event_time(slope=1.0, intercept=0.0),
        )
        minimum, maximum, mean = effect_summary_reference(spec)
        assert minimum == 0.0
        assert maximum == 3.0
        assert mean == pytest.approx(1.5)
        self._check_generated(spec, (minimum, maximum, mean))

    def test_no_treated_cells(self):
        spec = base_spec(schedule=AdoptionSchedule({"A": None, "B": None, "C": None}))
        with pytest.raises(InvalidSpec):
            effect_summary_reference(spec)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        spec = base_spec(noise_sd=0.5)
        path = tmp_path / "spec.json"
        write_spec(spec, path)
        back = spec_from_json(path)
        assert back == spec

    def test_seed_override(self, tmp_path):
        path = tmp_path / "spec.json"
        write_spec(base_spec(seed=7), path)
        assert spec_from_json(path, seed=99).seed == 99

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "spec.json"
        write_spec(base_spec(), path)
        path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        with pytest.raises(InvalidSpec, match="not UTF-8 text"):
            spec_from_json(path)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"units": ["A", "B"]}', encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)

    @pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
    def test_repeated_key(self, tmp_path, case):
        path = tmp_path / "spec.json"
        message = write_repeated_key_spec(path, case)
        with pytest.raises(InvalidSpec) as exc:
            spec_from_json(path)
        assert str(exc.value) == message

    def test_repeated_key_in_an_array_element(self, tmp_path):
        path = tmp_path / "spec.json"
        write_spec(base_spec(), path)
        text = path.read_text(encoding="utf-8").replace('"C"\n', '{"C": 1, "C": 2}\n', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidSpec, match=r"^units\[2\] gives the key 'C' twice$"):
            spec_from_json(path)

    @pytest.mark.parametrize("field", ["baselines", "seed"])
    def test_number_beyond_float_range(self, tmp_path, field):
        # an integer literal too large for a float: float(), and int() of
        # the float JSON makes of 1e400, raise OverflowError
        path = tmp_path / "spec.json"
        write_spec(base_spec(), path)
        text = path.read_text(encoding="utf-8")
        if field == "baselines":
            text = text.replace('"A": 10.0', '"A": 1' + "0" * 400, 1)
        else:
            text = text.replace('"seed": 7', '"seed": 1e400', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidSpec):
            spec_from_json(path)
