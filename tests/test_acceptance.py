"""Acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with `pytest -s tests/test_acceptance.py`). Criteria 1-6
exercise the bundled replication snapshot and skip with a documented
reason when `data/replication/enrollment.csv` is absent (see README);
criteria 7-13 are self-contained properties.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from twfediag import (
    fit_twfe,
    generate_panel,
    homogeneity_test,
    leave_one_unit_out,
    spec_from_json,
    sweep_end_year,
    sweep_post_horizon,
    true_effect_summary,
    weight_grid,
    weight_report,
)
from twfediag.cli import main
from twfediag.panel import Observation, PanelDataset
from twfediag.synth import EffectModel

from conftest import FIXTURES, bundled_schedule, random_panel
from oracles import balanced_residualized_treatment, dummy_ols_beta

EARLY_FIVE = {"Malawi", "Ethiopia", "Ghana", "Uganda", "Cameroon"}


def _verdict(criterion: str, description: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def _close(name, got, want, tol, failures):
    if not abs(got - want) <= tol:
        failures.append(f"{name}={got} not within {tol} of {want}")


# --- replication suite (1-6) ---


def test_c01_headline_primary_estimate(replication_primary):
    failures = []
    start = time.perf_counter()
    fit = fit_twfe(replication_primary)
    elapsed = time.perf_counter() - start
    _close("beta", fit.beta, 20.43, 0.01, failures)
    _close("se", fit.se, 9.12, 0.01, failures)
    _close("p", fit.p_value, 0.04, 0.005, failures)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict("C01", "headline primary-enrollment estimate", failures)


def test_c02_headline_secondary_estimate(replication_secondary):
    failures = []
    fit = fit_twfe(replication_secondary)
    _close("beta", fit.beta, -0.47, 0.01, failures)
    _close("se", fit.se, 3.08, 0.01, failures)
    _close("p", fit.p_value, 0.88, 0.005, failures)
    _verdict("C02", "headline secondary-enrollment estimate", failures)


def test_c03_negative_weight_counts(replication_primary, replication_secondary):
    failures = []
    primary = weight_report(fit_twfe(replication_primary))
    if (primary.n_treated_negative, primary.n_treated) != (50, 193):
        failures.append(
            f"primary counts {primary.n_treated_negative}/{primary.n_treated} != 50/193"
        )
    _close("share", primary.share_treated_negative, 0.26, 0.005, failures)
    secondary = weight_report(fit_twfe(replication_secondary))
    if (secondary.n_treated_negative, secondary.n_treated) != (36, 138):
        failures.append(
            f"secondary counts {secondary.n_treated_negative}/{secondary.n_treated} != 36/138"
        )
    _verdict("C03", "negative-weight counts, both outcomes", failures)


def test_c04_homogeneity_tables(replication_primary, replication_secondary):
    failures = []
    col1 = homogeneity_test(fit_twfe(replication_primary))
    _close("col1 slope", col1.b_resid_treatment.estimate, 23.76, 0.01, failures)
    _close("col1 group", col1.b_treat_group.estimate, 0.34, 0.01, failures)
    _close("col1 interaction", col1.b_interaction.estimate, -7.81, 0.01, failures)
    _close("col1 slope se", col1.b_resid_treatment.se, 3.97, 0.01, failures)
    _close("col1 group se", col1.b_treat_group.se, 1.51, 0.01, failures)
    _close("col1 interaction se", col1.b_interaction.se, 6.07, 0.01, failures)
    _close("col1 interaction p", col1.b_interaction.p_value, 0.20, 0.01, failures)
    col2 = homogeneity_test(fit_twfe(replication_secondary))
    _close("col2 slope", col2.b_resid_treatment.estimate, -2.90, 0.01, failures)
    _close("col2 group", col2.b_treat_group.estimate, -0.19, 0.01, failures)
    _close("col2 interaction", col2.b_interaction.estimate, 5.25, 0.01, failures)
    _close("col2 interaction p", col2.b_interaction.p_value, 0.01, 0.005, failures)
    _verdict("C04", "homogeneity-test coefficient tables", failures)


def test_c05_weight_grid_facts(replication_primary, replication_secondary):
    failures = []
    schedule = bundled_schedule()

    def negative_cells(dataset):
        grid = weight_grid(fit_twfe(dataset), schedule)
        rows, cols = np.nonzero(grid.status == "treated_negative")
        return [(grid.units[i], grid.periods[j]) for i, j in zip(rows.tolist(), cols.tolist())]

    primary_neg = negative_cells(replication_primary)
    if any(p < 2006 for _, p in primary_neg):
        failures.append("primary has negative treated cells before 2006")
    early = sum(1 for u, _ in primary_neg if u in EARLY_FIVE)
    if (early, len(primary_neg)) != (44, 50):
        failures.append(f"primary early-adopter negatives {early}/{len(primary_neg)} != 44/50")
    secondary_neg = negative_cells(replication_secondary)
    early2 = sum(1 for u, _ in secondary_neg if u in EARLY_FIVE)
    if (early2, len(secondary_neg)) != (33, 36):
        failures.append(f"secondary early-adopter negatives {early2}/{len(secondary_neg)} != 33/36")
    _verdict("C05", "negative-weight location facts", failures)


def test_c06_end_year_negative_share(replication_primary):
    failures = []
    sweep = sweep_end_year(replication_primary, 2005, 2015)
    shares = {p.label: p.share_negative_treated for p in sweep.points}
    _close("share at 2005", shares["2005"], 0.03, 0.01, failures)
    _close("share at 2015", shares["2015"], 0.26, 0.01, failures)
    _verdict("C06", "end-year sweep negative-share trend", failures)


# --- property suite (7-13) ---


def test_c07_fwl_identity_200_panels():
    failures = []
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    for i in range(200):
        _, ds = random_panel(rng, missing=True, noise_sd=2.0)
        fit = fit_twfe(ds)
        beta = dummy_ols_beta(ds)
        err = abs(fit.weights @ ds.outcome[ds.observed] - beta)
        if err > 1e-8 * (1 + abs(beta)):
            failures.append(f"panel {i}: identity error {err}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict("C07", "weighted-sum identity on 200 random panels", failures)


def test_c08_closed_form_100_balanced_panels():
    failures = []
    rng = np.random.default_rng(1008)
    for i in range(100):
        _, ds = random_panel(rng, missing=False, noise_sd=1.0)
        err = np.max(np.abs(
            balanced_residualized_treatment(ds) - fit_twfe(ds).residualized_treatment
        ))
        if err > 1e-10:
            failures.append(f"panel {i}: max error {err}")
    _verdict("C08", "double-demeaning closed form equals regression residuals", failures)


def test_c09_weight_normalization():
    failures = []
    rng = np.random.default_rng(1009)
    for i in range(50):
        _, ds = random_panel(rng, missing=True, noise_sd=1.0)
        fit = fit_twfe(ds)
        w = fit.weights
        d_resid = fit.residualized_treatment
        ssd = float(d_resid @ d_resid)
        if abs(w.sum()) > 1e-10:
            failures.append(f"panel {i}: weight sum {w.sum()}")
        if abs(float(w @ d_resid) * ssd - ssd) > 1e-10:
            failures.append(f"panel {i}: normalization inconsistency")
    _verdict("C09", "weights sum to zero and normalize against residuals", failures)


def test_c10_noiseless_homogeneous_recovery():
    failures = []
    rng = np.random.default_rng(1010)
    for i in range(50):
        delta = float(rng.normal(0, 5))
        spec, ds = random_panel(
            rng, missing=bool(rng.random() < 0.5), effect=EffectModel.constant(delta)
        )
        fit = fit_twfe(ds)
        if abs(fit.beta - delta) > 1e-8:
            failures.append(f"spec {i}: beta {fit.beta} != delta {delta}")
        try:
            homog = homogeneity_test(fit)
            if abs(homog.b_interaction.estimate) > 1e-8:
                failures.append(f"spec {i}: interaction {homog.b_interaction.estimate}")
        except Exception as exc:
            failures.append(f"spec {i}: homogeneity test failed: {exc}")
        sweeps = [
            sweep_end_year(ds, ds.periods[0], ds.periods[-1]),
            sweep_post_horizon(ds, spec.schedule, [0, 1, 2, 100]),
            leave_one_unit_out(ds),
        ]
        for sweep in sweeps:
            for point in sweep.points:
                if abs(point.beta - delta) > 1e-8:
                    failures.append(
                        f"spec {i}: {sweep.kind} point {point.label} beta {point.beta}"
                    )
    _verdict("C10", "noiseless constant-effect recovery incl. all sweeps", failures)


def test_c11_invariance_battery():
    failures = []
    rng = np.random.default_rng(1011)
    for i in range(20):
        _, ds = random_panel(rng, missing=True, noise_sd=1.5)
        beta = fit_twfe(ds).beta

        def refit(transform):
            return fit_twfe(PanelDataset.from_observations(transform)).beta

        target_period = ds.periods[int(rng.integers(len(ds.periods)))]
        shock = refit(
            Observation(o.unit, o.period,
                        None if o.outcome is None else
                        o.outcome + (13.7 if o.period == target_period else 0.0),
                        o.treated)
            for o in ds.observations
        )
        if abs(shock - beta) > 1e-8:
            failures.append(f"panel {i}: period-shock shift moved beta by {shock - beta}")

        target_unit = ds.units[int(rng.integers(len(ds.units)))]
        shift = refit(
            Observation(o.unit, o.period,
                        None if o.outcome is None else
                        o.outcome + (-21.3 if o.unit == target_unit else 0.0),
                        o.treated)
            for o in ds.observations
        )
        if abs(shift - beta) > 1e-8:
            failures.append(f"panel {i}: unit shift moved beta by {shift - beta}")

        order = rng.permutation(len(ds.observations))
        permuted = refit(ds.observations[j] for j in order)
        if abs(permuted - beta) > 1e-10:
            failures.append(f"panel {i}: row permutation moved beta by {permuted - beta}")

        # new names whose sorted order reverses the old first-appearance order
        names = {u: f"q{len(ds.units) - k:03d}" for k, u in enumerate(ds.units)}
        relabelled = refit(
            Observation(names[o.unit], o.period, o.outcome, o.treated) for o in ds.observations
        )
        if abs(relabelled - beta) > 1e-10:
            failures.append(f"panel {i}: unit relabelling moved beta by {relabelled - beta}")

        a, b = 3.25, -11.0
        affine = refit(
            Observation(o.unit, o.period,
                        None if o.outcome is None else a * o.outcome + b,
                        o.treated)
            for o in ds.observations
        )
        if abs(affine - a * beta) > 1e-10 * max(1.0, abs(a * beta)):
            failures.append(f"panel {i}: affine transform broke linearity")
    _verdict("C11", "invariance battery (shocks, shifts, permutation, relabelling, affine)",
             failures)


def test_c12_heterogeneity_bias_fixture(tmp_path):
    failures = []
    doc = json.loads((FIXTURES / "event_time_bias.json").read_text())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc["spec"]), encoding="utf-8")
    spec = spec_from_json(spec_path)
    panel = generate_panel(spec)
    expected = doc["expected"]
    oracle_beta = dummy_ols_beta(panel)
    _close("oracle beta vs fixture", oracle_beta, expected["beta"], 1e-8, failures)
    _close("fit beta vs oracle", fit_twfe(panel).beta, oracle_beta, 1e-8, failures)
    summary = true_effect_summary(spec)
    if summary.minimum != expected["effect_min"] or summary.maximum != expected["effect_max"]:
        failures.append(
            f"effect range ({summary.minimum}, {summary.maximum}) != fixture"
        )
    _close("effect mean", summary.mean, expected["effect_mean"], 1e-12, failures)
    if expected["effect_min"] <= expected["beta"] <= expected["effect_max"]:
        failures.append("fixture beta does not exit the effect range")
    _verdict("C12", "pooled estimate exits the true-effect range", failures)


def test_c13_simulate_determinism(tmp_path):
    failures = []
    fixture = json.loads((FIXTURES / "event_time_bias.json").read_text())["spec"]
    fixture["noise_sd"] = 1.5
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(fixture), encoding="utf-8")
    digests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["simulate", "--spec", str(spec_path), "--seed", "42",
                     "--out", str(out)])
        if code != 0:
            failures.append(f"simulate exit code {code}")
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    if digests[0] != digests[1]:
        failures.append("repeated runs differ byte-for-byte")
    _verdict("C13", "seeded simulation is byte-stable across runs", failures)
