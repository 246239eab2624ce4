"""The outcome's scale and the panel's labels: every output follows them
exactly.

Multiplying the outcome by 2**k (k in [-1000, 1000]) is exact, and so is
every result that follows it: beta, standard errors, residuals,
the homogeneity rows and every sweep point's interval scale by 2**k bit
for bit, and t statistics, p-values and weights stay bit for bit the same.
Any other factor s rounds the outcome once, so se / s and p stay within
1e-12 of the unscaled fit's, with no se of 0 or p-value of nan from a sum
of squares that overflows or underflows.

Shifting every period and adoption period by a constant, up to near the
int64 ends, and renaming the units without changing their order of first
appearance change only the labels: the end years, the periods and the
unit names. Every number stays bit for bit the same.

Shuffling the rows changes the order in which sums are taken, and a
factor of 10**k rounds the outcome once, so there every number stays
within 1e-10 of its untouched value, relative to the largest magnitude of
its output: the fit, the weights matched by (unit, period), the
homogeneity rows, the scatter lines and smoothed curves, and every sweep
point; labels and counts stay the same.
"""

import math

import numpy as np
import pytest

from twfediag import (
    AdoptionSchedule,
    PanelDataset,
    fit_twfe,
    homogeneity_test,
    leave_one_unit_out,
    residual_scatter,
    schedule_from_data,
    sweep_end_year,
    sweep_post_horizon,
)

from conftest import random_panel, sample_keys

INFERENCE = ["classical", "cluster_by_unit"]
EXPONENTS = [-1000, -1, 1, 1000, *np.random.default_rng(2026).integers(-1000, 1001, 6).tolist()]


def _panel(seed: int) -> PanelDataset:
    return random_panel(np.random.default_rng(seed), missing=True, noise_sd=1.0)[1]


def _times(dataset: PanelDataset, factor) -> PanelDataset:
    return PanelDataset(dataset.units, dataset.unit, dataset.period, dataset.outcome * factor,
                        dataset.treated)


def _rows(result):
    return [(r.estimate, r.se, r.t_stat, r.p_value)
            for r in (result.b_resid_treatment, result.b_treat_group, result.b_interaction)]


def _sweeps(dataset, inference, schedule=None) -> dict:
    """Each sweep kind -> its sweep of dataset."""
    schedule = schedule_from_data(dataset) if schedule is None else schedule
    return {
        "end_year": sweep_end_year(dataset, dataset.periods[0], dataset.periods[-1], inference),
        "post_horizon": sweep_post_horizon(dataset, schedule, [0, 1, 3], inference),
        "leave_one_out": leave_one_unit_out(dataset, schedule, inference),
    }


def _same(a, b) -> bool:
    """Equal bit for bit, nan equal to nan."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("seed", range(3))
def test_power_of_two_scales_every_output_exactly(seed, k, inference):
    base = _panel(seed)
    scaled = _times(base, 2.0**k)
    assert _same(scaled.outcome * 2.0**-k, base.outcome)  # the input itself scaled exactly

    def up(x):
        return np.ldexp(x, k)

    fit, fit_k = fit_twfe(base, inference), fit_twfe(scaled, inference)
    assert fit.se > 0
    assert (fit_k.beta, fit_k.se) == (up(fit.beta), up(fit.se))
    assert fit_k.beta / fit_k.se == fit.beta / fit.se
    assert _same(fit_k.p_value, fit.p_value)
    assert _same(fit_k.weights, fit.weights)
    assert _same(fit_k.residualized_treatment, fit.residualized_treatment)
    assert _same(fit_k.residualized_outcome, up(fit.residualized_outcome))

    rows, rows_k = _rows(homogeneity_test(fit)), _rows(homogeneity_test(fit_k))
    for (est, se, t, p), (est_k, se_k, t_k, p_k) in zip(rows, rows_k):
        assert (est_k, se_k) == (up(est), up(se))
        assert _same((t_k, p_k), (t, p))

    scatter, scatter_k = residual_scatter(fit), residual_scatter(fit_k)
    for curve, curve_k in ((scatter.control, scatter_k.control), (scatter.treated, scatter_k.treated)):
        assert (curve_k.slope, curve_k.intercept) == (up(curve.slope), up(curve.intercept))

    for sweep, sweep_k in zip(_sweeps(base, inference).values(),
                              _sweeps(scaled, inference).values()):
        assert sweep_k.skipped == sweep.skipped
        assert len(sweep_k.points) == len(sweep.points)
        for point, point_k in zip(sweep.points, sweep_k.points):
            assert point_k.label == point.label
            assert _same((point_k.beta, point_k.ci_low, point_k.ci_high),
                         up([point.beta, point.ci_low, point.ci_high]))
            assert point_k.share_negative_treated == point.share_negative_treated
            assert (point_k.n_obs, point_k.n_treated) == (point.n_obs, point.n_treated)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("factor", [1e150, 1e160, 1e-160, 1e-300])
@pytest.mark.parametrize("seed", range(3))
def test_any_scale_keeps_standard_errors_and_p_values(seed, factor, inference):
    base = _panel(seed)
    fit, fit_s = fit_twfe(base, inference), fit_twfe(_times(base, factor), inference)
    assert fit.se > 0 and math.isfinite(fit_s.p_value)
    assert _relative(fit_s.se / factor, fit.se) <= 1e-12
    assert _relative(fit_s.p_value, fit.p_value) <= 1e-12
    rows, rows_s = _rows(homogeneity_test(fit)), _rows(homogeneity_test(fit_s))
    for (_, se, _, p), (_, se_s, _, p_s) in zip(rows, rows_s):
        assert se > 0
        assert _relative(se_s / factor, se) <= 1e-12
        assert _relative(p_s, p) <= 1e-12


def _numbers(point) -> tuple:
    return (point.beta, point.ci_low, point.ci_high, point.share_negative_treated,
            point.n_obs, point.n_treated)


def _assert_same_numbers(fit, fit_b):
    assert (fit_b.beta, fit_b.se, fit_b.dof, fit_b.n_obs, fit_b.n_treated) == \
        (fit.beta, fit.se, fit.dof, fit.n_obs, fit.n_treated)
    assert _same(fit_b.p_value, fit.p_value)
    for name in ("weights", "residualized_treatment", "residualized_outcome", "treatment",
                 "outcome", "unit"):
        assert _same(getattr(fit_b, name), getattr(fit, name)), name


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("shift", [-2**62, -1, 1, 2**62, 2**63 - 1 - 10])  # the last: up to 2**63-1
@pytest.mark.parametrize("seed", range(3))
def test_period_shift_moves_only_the_labels(seed, shift, inference):
    base = _panel(seed)
    moved = PanelDataset(base.units, base.unit, base.period + shift, base.outcome, base.treated)
    schedule = schedule_from_data(base)
    moved_schedule = AdoptionSchedule(
        {u: None if a is None else a + shift for u, a in schedule.entries.items()})
    assert moved_schedule == schedule_from_data(moved)

    fit, fit_c = fit_twfe(base, inference), fit_twfe(moved, inference)
    _assert_same_numbers(fit, fit_c)
    assert fit_c.units == fit.units
    assert fit_c.periods == tuple(p + shift for p in fit.periods)
    assert _same(fit_c.period, fit.period + shift)

    sweeps = _sweeps(base, inference, schedule)
    sweeps_c = _sweeps(moved, inference, moved_schedule)
    for kind, sweep in sweeps.items():
        sweep_c = sweeps_c[kind]

        def label(text):  # an end year moves with the periods
            return str(int(text) + shift) if kind == "end_year" else text
        assert sweep_c.skipped == tuple((label(lb), why) for lb, why in sweep.skipped)
        assert [p.label for p in sweep_c.points] == [label(p.label) for p in sweep.points]
        for point, point_c in zip(sweep.points, sweep_c.points):
            assert _same(_numbers(point_c), _numbers(point)), point.label


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("seed", range(3))
def test_renaming_units_in_order_moves_only_the_labels(seed, inference):
    base = _panel(seed)
    # the new names sort in reverse, so the jackknife's order among units
    # that adopt together changes
    name = {u: f"Z{len(base.units) - i:02d},é" for i, u in enumerate(base.units)}
    renamed = PanelDataset(tuple(name[u] for u in base.units), base.unit, base.period,
                           base.outcome, base.treated)
    schedule = schedule_from_data(base)
    renamed_schedule = AdoptionSchedule({name[u]: a for u, a in schedule.entries.items()})

    fit, fit_r = fit_twfe(base, inference), fit_twfe(renamed, inference)
    _assert_same_numbers(fit, fit_r)
    assert fit_r.units == tuple(name[u] for u in fit.units)
    assert (fit_r.periods, fit_r.period.tolist()) == (fit.periods, fit.period.tolist())

    sweeps_r = _sweeps(renamed, inference, renamed_schedule)
    for kind, sweep in _sweeps(base, inference, schedule).items():
        sweep_r = sweeps_r[kind]

        def label(text):
            return name[text] if kind == "leave_one_out" else text
        assert dict(sweep_r.skipped) == {label(lb): why for lb, why in sweep.skipped}
        points = {label(p.label): _numbers(p) for p in sweep.points}
        assert sorted(p.label for p in sweep_r.points) == sorted(points)
        for point_r in sweep_r.points:
            assert _same(_numbers(point_r), points[point_r.label]), point_r.label


TOL = 1e-10  # relative to the largest magnitude of each output


def _outputs(dataset, inference) -> tuple[dict, list]:
    """(numbers, exact): each output's values and whether they scale with
    the outcome; and the labels and counts, which must not move. The
    weights are in (unit label, period) order."""
    fit = fit_twfe(dataset, inference)
    keys = sample_keys(fit)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    numbers = {"beta": (fit.beta, True), "se": (fit.se, True), "p": (fit.p_value, False),
               "weights": (fit.weights[order], False)}
    exact = [fit.n_obs, fit.n_treated, fit.dof, sorted(keys)]
    homog = homogeneity_test(fit)
    for i, (field, scales) in enumerate((("estimate", True), ("se", True), ("t", False),
                                         ("p", False))):
        numbers[f"homogeneity {field}"] = ([row[i] for row in _rows(homog)], scales)
    scatter = residual_scatter(fit)
    for group, curve in (("control", scatter.control), ("treated", scatter.treated)):
        smoothed = np.reshape(curve.smoothed, (-1, 2))
        numbers[f"{group} line"] = ((curve.slope, curve.intercept), True)
        numbers[f"{group} smoothed x"] = (smoothed[:, 0], False)
        numbers[f"{group} smoothed y"] = (smoothed[:, 1], True)
    for kind, sweep in _sweeps(dataset, inference).items():
        points = sweep.points
        numbers[f"{kind} beta"] = ([p.beta for p in points], True)
        numbers[f"{kind} interval"] = ([[p.ci_low, p.ci_high] for p in points], True)
        numbers[f"{kind} share"] = ([p.share_negative_treated for p in points], False)
        exact.append([(p.label, p.n_obs, p.n_treated) for p in points])
        exact.append(sweep.skipped)
    return numbers, exact


def _assert_close(base, other, factor=1.0):
    """other's outputs, those that scale with the outcome divided by factor,
    equal base's within TOL of each output's largest magnitude."""
    numbers, exact = base
    numbers_o, exact_o = other
    assert exact_o == exact
    assert numbers_o.keys() == numbers.keys()
    for name, (values, scales) in numbers.items():
        a = np.asarray(values, dtype=float)
        b = np.asarray(numbers_o[name][0], dtype=float) / (factor if scales else 1.0)
        assert b.shape == a.shape and _same(np.isnan(b), np.isnan(a)), name
        deviation = np.abs(b - a)[~np.isnan(a)].max(initial=0.0)
        assert deviation <= TOL * np.abs(a[~np.isnan(a)]).max(initial=0.0), (name, deviation)


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("seed", range(40))
def test_row_order_moves_no_output(seed, inference):
    base = _panel(seed)
    rows = np.random.default_rng(seed).permutation(len(base))
    shuffled = PanelDataset.encode([base.units[c] for c in base.unit[rows].tolist()],
                                   base.period[rows], base.outcome[rows], base.treated[rows])
    _assert_close(_outputs(base, inference), _outputs(shuffled, inference))


@pytest.mark.parametrize("inference", INFERENCE)
@pytest.mark.parametrize("factor", [10.0, 1e-3, 1e150, 1e-300])
@pytest.mark.parametrize("seed", range(20))
def test_decimal_scale_moves_no_output(seed, factor, inference):
    base = _panel(seed)
    _assert_close(_outputs(base, inference), _outputs(_times(base, factor), inference), factor)
