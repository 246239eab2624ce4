"""Property suite: every sweep point against a refit of the restricted panel.

A sweep encodes its estimation sample once and fits each point from a row
mask over it. The oracle restricts the panel with PanelDataset.restrict,
which builds a new dataset, and fits that with fit_twfe. The two must
agree bit for bit, on every point of all three sweeps and under both
inference kinds, and skip the same points for the same reason.

Panels come from the TWFE property suite's strategy (missing cells, one
block or two disconnected blocks), with their rows shuffled, so a
restricted sample's units need not appear in the order of their codes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twfediag import (
    PanelDataset,
    fit_twfe,
    leave_one_unit_out,
    schedule_from_data,
    sweep_end_year,
    sweep_post_horizon,
    weight_report,
)
from twfediag.errors import InvalidSweep, NoFeasiblePoint, TwfeDiagError
from twfediag.lsq import t_critical
from twfediag.twfe import EncodedSample, fit_sample

from conftest import make_panel, random_panel
from test_twfe_oracle import panels

HORIZONS = [0, 1, 2, 4]
LEVEL = 0.9


@st.composite
def shuffled_panels(draw):
    dataset = draw(panels())
    order = np.array(draw(st.permutations(range(len(dataset)))), dtype=np.intp)
    return PanelDataset.encode([dataset.units[u] for u in dataset.unit[order].tolist()],
                               dataset.period[order], dataset.outcome[order],
                               dataset.treated[order])


def _rows(block: str, units: int, periods: range, adoption: dict, shift: float):
    return [(f"{block}{i}", t, shift + 0.7 * i + 0.3 * t + ((i * 7 + t * 3) % 5) / 4,
             int(adoption.get(i) is not None and t >= adoption[i]))
            for i in range(units) for t in periods]


# unit h alone links two blocks: dropping it splits the unit-period graph
BRIDGED = make_panel(
    _rows("a", 3, range(1, 5), {0: 2, 1: 3}, 0.0)
    + _rows("b", 3, range(5, 9), {0: 6, 2: 7}, 4.0)
    + _rows("h", 1, range(1, 9), {0: 4}, 2.0)
)
# period 5 is observed for unit x only: dropping x empties it
LONE_PERIOD = make_panel(
    [(u, t, None if t == 5 else y, d) for u, t, y, d in _rows("u", 4, range(1, 6), {0: 3, 1: 4}, 0.0)]
    + _rows("x", 1, range(1, 6), {0: 2}, 1.0)
)


def _masks(kind: str, dataset: PanelDataset):
    """(label, row mask over the dataset) of each point, built row by row
    from the Observation values."""
    rows = dataset.observations
    if kind == "end_year":
        return [(str(end), np.array([o.period <= end for o in rows], dtype=bool))
                for end in range(dataset.periods[0], dataset.periods[-1] + 1)]
    first = schedule_from_data(dataset).entries
    if kind == "post_horizon":
        return [(str(h), np.array([first[o.unit] is None or o.period - first[o.unit] <= h
                                   for o in rows], dtype=bool))
                for h in HORIZONS]
    order = sorted(dataset.units, key=lambda u: (first[u] is None, first[u] or 0, u))
    return [(u, np.array([o.unit != u for o in rows], dtype=bool)) for u in order]


def _sweep(kind: str, dataset: PanelDataset, inference: str):
    if kind == "end_year":
        return sweep_end_year(dataset, dataset.periods[0], dataset.periods[-1], inference, LEVEL)
    if kind == "post_horizon":
        schedule = schedule_from_data(dataset)
        return sweep_post_horizon(dataset, schedule, HORIZONS, inference, LEVEL)
    return leave_one_unit_out(dataset, inference, LEVEL)


def _expected_point(label: str, fit) -> tuple:
    half = t_critical(LEVEL, fit.dof) * fit.se if fit.se > 0 else math.nan
    return (label, fit.beta, fit.beta - half, fit.beta + half,
            weight_report(fit).share_treated_negative, fit.n_obs, fit.n_treated)


def _fields(point) -> tuple:
    return (point.label, point.beta, point.ci_low, point.ci_high,
            point.share_negative_treated, point.n_obs, point.n_treated)


def _same(a: tuple, b: tuple) -> bool:
    return all(x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
               for x, y in zip(a, b, strict=True))


def _assert_same_fit(got, want):
    assert (got.beta, got.se, got.dof, got.n_obs, got.n_treated) == \
        (want.beta, want.se, want.dof, want.n_obs, want.n_treated)
    assert got.units == want.units
    for name in ("unit", "period", "treatment", "outcome", "weights",
                 "residualized_treatment", "residualized_outcome"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def _error(call):
    try:
        call()
    except TwfeDiagError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
@pytest.mark.parametrize("kind", ["end_year", "post_horizon", "leave_one_out"])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dataset=shuffled_panels())
@example(dataset=BRIDGED)
@example(dataset=LONE_PERIOD)
def test_every_point_equals_refit_of_restricted_panel(kind, inference, dataset):
    if kind == "leave_one_out" and len(dataset.units) < 3:
        with pytest.raises(InvalidSweep):
            _sweep(kind, dataset, inference)
        return
    baseline_error = _error(lambda: fit_twfe(dataset, inference))
    if baseline_error is not None:
        assert _error(lambda: _sweep(kind, dataset, inference)) == baseline_error
        return
    sample = EncodedSample(dataset)
    points, skipped = [], []
    for label, keep in _masks(kind, dataset):
        try:
            want = fit_twfe(dataset.restrict(keep), inference)
        except TwfeDiagError as exc:
            skipped.append((label, f"{type(exc).__name__}: {exc}"))
            continue
        _assert_same_fit(fit_sample(sample, keep[dataset.observed], inference), want)
        points.append(_expected_point(label, want))
    if not points:
        with pytest.raises(NoFeasiblePoint):
            _sweep(kind, dataset, inference)
        return
    sweep = _sweep(kind, dataset, inference)
    assert _same(_fields(sweep.baseline), _expected_point("full_sample", fit_twfe(dataset, inference)))
    assert [p.label for p in sweep.points] == [p[0] for p in points]
    for point, want in zip(sweep.points, points):
        assert _same(_fields(point), want), point.label
    assert list(sweep.skipped) == skipped


def test_bridge_and_lone_period_examples_change_the_sample_structure():
    # the examples above reach the cases they are there for
    # classical dof = N - (U + T - C + 1): one component with h0, two without
    bridged = fit_twfe(BRIDGED, "classical")
    split = fit_twfe(BRIDGED.restrict(BRIDGED.unit != BRIDGED.units.index("h0")), "classical")
    assert bridged.dof == 32 - (7 + 8 - 1 + 1)
    assert split.dof == 24 - (6 + 8 - 2 + 1)
    lone = LONE_PERIOD.restrict(LONE_PERIOD.unit != LONE_PERIOD.units.index("x0"))
    assert len(fit_twfe(LONE_PERIOD).period_effects) == 5
    assert len(fit_twfe(lone).period_effects) == 4


def test_sweeps_build_no_dataset(monkeypatch):
    """A sweep point is a mask over one encoded sample: no sweep may call
    restrict or construct a PanelDataset."""
    _, dataset = random_panel(np.random.default_rng(63), missing=True, noise_sd=1.0)
    schedule = schedule_from_data(dataset)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a PanelDataset")

    monkeypatch.setattr(PanelDataset, "restrict", refuse)
    monkeypatch.setattr(PanelDataset, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        PanelDataset(dataset.units, dataset.unit, dataset.period, dataset.outcome, dataset.treated)
    sweeps = (
        sweep_end_year(dataset, dataset.periods[0], dataset.periods[-1]),
        sweep_post_horizon(dataset, schedule, HORIZONS, "classical"),
        leave_one_unit_out(dataset),
    )
    for sweep in sweeps:
        assert sweep.points
