"""Property suite: the columnar panel against row-object oracles.

Panels are drawn with rows in shuffled order, unsorted unit labels,
missing outcomes, an all-missing unit, absent cells, treatment that
switches off and on again, periods at both ends of int64, and down to a
single unit or period. Each is built from Observation rows and read back
from a CSV, and its validation report must equal validate_reference in
oracles.py, which rescans the rows once per unit.
"""

import csv
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twfediag import Observation, load_panel_csv, validate
from twfediag.errors import DuplicateKey

from oracles import first_repeated_key, from_observations, validate_reference

labels = st.text(alphabet="zyXW10ab_", min_size=1, max_size=3)
outcomes = st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False))
INT64_ENDS = (-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1)  # period - adoption needs 64 bits


@st.composite
def rows(draw):
    units = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    period = st.one_of(st.integers(-3, 2030), st.sampled_from(INT64_ENDS))
    periods = draw(st.lists(period, min_size=1, max_size=6, unique=True))
    all_missing = draw(st.one_of(st.none(), st.sampled_from(units)))
    out = []
    for unit in units:
        staggered = draw(st.booleans())
        adoption = draw(st.sampled_from(sorted(periods)))
        for period in periods:
            if draw(st.integers(0, 5)) == 0:
                continue  # an absent cell
            treated = int(period >= adoption) if staggered else int(draw(st.booleans()))
            outcome = None if unit == all_missing else draw(outcomes)
            out.append(Observation(unit, period, outcome, treated))
    return draw(st.permutations(out))


def write_rows(observations, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["unit", "period", "outcome", "treated"])
        for o in observations:
            writer.writerow([o.unit, o.period, "" if o.outcome is None else repr(o.outcome), o.treated])


def load_rows(observations):
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_rows(observations, path)
        return load_panel_csv(path, "unit", "period", "outcome", "treated")
    finally:
        os.unlink(path)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(observations=rows())
def test_validate_matches_reference(observations):
    want = validate_reference(observations)
    for ds in (from_observations(observations), load_rows(observations)):
        assert ds.observations == tuple(observations)
        assert ds.units == tuple(dict.fromkeys(o.unit for o in observations))
        assert ds.periods == tuple(sorted({o.period for o in observations}))
        assert all(type(p) is int for p in ds.periods)
        report = validate(ds).to_dict()
        assert report == want
        json.dumps(report)  # every value a plain Python type
        assert ds.is_balanced() == (want["balance"] == "balanced")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), observations=rows().filter(len))
def test_duplicate_key_matches_reference(data, observations):
    repeats = data.draw(st.lists(st.sampled_from(observations), min_size=1, max_size=4))
    rows_with_repeats = data.draw(st.permutations(
        list(observations) + [Observation(o.unit, o.period, 1.5, 0) for o in repeats]
    ))
    want = first_repeated_key(rows_with_repeats)
    for build in (from_observations, load_rows):
        with pytest.raises(DuplicateKey) as exc:
            build(rows_with_repeats)
        assert (exc.value.unit, exc.value.period) == want
