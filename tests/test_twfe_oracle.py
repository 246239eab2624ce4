"""Property suite: the TWFE fit against the dense dummy-variable oracles.

Panels are drawn at random sizes, with missing cells, arbitrary or
staggered treatment, and as one block or two disconnected blocks (no
shared unit or period). Every fit is checked against the normal-equations
oracles in oracles.py, which share no code with the library's fit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twfediag import fit_twfe
from twfediag.errors import CollinearTreatment, DegenerateTreatment

from conftest import make_panel
from oracles import cluster_sandwich, dummy_design, dummy_ols_beta

REL = 1e-8
# Round-off floors, relative to _scale and to its square. They matter only
# where beta or the variance is itself round-off: the oracle's sandwich
# element cancels terms of the whole covariance, so its variance is good
# only to ~1e-13 of the squared scale.
BETA_FLOOR = 1e-10
VARIANCE_FLOOR = 1e-12

outcomes = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def block(draw, first_period: int, min_units: int):
    """Rows of one block: its own units, periods from first_period on."""
    n_units = draw(st.integers(min_units, 6))
    n_periods = draw(st.integers(2, 6))
    periods = range(first_period, first_period + n_periods)
    staggered = draw(st.booleans())
    rows = []
    for i in range(n_units):
        adoption = draw(st.one_of(st.none(), st.sampled_from(periods)))
        for t in periods:
            if staggered:
                treated = int(adoption is not None and t >= adoption)
            else:
                treated = int(draw(st.booleans()))
            missing = draw(st.integers(0, 9)) == 0
            rows.append((i, t, None if missing else draw(outcomes), treated))
    return rows, first_period + n_periods


@st.composite
def panels(draw):
    n_blocks = draw(st.integers(1, 2))
    rows, next_period = [], 1
    for b in range(n_blocks):
        block_rows, next_period = draw(block(next_period, min_units=3 - n_blocks))
        rows += [(f"b{b}u{i}", t, y, d) for i, t, y, d in block_rows]
    return make_panel(rows)


def _check_refusal(dataset, exc):
    """A refused fit must be one the oracle cannot identify either."""
    sample = [o for o in dataset.observations if o.outcome is not None]
    n_units = len({o.unit for o in sample})
    n_periods = len({o.period for o in sample})
    if isinstance(exc, DegenerateTreatment):
        treated = {o.treated for o in sample}
        assert min(n_units, n_periods) < 2 or len(treated) == 1
    else:
        X, _ = dummy_design(dataset)
        assert np.linalg.matrix_rank(X) == np.linalg.matrix_rank(X[:, :-1])


def _scale(X, y):
    """||y|| / sqrt(ssd): the largest |beta| the outcome allows."""
    d = X[:, -1]
    d_resid = d - X[:, :-1] @ np.linalg.lstsq(X[:, :-1], d, rcond=None)[0]
    return float(np.linalg.norm(y)) / math.sqrt(float(d_resid @ d_resid))


@pytest.mark.parametrize("inference", ["cluster_by_unit", "classical"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dataset=panels())
def test_fit_matches_dummy_oracles(inference, dataset):
    try:
        fit = fit_twfe(dataset, inference)
    except (DegenerateTreatment, CollinearTreatment) as exc:
        _check_refusal(dataset, exc)
        return
    X, y = dummy_design(dataset)
    scale = _scale(X, y)

    beta = dummy_ols_beta(dataset)
    assert abs(fit.beta - beta) <= REL * abs(beta) + BETA_FLOOR * scale

    se, dof, fitted = cluster_sandwich(dataset, inference)
    assert fit.dof == dof
    assert abs(fit.se**2 - se**2) <= 2 * REL * se**2 + VARIANCE_FLOOR * scale**2
    if fit.se == 0.0:
        assert math.isnan(fit.p_value)
    else:
        assert 0.0 <= fit.p_value <= 1.0

    # the reported effects rebuild the oracle's fitted values
    sample = [o for o in dataset.observations if o.outcome is not None]
    first_period = min(o.period for o in sample)
    assert fit.period_effects[first_period] == 0.0
    rebuilt = np.array([
        fit.unit_effects[o.unit] + fit.period_effects[o.period] + fit.beta * o.treated
        for o in sample
    ])
    np.testing.assert_allclose(rebuilt, fitted, rtol=0, atol=1e-8 * (1 + np.abs(y).max()))
