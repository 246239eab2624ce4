"""Property suite: the TWFE fit against the dense dummy-variable oracles.

Panels are drawn at random sizes, with missing cells, arbitrary or
staggered treatment, and as one block or two disconnected blocks (no
shared unit or period). Every fit is checked against the normal-equations
oracles in oracles.py, which share no code with the library's fit.

Fixed panel families on which the float oracle is itself off by up to
~1e-7 (chains, blocks joined by one cell, disconnected blocks, levels near
1e6) are checked against the exact rational oracle: beta at EXACT_REL, the
residualized treatment and the weights at EXACT_VECTOR_REL, the classical
se**2 at EXACT_REL, dof exactly, and the residualized outcome and the
clustered se**2 at the outcome's scale.

The connected components that set the fixed effects' rank are checked
against a plain union-find: the search itself on symmetric patterns, and
the classical degrees of freedom on sparse panels of either orientation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twfediag import PanelDataset, fit_twfe
from twfediag.errors import CollinearTreatment, DegenerateTreatment
from twfediag.twfe import _component_roots

from conftest import make_panel
from oracles import (
    cluster_sandwich,
    dummy_design,
    dummy_ols_beta,
    exact_dummy_ols_beta,
    exact_residualized,
    exact_variances,
    union_find_roots,
    unit_period_components,
)

REL = 1e-8
# fixed before any fast-path change: on these families the fast path
# measured <= 4.2e-15 and the float oracle up to 8.6e-8
EXACT_REL = 1e-12
# of each vector's largest magnitude, fixed before measuring: the fast path
# measured <= 1.4e-13 (chain60)
EXACT_VECTOR_REL = 1e-12
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

    # each row's fixed-effect part + beta * treatment rebuilds the oracle's fitted values
    sample = [o for o in dataset.observations if o.outcome is not None]
    assert fit.periods == tuple(sorted({o.period for o in sample}))
    effect = fit.outcome - fit.residualized_outcome \
        - fit.beta * (fit.treatment - fit.residualized_treatment)
    rebuilt = effect + fit.beta * np.array([o.treated for o in sample])
    np.testing.assert_allclose(rebuilt, fitted, rtol=0, atol=1e-8 * (1 + np.abs(y).max()))


def _cells(rows) -> PanelDataset:
    unit, period, outcome, treated = zip(*rows)
    return PanelDataset.encode(unit, period, outcome, treated)


def chain(n_units: int, span: int) -> PanelDataset:
    """Unit i seen in periods i to i + span - 1, at a level of 1e3 * i plus
    N(0, 1) noise; every third unit adopts one period after it enters,
    every third two periods after, and the rest never."""
    rng = np.random.default_rng(n_units * 10 + span)
    return _cells(
        (f"u{i}", t, float(rng.normal()) + 1e3 * i,
         int(i % 3 != 2 and t >= i + 1 + i % 3))
        for i in range(n_units) for t in range(i, i + span))


def blocks(joined: bool) -> PanelDataset:
    """Two 6-unit blocks over periods 0-5 and 6-11, sharing no unit or
    period, joined by unit a0's cell in period 6 or not at all."""
    rng = np.random.default_rng(11 + joined)
    rows = [(f"{b}{i}", t, float(rng.normal()) + 50.0 * i, int(i % 3 != 2 and t >= first + 2 + i))
            for b, first in (("a", 0), ("b", 6)) for i in range(6) for t in range(first, first + 6)]
    if joined:
        rows.append(("a0", 6, float(rng.normal()), 1))
    return _cells(rows)


def levels_near_1e6() -> PanelDataset:
    """A 12-unit, 8-period staggered panel at levels of 1e6 + unit with
    N(0, 1) noise and about one cell in ten missing."""
    rng = np.random.default_rng(6)
    return _cells(
        (f"u{i}", t, math.nan if rng.random() < 0.1 else 1e6 + i + float(rng.normal()),
         int(i % 4 != 3 and t >= 2 + i % 4))
        for i in range(12) for t in range(8))


EXACT_FAMILIES = {
    "chain20": lambda: chain(20, 3),
    "chain30": lambda: chain(30, 3),
    "chain40x4": lambda: chain(40, 4),
    "chain60": lambda: chain(60, 3),
    "blocks_joined": lambda: blocks(joined=True),
    "blocks_disconnected": lambda: blocks(joined=False),
    "levels_1e6": levels_near_1e6,
}


@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_fit_matches_exact_oracle(family):
    dataset = EXACT_FAMILIES[family]()
    exact = exact_dummy_ols_beta(dataset)
    assert exact != 0
    for inference in ("cluster_by_unit", "classical"):
        beta = fit_twfe(dataset, inference).beta
        assert abs(Fraction(beta) - exact) <= EXACT_REL * abs(exact), inference


def test_exact_oracle_recovers_an_integer_effect_exactly():
    """Noiseless integer outcomes with a constant effect of 3, over two
    disconnected blocks: the exact coefficient is 3, with no round-off."""
    dataset = blocks(joined=False)
    outcome = [100 * u + 7 * (p % 5) + 3 * d for u, p, d in zip(
        dataset.unit.tolist(), dataset.period.tolist(), dataset.treated.tolist())]
    dataset = PanelDataset(dataset.units, dataset.unit, dataset.period, outcome, dataset.treated)
    assert exact_dummy_ols_beta(dataset) == 3
    assert fit_twfe(dataset).beta == pytest.approx(3, rel=EXACT_REL)


def test_exact_oracle_refuses_a_treatment_the_fixed_effects_absorb():
    """Treatment fixed within each unit is a sum of unit dummies."""
    dataset = _cells((f"u{i}", t, float(i * t), int(i < 2)) for i in range(4) for t in range(3))
    with pytest.raises(ValueError, match="not identified"):
        exact_dummy_ols_beta(dataset)
    with pytest.raises(CollinearTreatment):
        fit_twfe(dataset)


@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_residualized_treatment_and_weights_match_exact_oracle(family):
    dataset = EXACT_FAMILIES[family]()
    exact, _, _ = exact_residualized(dataset)
    ssd = sum(r * r for r in exact)
    fit = fit_twfe(dataset)
    for got, want in ((fit.residualized_treatment, exact), (fit.weights, [r / ssd for r in exact])):
        assert len(got) == len(want)
        error = max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want))
        assert error <= EXACT_VECTOR_REL * max(map(abs, want))


@pytest.mark.parametrize("inference", ["classical", "cluster_by_unit"])
@pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
def test_residualized_outcome_and_variance_match_exact_oracle(family, inference):
    """The residualized outcome, se**2 and dof against the exact oracle.
    The residualized outcome is y less fitted values of y's own size, so
    even correctly rounded fitted values leave an error of about eps *
    max|y|: it is bounded by EXACT_VECTOR_REL of max|y|. The fitted
    effects' errors are orthogonal to the residuals, so the classical
    se**2 is bounded by EXACT_REL relative. A unit's clustered score is not
    orthogonal to the period effects' errors, so clustered se**2 is
    bounded at the outcome's scale: EXACT_REL times max|y| / max|residualized
    outcome|, relative."""
    dataset = EXACT_FAMILIES[family]()
    d, want, _ = exact_residualized(dataset)
    # the oracle's own check: the FWL slope is the full elimination's beta
    assert sum(a * b for a, b in zip(d, want)) / sum(a * a for a in d) == exact_dummy_ols_beta(dataset)
    se2, dof = exact_variances(dataset)[inference]
    fit = fit_twfe(dataset, inference)
    scale = float(np.abs(fit.outcome).max())
    error = max(abs(Fraction(g) - w) for g, w in zip(fit.residualized_outcome.tolist(), want))
    assert error <= EXACT_VECTOR_REL * scale
    assert fit.dof == dof
    rel = EXACT_REL if inference == "classical" else EXACT_REL * scale / max(map(abs, want))
    assert abs(Fraction(fit.se) ** 2 - se2) <= rel * se2


def _pattern(n: int, edges) -> np.ndarray:
    linked = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        linked[i, j] = linked[j, i] = True
    return linked


def _check_roots(n: int, edges, diagonal=()):
    linked = _pattern(n, edges)
    linked[list(diagonal), list(diagonal)] = True  # a self-link joins nothing
    assert _component_roots(linked) == sorted(set(union_find_roots(n, edges)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_component_roots_match_union_find(data, n):
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=2 * n))
    _check_roots(n, edges, data.draw(st.lists(node, max_size=n)))


@pytest.mark.parametrize("permuted", [False, True])
def test_component_roots_on_a_long_path(permuted):
    """3000 nodes, each linked to the next two: one component whose
    diameter is 1500 steps, numbered along the path or at random."""
    n = 3000
    order = np.random.default_rng(3).permutation(n) if permuted else np.arange(n)
    edges = [(int(order[i]), int(order[i + k])) for k in (1, 2) for i in range(n - k)]
    assert _component_roots(_pattern(n, edges)) == [0]
    _check_roots(n, edges)


def test_component_roots_with_isolated_nodes_and_many_components():
    """All-zero rows (a level seen only with one-row levels of the other
    side) are components of their own, among 400 linked pairs."""
    n = 1000
    rng = np.random.default_rng(4)
    order = rng.permutation(n)
    edges = [(int(order[2 * i]), int(order[2 * i + 1])) for i in range(400)]
    roots = _component_roots(_pattern(n, edges))
    assert len(roots) == 400 + 200
    _check_roots(n, edges, diagonal=rng.choice(n, 50, replace=False).tolist())
    assert _component_roots(np.zeros((5, 5), dtype=bool)) == [0, 1, 2, 3, 4]


@st.composite
def sparse_panels(draw):
    """A random set of cells of a grid of up to 8 x 8, either side the
    larger: one-row units and periods, and disconnected blocks, are common."""
    n_units, n_periods = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    size = n_units * n_periods
    present = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return make_panel((f"u{i}", t, draw(outcomes), int(draw(st.booleans())))
                      for i in range(n_units) for t in range(n_periods) if present[i * n_periods + t])


def _union_find_dof(dataset, fit) -> int:
    """N - (U + T - C + 1), C counted by union-find on the sample rows."""
    return fit.n_obs - (len(fit.units) + len(fit.periods) - unit_period_components(dataset) + 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dataset=sparse_panels())
def test_classical_dof_counts_union_find_components(dataset):
    try:
        fit = fit_twfe(dataset, "classical")
    except (DegenerateTreatment, CollinearTreatment):
        return
    assert fit.dof == _union_find_dof(dataset, fit)


def _one_row_units(transposed: bool) -> PanelDataset:
    """A 6 x 4 block, plus one-row units in periods of their own (or, with
    transposed, one-row periods of a unit of their own): those periods (or
    that unit) are isolated from the block."""
    rng = np.random.default_rng(12 + transposed)
    rows = [(f"u{i}", t, float(rng.normal()), int(i % 2 == 0 and t >= 1 + i % 3))
            for i in range(6) for t in range(4)]
    rows += [("lone", 10 + k, float(rng.normal()), k % 2) if transposed
             else (f"s{k}", 10 + k, float(rng.normal()), k % 2) for k in range(5)]
    return _cells(rows)


# the smaller side, solved for, is the units in the chain and in the panel
# with a lone unit, and the periods in the others
@pytest.mark.parametrize("dataset", [
    chain(30, 3),
    _cells((f"u{t}", i, float(i * t % 7), int(t >= i + 1)) for i in range(30) for t in range(i, i + 3)),
    blocks(joined=False),
    blocks(joined=True),
    _one_row_units(transposed=False),
    _one_row_units(transposed=True),
], ids=["chain", "chain_transposed", "blocks_disconnected", "blocks_joined",
        "one_row_units", "one_row_periods"])
def test_classical_dof_on_fixed_panels(dataset):
    fit = fit_twfe(dataset, "classical")
    assert fit.dof == _union_find_dof(dataset, fit)
