"""Accuracy gate of the plain-Python Student t (twfediag.studentt) against
45-digit mpmath truth: nu from 1 to 1e6, |t| from 1e-8 to 200, levels
0.5 to 0.999.

The truth is tests/fixtures/student_t_truth.json, written by
tests/make_student_t_truth.py from two independent mpmath evaluations of
every point (a hypergeometric series and a quadrature). A point counts
only where the two agree to 1e-20 relative; one test re-evaluates a sample
of rows, so a stale or edited fixture fails.
"""

import json
import math
import sys
from pathlib import Path

import mpmath
import pytest

from twfediag.studentt import two_sided_p, two_sided_quantile

from make_student_t_truth import DPS, NUS, TS, betainc_tail, quad_tail

REL = 1e-13  # below the smallest normal double, an absolute floor of REL times it
AGREE = mpmath.mpf("1e-20")
MAX_DROPPED = 0  # grid points where the two truth evaluations disagree
TRUTH = json.loads(
    (Path(__file__).parent / "fixtures" / "student_t_truth.json").read_text(encoding="utf-8")
)


def _agree(a, b) -> bool:
    return abs(a - b) <= AGREE * abs(a)


def _tails():
    """(nu, t, truth) for every tail point whose evaluations agree, and the
    number that do not."""
    kept, dropped = [], 0
    with mpmath.workdps(DPS):
        for nu, t, series, quad in TRUTH["pvalues"]["rows"]:
            series, quad = mpmath.mpf(series), mpmath.mpf(quad)
            if _agree(series, quad):
                kept.append((nu, float(t), float(series)))
            else:
                dropped += 1
    return kept, dropped


def _quantiles():
    kept, dropped = [], 0
    with mpmath.workdps(DPS):
        for nu, level, quantile, quad_at_quantile in TRUTH["quantiles"]["rows"]:
            if _agree(mpmath.mpf(1.0 - level), mpmath.mpf(quad_at_quantile)):
                kept.append((nu, level, float(mpmath.mpf(quantile))))
            else:
                dropped += 1
    return kept, dropped


def _relative_error(got: float, want: float) -> float:
    return abs(got - want) / max(want, sys.float_info.min)


def test_few_truth_points_dropped():
    (tails, tails_dropped), (quantiles, quantiles_dropped) = _tails(), _quantiles()
    assert len(tails) + tails_dropped == len(TRUTH["pvalues"]["rows"]) > 2000
    assert len(quantiles) + quantiles_dropped == len(TRUTH["quantiles"]["rows"]) > 350
    assert tails_dropped + quantiles_dropped <= MAX_DROPPED


def test_tail_within_1e13_of_truth():
    tails, _ = _tails()
    worst = max((_relative_error(two_sided_p(t, nu), p), nu, t) for nu, t, p in tails)
    assert worst[0] <= REL, worst


def test_quantile_within_1e13_of_truth():
    quantiles, _ = _quantiles()
    worst = max((_relative_error(two_sided_quantile(1.0 - level, nu), q), nu, level)
                for nu, level, q in quantiles)
    assert worst[0] <= REL, worst


def test_tail_far_below_the_smallest_double_is_zero():
    rows = TRUTH["underflow"]["rows"]
    assert rows
    for nu, t, bound in rows:
        assert mpmath.mpf(bound) < mpmath.mpf("1e-330")
        assert two_sided_p(float(t), nu) == 0.0


def test_fixture_reproduces():
    """Every 97th tail row and every 37th quantile row, evaluated again."""
    with mpmath.workdps(DPS):
        for nu, t, series, quad in TRUTH["pvalues"]["rows"][::97]:
            for stored, now in ((series, betainc_tail(float(t), nu)), (quad, quad_tail(float(t), nu))):
                assert abs(mpmath.mpf(stored) - now) <= mpmath.mpf("1e-28") * abs(now), (nu, t)
        for nu, level, quantile, _ in TRUTH["quantiles"]["rows"][::37]:
            tail = betainc_tail(mpmath.mpf(quantile), nu)
            assert _agree(mpmath.mpf(1.0 - level), tail), (nu, level)


@pytest.mark.parametrize("nu", NUS)
def test_tail_is_a_nonincreasing_probability(nu):
    ts = [0.0, *TS, 1e3, 1e8, 1e100, 1e154, 1e200, 1e300, math.inf]
    ps = [two_sided_p(t, nu) for t in ts]
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in ps)
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0 and ps[-1] == 0.0
    assert [two_sided_p(-t, nu) for t in ts] == ps


def test_non_integer_degrees_of_freedom_round_trip():
    for nu in (0.3, 0.5, 1.5, 2.5, 7.25, 40.5):
        for level in (0.5, 0.9, 0.99):
            q = two_sided_quantile(1.0 - level, nu)
            assert two_sided_p(q, nu) == pytest.approx(1.0 - level, rel=1e-13)


def test_nan_statistic_gives_nan():
    assert math.isnan(two_sided_p(math.nan, 5))
