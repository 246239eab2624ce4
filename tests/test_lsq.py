import math
import sys

import numpy as np
import pytest
from scipy import stats

from twfediag.lsq import (
    scale_exponent,
    standard_errors,
    t_critical,
    t_interval,
    t_test,
)

from oracles import (
    cluster_score_sandwich,
    hc_sandwich,
    normal_equations_inverse,
    normal_equations_ols,
    t_pvalue_quadrature,
)


SCIPY_REL = 1e-13
SCIPY_ABS = SCIPY_REL * sys.float_info.min


def random_design(rng, n=10, k=3):
    return rng.normal(size=(n, k))


def fitted_errors(X, y, inference="classical", clusters=None):
    """(standard errors, dof, residuals) of the OLS of y on X, K = X's
    columns, fitted by the normal equations."""
    resid = y - X @ normal_equations_ols(X, y)
    se, dof = standard_errors(X, resid, normal_equations_inverse(X), X.shape[1], float(y @ y),
                              inference, clusters)
    return se, dof, resid


class TestScaleExponent:
    def test_brings_the_largest_magnitude_into_half_to_one(self):
        rng = np.random.default_rng(12)
        for exponent in (-1070, -1000, -3, 0, 1, 52, 1000, 1020):
            y = rng.normal(size=20) * 2.0**exponent
            top = np.abs(np.ldexp(y, -scale_exponent(y))).max()
            assert 0.5 <= top < 1.0, exponent
        assert scale_exponent(np.zeros(3)) == 0
        assert scale_exponent(np.array([-1.0, 0.5])) == 1


class TestClassicalCovariance:
    def test_zero_residuals_zero_errors(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        se, dof, _ = fitted_errors(X, np.array([0.0, 2.0, 4.0]))
        assert list(se) == [0.0, 0.0]
        assert dof == 1

    def test_against_direct_formula(self):
        rng = np.random.default_rng(5)
        X = random_design(rng)
        y = rng.normal(size=10)
        se, dof, resid = fitted_errors(X, y)
        sigma2 = (resid @ resid) / (10 - 3)
        expected = sigma2 * np.linalg.inv(X.T @ X)
        assert se**2 == pytest.approx(np.diag(expected), abs=1e-10)
        assert dof == 10 - 3

    def test_partialled_out_parameters_count_in_k(self):
        # a Frisch-Waugh-Lovell design: one column, K parameters in all
        rng = np.random.default_rng(9)
        x, e = rng.normal(size=12), rng.normal(size=12)
        se, dof = standard_errors(x[:, None], e, np.array([[1 / (x @ x)]]), 5, 1.0,
                                  "classical", None)
        assert dof == 12 - 5
        assert se[0] == pytest.approx(np.sqrt((e @ e) / (12 - 5) / (x @ x)), rel=1e-14)

    def test_no_residual_degrees_of_freedom(self):
        # N == K: the fit is exact and every standard error is 0
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        se, dof, _ = fitted_errors(X, np.array([0.0, 2.0]))
        assert list(se) == [0.0, 0.0]
        assert dof == 0

    def test_roundoff_residuals_flag_every_coefficient(self):
        rng = np.random.default_rng(11)
        X = random_design(rng, n=30, k=3)
        y = rng.normal(size=30)
        tiny = (y - X @ normal_equations_ols(X, y)) * 1e-12  # RSS 1e-24 of the outcome's scale 1
        bread = normal_equations_inverse(X)
        se, _ = standard_errors(X, tiny, bread, 3, 1.0, "classical", None)
        assert list(se) == [0.0, 0.0, 0.0]
        se, _ = standard_errors(X, tiny, bread, 3, 1e-6, "classical", None)
        assert np.all(se > 0)

    def test_unknown_inference_kind(self):
        X = np.eye(3)
        with pytest.raises(ValueError, match="unknown inference kind"):
            standard_errors(X, np.zeros(3), np.eye(3), 2, 1.0, "robust", None)


class TestClusterRobustCovariance:
    def test_singleton_clusters_equal_hc(self):
        rng = np.random.default_rng(7)
        n, k = 24, 3
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        se, dof, resid = fitted_errors(X, y, "cluster_by_unit", np.arange(n))
        # G = N makes the finite-sample factor collapse to N/(N-K)
        expected = hc_sandwich(X, resid, n / (n - k))
        assert se**2 == pytest.approx(np.diag(expected), abs=1e-10)
        assert dof == n - 1

    def test_small_sample_factor(self):
        rng = np.random.default_rng(8)
        n, k = 20, 2
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        # clusters interleaved and numbered out of order
        codes = np.array([3, 0, 4, 1, 2] * 4)
        se, dof, resid = fitted_errors(X, y, "cluster_by_unit", codes)
        assert dof == 5 - 1
        c = (5 / (5 - 1)) * ((n - 1) / (n - k))
        expected = cluster_score_sandwich(X, resid, codes.tolist(), c)
        assert se**2 == pytest.approx(np.diag(expected), abs=1e-10)
        # Cauchy-Schwarz: each variance is at most c * RSS * diag((X'X)^-1)
        assert np.all(se**2 <= c * (resid @ resid) * np.diag(np.linalg.inv(X.T @ X)))

    def test_cancelling_scores_flag_one_coefficient(self):
        # each cluster's residuals sum to 0, so the intercept's scores vanish
        # while the RSS and the slope's scores do not; the centred slope
        # makes (X'X)^-1 diagonal, so no other score enters its variance
        X = np.column_stack([np.ones(6), np.arange(6.0) - 2.5])
        resid = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        se, dof = standard_errors(X, resid, np.linalg.inv(X.T @ X), 2, 1.0, "cluster_by_unit",
                                  np.array([0, 0, 1, 1, 2, 2]))
        assert se[0] == 0.0 and se[1] > 0.0
        assert dof == 2


class TestTTest:
    def test_headline_pvalue_shape(self):
        # 20.43 / 9.12 with 14 degrees of freedom sits just under 0.05
        t, p = t_test(20.43, 9.12, 14)
        assert t == pytest.approx(20.43 / 9.12)
        assert p == pytest.approx(0.04, abs=0.005)

    def test_zero_coefficient(self):
        _, p = t_test(0.0, 1.0, 10)
        assert p == 1.0

    def test_against_quadrature(self):
        _, p = t_test(2.2405, 1.0, 14)
        assert p == pytest.approx(t_pvalue_quadrature(2.2405, 14), abs=1e-6)

    def test_nonpositive_se(self):
        # se 0 means no inference, checked before dof: an exact N == K fit has dof 0
        for dof in (10, 0):
            t, p = t_test(1.0, 0.0, dof)
            assert math.isnan(t) and math.isnan(p)
        with pytest.raises(ValueError, match="non-negative"):
            t_test(1.0, -1e-300, 10)

    def test_critical_value_matches_test_boundary(self):
        crit = t_critical(0.95, 14)
        _, p = t_test(crit, 1.0, 14)
        assert p == pytest.approx(0.05, abs=1e-10)

    # scipy agrees to SCIPY_REL, not to the last bit: the t distribution is
    # computed without it, and test_studentt.py checks both against
    # 45-digit truth. At t = 40, dof = 9800 both are below the smallest
    # normal double, where the floor is absolute.
    @pytest.mark.parametrize("dof", [1, 2, 14, 299, 9800])
    @pytest.mark.parametrize("t", [0.3, 2.2405, 7.0, 40.0])
    def test_pvalue_equals_scipy_stats(self, t, dof):
        _, p = t_test(t, 1.0, dof)
        assert p == pytest.approx(2.0 * stats.t.sf(t, dof), rel=SCIPY_REL, abs=SCIPY_ABS)

    @pytest.mark.parametrize("dof", [1, 2, 14, 299, 9800])
    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_critical_value_equals_scipy_stats(self, level, dof):
        assert t_critical(level, dof) == pytest.approx(
            stats.t.ppf(0.5 + level / 2.0, dof), rel=SCIPY_REL
        )

    def test_large_dof_against_quadrature(self):
        _, p = t_test(2.2405, 1.0, 9800)
        assert p == pytest.approx(t_pvalue_quadrature(2.2405, 9800), abs=1e-6)

    @pytest.mark.parametrize(
        "level, dof",
        [(0.95, 0), (0.95, -2), (0.0, 14), (1.0, 14), (1.5, 14), (float("nan"), 14)],
    )
    def test_critical_value_rejects_invalid_arguments(self, level, dof):
        with pytest.raises(ValueError):
            t_critical(level, dof)


class TestTInterval:
    @pytest.mark.parametrize("dof", [10, 0])
    def test_zero_se_gives_nan(self, dof):
        low, high = t_interval(1.5, 0.0, dof, 0.95)
        assert math.isnan(low) and math.isnan(high)

    @pytest.mark.parametrize("dof", [1, 14, 299])
    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_bit_identical_to_critical_value_times_se(self, level, dof):
        beta, se = 20.43, 9.12
        half = t_critical(level, dof) * se
        assert t_interval(beta, se, dof, level) == (beta - half, beta + half)

    @pytest.mark.parametrize("se", [0.0, 1.0])
    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_invalid_level_raises_at_any_se(self, level, se):
        with pytest.raises(ValueError, match="confidence level"):
            t_interval(1.0, se, 10, level)

    def test_negative_se(self):
        with pytest.raises(ValueError, match="non-negative"):
            t_interval(1.0, -1.0, 10, 0.95)
