import numpy as np
import pytest
from scipy import stats

from twfediag.lsq import (
    DesignMatrix,
    classical_covariance,
    cluster_robust_covariance,
    solve_least_squares,
    t_critical,
    t_test,
)
from twfediag.errors import (
    DimensionMismatch,
    EmptyDesign,
    NonpositiveSE,
    TooFewClusters,
)

from oracles import hc_sandwich, normal_equations_ols, t_pvalue_quadrature


def design(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(values.shape[1]))
    return DesignMatrix(values, tuple(labels))


def random_design(rng, n=10, k=3):
    return design(rng.normal(size=(n, k)))


class TestSolve:
    def test_identity_design(self):
        fit = solve_least_squares(design(np.eye(3)), np.array([1.0, 2.0, 3.0]))
        assert fit.coefficients == pytest.approx([1, 2, 3])
        assert fit.residuals == pytest.approx([0, 0, 0])
        assert fit.rank == 3

    def test_two_point_line(self):
        fit = solve_least_squares(design([[1, 0], [1, 1]]), np.array([0.0, 2.0]))
        assert fit.coefficients == pytest.approx([0.0, 2.0])

    def test_against_normal_equations(self):
        rng = np.random.default_rng(0)
        X = random_design(rng)
        y = rng.normal(size=10)
        fit = solve_least_squares(X, y)
        expected = normal_equations_ols(X.values, y)
        assert fit.coefficients == pytest.approx(expected, abs=1e-8)

    def test_fitted_plus_residuals_is_outcome(self):
        rng = np.random.default_rng(1)
        X = random_design(rng)
        y = rng.normal(size=10)
        fit = solve_least_squares(X, y)
        np.testing.assert_array_equal(fit.fitted + fit.residuals, y)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = random_design(rng, n=50, k=6)
        y = rng.normal(size=50)
        fit = solve_least_squares(X, y)
        for k in range(6):
            col = X.values[:, k]
            rel = abs(col @ fit.residuals) / (
                np.linalg.norm(col) * np.linalg.norm(fit.residuals) + 1e-300
            )
            assert rel < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        X = random_design(rng)
        y = rng.normal(size=10)
        base = solve_least_squares(X, y)
        scaled = solve_least_squares(X, 7.0 * y)
        assert scaled.coefficients == pytest.approx(7.0 * base.coefficients, rel=1e-12)
        assert scaled.residuals == pytest.approx(7.0 * base.residuals, rel=1e-12)

    def test_rank_deficiency_drops_later_column(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        X = design(np.column_stack([a, b, a + b]), ("a", "b", "sum"))
        y = rng.normal(size=10)
        fit = solve_least_squares(X, y)
        assert fit.dropped == (2,)
        assert fit.kept == (0, 1)
        assert fit.coefficients[2] == 0.0
        assert fit.rank == 2
        assert fit.dof_residual == 8

    def test_empty_design(self):
        with pytest.raises(EmptyDesign):
            solve_least_squares(design(np.zeros((3, 0))), np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_least_squares(design(np.eye(3)), np.zeros(4))


class TestClassicalCovariance:
    def test_zero_residuals_zero_matrix(self):
        X = design([[1, 0], [1, 1], [1, 2]])
        fit = solve_least_squares(X, np.array([0.0, 2.0, 4.0]))
        cov = classical_covariance(fit, X)
        assert np.allclose(cov.matrix, 0.0)
        assert cov.standard_errors() == pytest.approx([0.0, 0.0])

    def test_against_direct_formula(self):
        rng = np.random.default_rng(5)
        X = random_design(rng)
        y = rng.normal(size=10)
        fit = solve_least_squares(X, y)
        cov = classical_covariance(fit, X)
        sigma2 = fit.rss / fit.dof_residual
        expected = sigma2 * np.linalg.inv(X.values.T @ X.values)
        assert cov.matrix == pytest.approx(expected, abs=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(6)
        X = random_design(rng, n=30, k=4)
        y = rng.normal(size=30)
        fit = solve_least_squares(X, y)
        cov = classical_covariance(fit, X).matrix
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov)


class TestClusterRobustCovariance:
    def test_singleton_clusters_equal_hc(self):
        rng = np.random.default_rng(7)
        n, k = 24, 3
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        fit = solve_least_squares(X, y)
        cov = cluster_robust_covariance(fit, X, np.arange(n))
        # G = N makes the finite-sample factor collapse to N/(N-K)
        expected = hc_sandwich(X.values, fit.residuals, n / (n - k))
        assert cov.matrix == pytest.approx(expected, abs=1e-10)
        assert cov.clusters == n

    def test_small_sample_factor(self):
        rng = np.random.default_rng(8)
        n, k = 20, 2
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        fit = solve_least_squares(X, y)
        clusters = np.repeat(np.arange(5), 4)
        cov = cluster_robust_covariance(fit, X, clusters)
        G = 5
        assert cov.small_sample_factor == pytest.approx((G / (G - 1)) * ((n - 1) / (n - k)))

    def test_too_few_clusters(self):
        rng = np.random.default_rng(9)
        X = random_design(rng)
        fit = solve_least_squares(X, rng.normal(size=10))
        with pytest.raises(TooFewClusters):
            cluster_robust_covariance(fit, X, np.zeros(10))

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(10)
        n = 40
        X = random_design(rng, n=n, k=4)
        y = rng.normal(size=n)
        fit = solve_least_squares(X, y)
        cov = cluster_robust_covariance(fit, X, np.repeat(np.arange(8), 5)).matrix
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov)


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
        with pytest.raises(NonpositiveSE):
            t_test(1.0, 0.0, 10)

    def test_critical_value_matches_test_boundary(self):
        crit = t_critical(0.95, 14)
        _, p = t_test(crit, 1.0, 14)
        assert p == pytest.approx(0.05, abs=1e-10)

    @pytest.mark.parametrize("dof", [1, 2, 14, 299, 9800])
    @pytest.mark.parametrize("t", [0.3, 2.2405, 7.0, 40.0])
    def test_pvalue_equals_scipy_stats(self, t, dof):
        _, p = t_test(t, 1.0, dof)
        assert p == 2.0 * stats.t.sf(t, dof)

    @pytest.mark.parametrize("dof", [1, 2, 14, 299, 9800])
    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_critical_value_equals_scipy_stats(self, level, dof):
        assert t_critical(level, dof) == stats.t.ppf(0.5 + level / 2.0, dof)

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
