import numpy as np
import pytest
from scipy import stats

from twfediag.lsq import (
    classical_vcov,
    cluster_vcov,
    qr_lstsq,
    t_critical,
    t_test,
)
from twfediag.errors import NonpositiveSE, SingularDesign

from oracles import (
    cluster_score_sandwich,
    hc_sandwich,
    normal_equations_ols,
    t_pvalue_quadrature,
)


def random_design(rng, n=10, k=3):
    return rng.normal(size=(n, k))


def standard_errors(cov):
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


class TestSolve:
    def test_identity_design(self):
        beta, resid, R = qr_lstsq(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert beta == pytest.approx([1, 2, 3])
        assert resid == pytest.approx([0, 0, 0])
        assert R.shape == (3, 3)

    def test_two_point_line(self):
        beta, _, _ = qr_lstsq(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 2.0]))
        assert beta == pytest.approx([0.0, 2.0])

    def test_against_normal_equations(self):
        rng = np.random.default_rng(0)
        X = random_design(rng)
        y = rng.normal(size=10)
        beta, _, _ = qr_lstsq(X, y)
        expected = normal_equations_ols(X, y)
        assert beta == pytest.approx(expected, abs=1e-8)

    def test_residuals_match_normal_equations(self):
        rng = np.random.default_rng(1)
        X = random_design(rng)
        y = rng.normal(size=10)
        _, resid, _ = qr_lstsq(X, y)
        expected = y - X @ normal_equations_ols(X, y)
        assert resid == pytest.approx(expected, abs=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = random_design(rng, n=50, k=6)
        y = rng.normal(size=50)
        _, resid, _ = qr_lstsq(X, y)
        for k in range(6):
            col = X[:, k]
            rel = abs(col @ resid) / (np.linalg.norm(col) * np.linalg.norm(resid) + 1e-300)
            assert rel < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        X = random_design(rng)
        y = rng.normal(size=10)
        base, base_resid, _ = qr_lstsq(X, y)
        scaled, scaled_resid, _ = qr_lstsq(X, 7.0 * y)
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)
        assert scaled_resid == pytest.approx(7.0 * base_resid, rel=1e-12)

    def test_rank_deficiency_raises_singular_design(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        X = np.column_stack([a, b, a + b])
        with pytest.raises(SingularDesign):
            qr_lstsq(X, rng.normal(size=10))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qr_lstsq(np.eye(3), np.zeros(4))


class TestClassicalCovariance:
    def test_zero_residuals_zero_matrix(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        _, resid, R = qr_lstsq(X, np.array([0.0, 2.0, 4.0]))
        cov, _ = classical_vcov(R, resid)
        assert np.allclose(cov, 0.0)
        assert standard_errors(cov) == pytest.approx([0.0, 0.0])

    def test_against_direct_formula(self):
        rng = np.random.default_rng(5)
        X = random_design(rng)
        y = rng.normal(size=10)
        _, resid, R = qr_lstsq(X, y)
        cov, per_rss = classical_vcov(R, resid)
        sigma2 = (resid @ resid) / (10 - 3)
        expected = sigma2 * np.linalg.inv(X.T @ X)
        assert cov == pytest.approx(expected, abs=1e-10)
        # the diagonal per unit of RSS: equality, classically
        assert (resid @ resid) * per_rss == pytest.approx(np.diag(expected), rel=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(6)
        X = random_design(rng, n=30, k=4)
        y = rng.normal(size=30)
        _, resid, R = qr_lstsq(X, y)
        cov, _ = classical_vcov(R, resid)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov)

    def test_no_residual_degrees_of_freedom(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        _, resid, R = qr_lstsq(X, np.array([0.0, 2.0]))
        with pytest.raises(SingularDesign):
            classical_vcov(R, resid)


class TestClusterRobustCovariance:
    def test_singleton_clusters_equal_hc(self):
        rng = np.random.default_rng(7)
        n, k = 24, 3
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        _, resid, R = qr_lstsq(X, y)
        cov, _, clusters = cluster_vcov(X, R, resid, np.arange(n))
        # G = N makes the finite-sample factor collapse to N/(N-K)
        expected = hc_sandwich(X, resid, n / (n - k))
        assert cov == pytest.approx(expected, abs=1e-10)
        assert clusters == n

    def test_small_sample_factor(self):
        rng = np.random.default_rng(8)
        n, k = 20, 2
        X = random_design(rng, n=n, k=k)
        y = rng.normal(size=n)
        _, resid, R = qr_lstsq(X, y)
        # clusters interleaved and numbered out of order: the sort must group them
        codes = np.array([3, 0, 4, 1, 2] * 4)
        cov, per_rss, G = cluster_vcov(X, R, resid, codes)
        assert G == 5
        c = (G / (G - 1)) * ((n - 1) / (n - k))
        expected = cluster_score_sandwich(X, resid, codes.tolist(), c)
        assert cov == pytest.approx(expected, abs=1e-10)
        # the diagonal's bound per unit of RSS is c * diag((X'X)^-1)
        assert per_rss == pytest.approx(c * np.diag(np.linalg.inv(X.T @ X)), rel=1e-10)
        assert np.all(np.diag(cov) <= (resid @ resid) * per_rss)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(10)
        n = 40
        X = random_design(rng, n=n, k=4)
        y = rng.normal(size=n)
        _, resid, R = qr_lstsq(X, y)
        cov, _, _ = cluster_vcov(X, R, resid, np.repeat(np.arange(8), 5))
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
