"""The moment-matrix arithmetic of `metrics`: the Cholesky factor of
Q = Z'Z, log det Q, trace(Q^{-1}) and the covariance behind the
generalized variance."""

import math

import numpy as np
import pytest

from subdopt import metrics


def moment(x, sel):
    z = metrics.augment(np.asarray(x, dtype=float)[sel])
    return z.T @ z


FACTORIAL = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)


class TestBuildMoment:
    def test_symmetric_pm1_pair(self):
        x = np.array([[1.0], [-1.0]])
        chol, log_det = metrics.factor_moment(moment(x, [0, 1]))
        np.testing.assert_allclose(chol, math.sqrt(2.0) * np.eye(2))
        assert log_det == pytest.approx(math.log(4.0))
        assert metrics.efficiency(x, [0, 1]).log_det_q == log_det

    def test_rank_deficient_raises(self):
        x = np.array([[0.0]])
        with pytest.raises(metrics.SingularMomentError):
            metrics.efficiency(x, [0])

    def test_full_factorial(self):
        chol, log_det = metrics.factor_moment(moment(FACTORIAL, range(4)))
        np.testing.assert_allclose(chol, 2.0 * np.eye(3), atol=1e-12)
        assert log_det == pytest.approx(3 * math.log(4.0))
        assert metrics.efficiency(FACTORIAL, range(4)).log_det_q == log_det

    def test_duplicate_indices_rejected(self):
        x = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError, match="distinct"):
            metrics.efficiency(x, [0, 0])

    def test_chol_consistency(self):
        rng = np.random.default_rng(7)
        q = moment(rng.standard_normal((12, 4)), np.arange(12))
        chol, _ = metrics.factor_moment(q)
        np.testing.assert_allclose(chol @ chol.T, q, rtol=1e-8)


class TestLogDetTraceInverse:
    def test_diagonal(self):
        # Q = diag(2, 4): trace(Q^{-1}) = 0.75, so a_eff = 2 / (2 * 0.75)
        x = np.array([[-math.sqrt(2.0)], [math.sqrt(2.0)]])
        np.testing.assert_allclose(moment(x, [0, 1]), np.diag([2.0, 4.0]))
        rep = metrics.efficiency(x, [0, 1])
        assert rep.log_det_q == pytest.approx(math.log(8.0))
        assert rep.a_eff == pytest.approx(2.0 / (2 * 0.75))

    def test_scaled_identity(self):
        rep = metrics.efficiency(FACTORIAL, range(4))
        assert rep.log_det_q == pytest.approx(3 * math.log(4.0))
        assert rep.a_eff == pytest.approx(3.0 / (4 * 0.75))

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = int(rng.integers(1, 7))
            k = p + 4
            x = rng.standard_normal((k, p))
            eig = np.linalg.eigvalsh(np.linalg.inv(moment(x, np.arange(k))))
            assert metrics.efficiency(x, np.arange(k)).a_eff == \
                pytest.approx((p + 1) / (k * eig.sum()), rel=1e-8)


class TestCovarianceSummary:
    def test_p1_pair(self):
        x = np.array([[-1.0], [1.0]])
        assert metrics.efficiency(x, [0, 1]).gen_variance == \
            pytest.approx(1.0)

    def test_factorial(self):
        assert metrics.efficiency(FACTORIAL, range(4)).gen_variance == \
            pytest.approx(1.0, abs=1e-15)

    def test_divisor_is_k(self):
        x = np.array([[0.0], [1.0], [2.0]])
        assert metrics.efficiency(x, range(3)).gen_variance == \
            pytest.approx(2.0 / 3.0)

    def test_genvar_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = int(rng.integers(1, 5))
            k = int(rng.integers(p + 2, 20))
            x = rng.standard_normal((k, p))
            rep = metrics.efficiency(x, np.arange(k))
            assert math.exp(rep.log_det_q) == \
                pytest.approx(k ** (p + 1) * rep.gen_variance, rel=1e-8)
