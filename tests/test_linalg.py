import math

import numpy as np
import pytest

from subdopt import linalg


def random_state(rng, p, k):
    x = rng.standard_normal((k, p))
    return x, linalg.build_moment(x, np.arange(k))


class TestBuildMoment:
    def test_symmetric_pm1_pair(self):
        x = np.array([[1.0], [-1.0]])
        st = linalg.build_moment(x, [0, 1])
        np.testing.assert_allclose(st.q, 2.0 * np.eye(2))
        assert st.log_det == pytest.approx(math.log(4.0))

    def test_rank_deficient_raises(self):
        x = np.array([[0.0]])
        with pytest.raises(linalg.SingularMomentError):
            linalg.build_moment(x, [0])

    def test_full_factorial(self):
        x = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        st = linalg.build_moment(x, [0, 1, 2, 3])
        np.testing.assert_allclose(st.q, 4.0 * np.eye(3), atol=1e-12)
        assert st.log_det == pytest.approx(3 * math.log(4.0))

    def test_duplicate_indices_rejected(self):
        x = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError):
            linalg.build_moment(x, [0, 0])

    def test_chol_consistency(self):
        rng = np.random.default_rng(7)
        x, st = random_state(rng, 4, 12)
        np.testing.assert_allclose(st.chol @ st.chol.T, st.q, rtol=1e-8)


class TestSwapDeltaLogdet:
    def test_identity_swap_is_zero(self):
        rng = np.random.default_rng(2)
        x, st = random_state(rng, 3, 8)
        z = linalg.augment(x[[0]])[0]
        assert linalg.swap_delta_logdet(st, z, z) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_two_by_two_oracle(self):
        # S = {-1, +1}; swap out (1, +1) for (1, +2).
        x = np.array([[-1.0], [1.0]])
        st = linalg.build_moment(x, [0, 1])
        delta = linalg.swap_delta_logdet(
            st, np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert delta == pytest.approx(math.log(9.0 / 4.0), rel=1e-12)

    def test_matches_full_rebuild(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            k = int(rng.integers(p + 2, 21))
            x = rng.standard_normal((k + 5, p))
            sel = np.arange(k)
            st = linalg.build_moment(x, sel)
            out = int(rng.integers(0, k))
            inn = k + int(rng.integers(0, 5))
            delta = linalg.swap_delta_logdet(
                st, linalg.augment(x[[out]])[0], linalg.augment(x[[inn]])[0])
            new_sel = sel.copy()
            new_sel[out] = inn
            expected = linalg.build_moment(x, new_sel).log_det - st.log_det
            assert delta == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_singular_removal_is_neg_inf(self):
        # Removing one of the two rows leaves rank 1; adding the zero
        # vector cannot restore it, so the swap is inadmissible.
        x = np.array([[1.0], [2.0]])
        st = linalg.build_moment(x, [0, 1])
        delta = linalg.swap_delta_logdet(
            st, np.array([1.0, 2.0]), np.zeros(2))
        assert delta == -np.inf


class TestLogDetTraceInverse:
    def test_diagonal(self):
        st = linalg.MomentState(2, np.diag([2.0, 4.0]),
                                np.diag([math.sqrt(2), 2.0]),
                                math.log(8.0))
        assert linalg.trace_inverse(st) == pytest.approx(0.75)

    def test_scaled_identity(self):
        x = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        st = linalg.build_moment(x, range(4))
        assert st.log_det == pytest.approx(3 * math.log(4.0))
        assert linalg.trace_inverse(st) == pytest.approx(0.75)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = int(rng.integers(1, 7))
            _, st = random_state(rng, p, p + 4)
            eig = np.linalg.eigvalsh(np.linalg.inv(st.q))
            assert linalg.trace_inverse(st) == pytest.approx(eig.sum(),
                                                             rel=1e-8)


class TestCovarianceSummary:
    def test_p1_pair(self):
        x = np.array([[-1.0], [1.0]])
        cs = linalg.covariance_summary(x, [0, 1])
        assert cs.means[0] == pytest.approx(0.0)
        np.testing.assert_allclose(cs.cov, [[1.0]])

    def test_factorial(self):
        x = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        cs = linalg.covariance_summary(x, range(4))
        np.testing.assert_allclose(cs.means, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cs.cov, np.eye(2), atol=1e-15)

    def test_divisor_is_k(self):
        x = np.array([[0.0], [1.0], [2.0]])
        cs = linalg.covariance_summary(x, range(3))
        assert cs.cov[0, 0] == pytest.approx(2.0 / 3.0)

    def test_genvar_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = int(rng.integers(1, 5))
            k = int(rng.integers(p + 2, 20))
            x = rng.standard_normal((k, p))
            sel = np.arange(k)
            det_q = math.exp(linalg.build_moment(x, sel).log_det)
            det_cov = np.linalg.det(linalg.covariance_summary(x, sel).cov)
            assert det_q == pytest.approx(k ** (p + 1) * det_cov, rel=1e-8)
