import math

import numpy as np
import pytest

from subdopt import metrics
from subdopt.metrics import SingularMomentError


def factorial(p):
    rows = [[1.0]]
    for _ in range(p):
        rows = [r + [s] for r in rows for s in (-1.0, 1.0)]
    return np.array(rows)[:, 1:]


class TestEfficiency:
    def test_factorial_p2(self):
        x = factorial(2)
        rep = metrics.efficiency(x, range(4))
        assert rep.d_eff == pytest.approx(1.0, abs=1e-10)
        assert rep.a_eff == pytest.approx(1.0, abs=1e-10)
        assert rep.gen_variance == pytest.approx(1.0, abs=1e-10)

    def test_p1_pair(self):
        x = np.array([[-1.0], [1.0]])
        rep = metrics.efficiency(x, [0, 1])
        assert rep.d_eff == pytest.approx(1.0)
        assert rep.a_eff == pytest.approx(1.0)

    def test_repeated_point_singular(self):
        x = np.array([[1.0], [1.0]])
        with pytest.raises(SingularMomentError):
            metrics.efficiency(x, [0, 1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (30, 3))
        sel = np.array([3, 9, 11, 15, 20, 27])
        a = metrics.efficiency(x, sel)
        b = metrics.efficiency(x, sel[::-1])
        assert a.d_eff == pytest.approx(b.d_eff)
        assert a.a_eff == pytest.approx(b.a_eff)

    def test_orthogonal_array_attains_one(self):
        # Two replicates of a factorial still form a two-level OA.
        x = np.vstack([factorial(3), factorial(3)])
        rep = metrics.efficiency(x, range(16))
        assert rep.d_eff == pytest.approx(1.0, abs=1e-10)
        assert rep.a_eff == pytest.approx(1.0, abs=1e-10)

    def test_a_eff_eigen_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            k = int(rng.integers(p + 2, 15))
            x = rng.uniform(-1, 1, (k, p))
            rep = metrics.efficiency(x, range(k))
            z = metrics.augment(x)
            q = z.T @ z
            lam = np.linalg.eigvalsh(np.linalg.inv(q))
            assert rep.a_eff == pytest.approx((p + 1) / (k * lam.sum()),
                                              rel=1e-8)

    def test_triangular_solve_matches_solve_triangular(self):
        # a_eff solves L W = I with BLAS dtrsm; it must give the bits of
        # scipy's solve_triangular, or a_eff bytes would change
        from scipy.linalg import solve_triangular
        from scipy.linalg.blas import dtrsm
        rng = np.random.default_rng(7)
        near = rng.uniform(-1, 1, (30, 3))
        near[:, 2] = near[:, 1] + 1e-6 * rng.standard_normal(30)
        designs = [np.empty((5, 0)),   # p1 = 1
                   rng.uniform(-1, 1, (40, 1)),
                   np.round(rng.uniform(-1, 1, (60, 6)), 1),
                   rng.uniform(-1, 1, (200, 10)),
                   near]
        for x in designs:
            z = metrics.augment(x)
            chol, _ = metrics.factor_moment(z.T @ z)
            p1 = chol.shape[0]
            want = solve_triangular(chol, np.eye(p1), lower=True)
            assert dtrsm(1.0, chol, np.eye(p1), lower=1).tobytes() == \
                want.tobytes()
            k = x.shape[0]
            assert metrics.efficiency(x, range(k)).a_eff == \
                p1 / (k * float(np.sum(want * want)))

    def test_efficiencies_bounded_for_scaled_data(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (50, 4))
        rep = metrics.efficiency(x, range(12))
        assert 0 < rep.d_eff <= 1 + 1e-12
        assert 0 < rep.a_eff <= 1 + 1e-12


class TestMse:
    def test_exact_fit(self):
        rep = metrics.mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rep.mse_intercept == 0.0
        assert rep.mse_slopes == 0.0

    def test_unit_slope_error(self):
        rep = metrics.mse([0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        assert rep.mse_slopes == pytest.approx(1.0)

    def test_intercept_error(self):
        rep = metrics.mse([3.0, 0.0], [1.0, 0.0])
        assert rep.mse_intercept == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mse([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call, match", [
    (lambda: metrics.efficiency(np.ones((3, 2)), []),
     r"^selection must contain at least one row$"),
    (lambda: metrics.hull_2d(np.empty((0, 2))), r"^need at least one point$"),
], ids=["efficiency-empty-selection", "hull-no-points"])
def test_empty_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestHull2d:
    def test_unit_square(self):
        pts = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        verts, area = metrics.hull_2d(pts)
        assert area == pytest.approx(4.0)
        assert verts.shape == (4, 2)

    def test_collinear(self):
        verts, area = metrics.hull_2d([(0, 0), (1, 1), (2, 2)])
        assert area == 0.0
        assert verts.shape == (2, 2)
        np.testing.assert_allclose(sorted(map(tuple, verts)),
                                   [(0, 0), (2, 2)])

    def test_single_point(self):
        verts, area = metrics.hull_2d([(3.0, 4.0)])
        assert area == 0.0
        np.testing.assert_allclose(verts, [[3.0, 4.0]])

    def test_interior_points_ignored(self):
        pts = [(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1), (0.2, 0.3)]
        verts, area = metrics.hull_2d(pts)
        assert area == pytest.approx(4.0)
        assert verts.shape == (4, 2)

    def test_all_points_inside_hull(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((100, 2))
        verts, _ = metrics.hull_2d(pts)
        m = verts.shape[0]
        for p in pts:
            for i in range(m):
                a, b = verts[i], verts[(i + 1) % m]
                cross = (b[0] - a[0]) * (p[1] - a[1]) \
                    - (b[1] - a[1]) * (p[0] - a[0])
                assert cross >= -1e-9  # on or left of every CCW edge

    def test_counterclockwise_orientation(self):
        rng = np.random.default_rng(4)
        verts, area = metrics.hull_2d(rng.standard_normal((40, 2)))
        xs, ys = verts[:, 0], verts[:, 1]
        signed = 0.5 * (np.dot(xs, np.roll(ys, -1))
                        - np.dot(ys, np.roll(xs, -1)))
        assert signed == pytest.approx(area)
        assert signed > 0

    def test_subset_hull_contained(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 2))
        _, full_area = metrics.hull_2d(pts)
        _, sub_area = metrics.hull_2d(pts[::7])
        assert sub_area <= full_area + 1e-12
