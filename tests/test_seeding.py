import math

import numpy as np
import pytest

from subdopt import seeding


class TestScaling:
    def test_affine_endpoints(self):
        x = np.array([[0.0], [5.0], [10.0]])
        scaled, _ = seeding.scale_to_unit_cube(x)
        np.testing.assert_allclose(scaled[:, 0], [-1.0, 0.0, 1.0])

    def test_identity_when_already_unit(self):
        x = np.array([[-1.0], [0.25], [1.0]])
        scaled, _ = seeding.scale_to_unit_cube(x)
        np.testing.assert_allclose(scaled, x)

    def test_constant_column_rejected(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(seeding.ConstantColumnError):
            seeding.scale_to_unit_cube(x)


class TestUniformSeed:
    def test_k_equals_n(self):
        x = np.arange(12.0).reshape(-1, 1)
        sel = seeding.uniform_seed(x, 12, 1)
        assert sorted(sel.indices) == list(range(12))

    def test_determinism(self):
        x = np.random.default_rng(1).standard_normal((200, 3))
        a = seeding.uniform_seed(x, 20, 42)
        b = seeding.uniform_seed(x, 20, 42)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_cardinality(self):
        x = np.random.default_rng(2).standard_normal((10_000, 2))
        sel = seeding.uniform_seed(x, 100, 0)
        assert len(sel) == 100
        assert np.unique(sel.indices).size == 100
        assert sel.indices.max() < 10_000

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            seeding.uniform_seed(np.zeros((3, 1)), 4, 0)


class TestIbossSeed:
    def test_hand_sorted_p1(self):
        # values 1, 2 smallest; 9, 8 largest
        x = np.array([5, 1, 9, 3, 7, 2, 8, 4], dtype=float).reshape(-1, 1)
        sel = seeding.iboss_seed(x, 4)
        assert set(sel.indices) == {1, 5, 2, 6}

    def test_exclusion_rule_p2(self):
        # Row 0 holds the global minimum of both covariates; after it is
        # taken for covariate 1, covariate 2 takes its second-smallest.
        x = np.array([
            [-10.0, -10.0],
            [10.0, 5.0],
            [0.0, -9.0],
            [1.0, 9.0],
            [2.0, 0.0],
            [-5.0, 1.0],
        ])
        sel = seeding.iboss_seed(x, 4)
        # covariate 1: min row 0, max row 1; covariate 2: min among rest
        # is row 2 (-9, since row 0 is gone), max is row 3.
        assert list(sel.indices) == [0, 1, 2, 3]

    def test_k_equals_n(self):
        x = np.random.default_rng(3).standard_normal((10, 2))
        sel = seeding.iboss_seed(x, 10)
        assert sorted(sel.indices) == list(range(10))

    def test_contains_global_extremes_of_first_covariate(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            x = rng.standard_normal((300, 3))
            sel = seeding.iboss_seed(x, 12)
            assert np.argmin(x[:, 0]) in sel.indices
            assert np.argmax(x[:, 0]) in sel.indices

    def test_distinct_and_sized(self):
        x = np.random.default_rng(5).standard_normal((500, 4))
        for k in (7, 8, 16, 23):
            sel = seeding.iboss_seed(x, k)
            assert len(sel) == k
            assert np.unique(sel.indices).size == k

    def test_scale_invariance(self):
        x = np.random.default_rng(6).standard_normal((400, 3)) * 5 + 2
        scaled, _ = seeding.scale_to_unit_cube(x)
        a = seeding.iboss_seed(x, 24)
        b = seeding.iboss_seed(scaled, 24)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestOssSeed:
    def test_corners_selected(self):
        corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float)
        interior = np.random.default_rng(7).uniform(-0.6, 0.6, (20, 2))
        x = np.vstack([interior, corners])
        sel = seeding.oss_seed(x, 4)
        assert set(sel.indices) == {20, 21, 22, 23}

    def test_p1_opposite_extremes(self):
        x = np.array([-1.0, 1.0, 0.9, -0.9, 0.0]).reshape(-1, 1)
        sel = seeding.oss_seed(x, 2)
        assert set(sel.indices) == {0, 1}

    def test_pairwise_enumeration_oracle(self):
        # Greedy second pick must minimize the stated loss given the
        # (max-norm, lowest-index) first pick.
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (30, 2))
        p = 2
        norms2 = (x ** 2).sum(axis=1)
        first = int(np.argmax(norms2))
        best, best_loss = None, np.inf
        for j in range(30):
            if j == first:
                continue
            m = np.count_nonzero(np.sign(x[j]) == np.sign(x[first]))
            loss = (p - norms2[j] / 2 - norms2[first] / 2 + m) ** 2
            if loss < best_loss - 1e-15:
                best, best_loss = j, loss
        sel = seeding.oss_seed(x, 2)
        assert list(sel.indices) == [first, best]

    def test_k1_max_norm_lowest_index(self):
        x = np.array([[0.5, 0.5], [0.9, 0.9], [-0.9, -0.9]])
        sel = seeding.oss_seed(x, 1)
        assert list(sel.indices) == [1]

    def test_factorial_attained(self):
        # A full +-1 factorial inside the data attains the loss lower
        # bound, so OSS recovers exactly those rows.
        factorial = np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1)
                              for c in (-1, 1)], dtype=float)
        interior = np.random.default_rng(9).uniform(-0.7, 0.7, (40, 3))
        x = np.vstack([interior, factorial])
        sel = seeding.oss_seed(x, 8)
        assert set(sel.indices) == set(range(40, 48))


def oss_loop(x, k):
    """OSS with candidate elimination, transcribed as plain loops.

    Follows the algorithm of Wang, Elmstedt, Wong & Xu (2021): max-norm
    first pick; cumulative loss over the picks so far; after pick i keep
    the floor(n / i^(r-1)) smallest-loss rows (at least k - i), with
    r = log n / log k; ties on the lower row index throughout.
    """
    n, p = x.shape
    norms2 = [sum(v * v for v in row) for row in x.tolist()]
    signs = np.sign(x).tolist()
    first = max(range(n), key=lambda j: (norms2[j], -j))
    chosen = [first]
    loss = {j: 0.0 for j in range(n) if j != first}
    r = math.log(n) / math.log(k) if k > 1 else 1.0
    for i in range(1, k):
        s = chosen[-1]
        for j in loss:
            m = sum(1 for a, b in zip(signs[j], signs[s]) if a == b)
            d = p - norms2[j] / 2.0 - norms2[s] / 2.0 + m
            loss[j] += d * d
        ranked = sorted(loss, key=lambda j: (loss[j], j))
        keep = max(math.floor(n / i ** (r - 1.0)), k - i)
        loss = {j: loss[j] for j in ranked[:keep]}
        chosen.append(ranked[0])
        del loss[ranked[0]]
    return chosen


class TestOssElimination:
    @pytest.mark.parametrize("seed, n, p, k", [
        (11, 40, 3, 8),      # n < k^2
        (22, 80, 3, 12),     # n < k^2
        (20, 600, 4, 30),    # n < k^2, many elimination rounds
        (13, 1000, 3, 10),   # n > k^2
        (21, 2000, 5, 25),
        (14, 50, 2, 2),      # k = 2: one loss update, no elimination
        (15, 200, 5, 2),
        (18, 25, 2, 1),      # k = 1: log k = 0, max-norm row only
    ])
    def test_matches_loop_transcription(self, seed, n, p, k):
        x = np.random.default_rng(seed).uniform(-1, 1, (n, p))
        sel = seeding.oss_seed(x, k)
        assert sel.indices.tolist() == oss_loop(x, k)

    def test_loss_ties_go_to_lower_index(self):
        # Every row appears twice, so the two copies tie in the loss at
        # every step, at the elimination cut as well as at each pick.
        rng = np.random.default_rng(40)
        base = rng.uniform(-1, 1, (30, 3))
        order = rng.permutation(60)
        x = np.vstack([base, base])[order]
        sel = seeding.oss_seed(x, 9)
        assert sel.indices.tolist() == oss_loop(x, 9)
        twin = {}
        for row, src in enumerate(order):
            twin.setdefault(src % 30, []).append(row)
        for lo, hi in twin.values():
            if hi in sel.indices and lo not in sel.indices:
                pytest.fail(f"picked row {hi} over its lower twin {lo}")

    def test_first_pick_tie_and_hand_case(self):
        # rows 0 and 3 tie for the largest norm: row 0 goes first.  Rows 2
        # and 4 are both the opposite corner (loss 0): row 2 is taken.
        x = np.array([[1.0, 1.0], [0.2, 0.1], [-1.0, -1.0],
                      [1.0, 1.0], [-1.0, -1.0], [0.5, -0.5]])
        assert seeding.oss_seed(x, 2).indices.tolist() == [0, 2]
        assert oss_loop(x, 2) == [0, 2]
