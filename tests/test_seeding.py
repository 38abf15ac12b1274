import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdopt import exchange, seeding


class TestScaling:
    def test_affine_endpoints(self):
        x = np.array([[0.0], [5.0], [10.0]])
        scaled, _ = seeding.scale_to_unit_cube(x)
        np.testing.assert_allclose(scaled[:, 0], [-1.0, 0.0, 1.0])

    def test_identity_when_already_unit(self):
        x = np.array([[-1.0], [0.25], [1.0]])
        scaled, _ = seeding.scale_to_unit_cube(x)
        np.testing.assert_allclose(scaled, x)

    def test_bytes_match_the_plain_expression(self):
        rng = np.random.default_rng(30)
        for x in (rng.standard_normal((300, 4)) * 7 + 3,
                  rng.integers(-3, 4, (200, 5)).astype(float)):
            lo, hi = x.min(axis=0), x.max(axis=0)
            scaled, _ = seeding.scale_to_unit_cube(x)
            want = 2.0 * (x - lo) / (hi - lo) - 1.0
            assert scaled.tobytes() == want.tobytes()

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


def iboss_reference(x, k):
    """IBOSS with exclusion, each extreme taken by a full sort of the rows
    still available; ties on the lower row."""
    n, p = x.shape
    base = k // (2 * p)
    counts = [base + (i < k - 2 * p * base) for i in range(2 * p)]
    avail = np.ones(n, dtype=bool)
    chosen = []
    for j in range(p):
        for end, sign in ((0, 1.0), (1, -1.0)):
            ids = np.flatnonzero(avail)
            order = np.lexsort((ids, sign * x[ids, j]))
            take = ids[order[:counts[2 * j + end]]]
            chosen.extend(take.tolist())
            avail[take] = False
    return chosen


def pool_reference(x, sel, K):
    """The candidate pool by a full sort of the unselected rows per
    covariate: the first K/2 and the last K - K/2 in (value, row) order,
    duplicates dropped after their first occurrence."""
    n, p = x.shape
    mask = np.ones(n, dtype=bool)
    mask[sel] = False
    remaining = np.flatnonzero(mask)
    stacked = []
    for j in range(p):
        order = remaining[np.lexsort((remaining, x[remaining, j]))]
        stacked += order[:K // 2].tolist()
        stacked += order[max(order.size - (K - K // 2), 0):].tolist()
    pool = []
    for row in stacked:
        if row not in pool:
            pool.append(row)
    return pool


def tie_heavy(seed, n, p, levels=3):
    """Integer-valued data with many ties in every column."""
    rng = np.random.default_rng(seed)
    return rng.integers(-levels, levels + 1, (n, p)).astype(float)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed, n, p, k", [
        (50, 60, 3, 1),      # k = 1: one row from the small end
        (51, 60, 3, 7),      # odd k: the remainder goes to the first ends
        (52, 60, 3, 12),
        (53, 80, 5, 9),      # k < 2p: some ends take nothing
        (54, 40, 2, 38),     # k near n
        (55, 40, 2, 40),     # k = n
        (56, 300, 4, 40),
    ])
    def test_iboss(self, seed, n, p, k):
        x = tie_heavy(seed, n, p)
        assert seeding.iboss_seed(x, k).indices.tolist() == \
            iboss_reference(x, k)

    @pytest.mark.parametrize("seed, n, p, k, K", [
        (60, 80, 3, 10, 1),      # K = 1: the large end only
        (61, 80, 3, 10, 6),      # even K
        (62, 80, 3, 10, 7),      # odd K: the large end gets the extra row
        (63, 30, 2, 10, 20),     # K = remaining rows
        (64, 30, 2, 10, 45),     # K above the remaining rows
        (65, 40, 3, 38, 4),      # k near n: two rows remain
        (66, 40, 3, 39, 5),      # one row remains
        (67, 500, 5, 50, 25),
    ])
    def test_pool(self, seed, n, p, k, K):
        x = tie_heavy(seed, n, p, levels=2)
        sel = np.random.default_rng(seed).choice(n, k, replace=False)
        assert exchange.candidate_pool(x, sel, K).indices.tolist() == \
            pool_reference(x, sel, K)

    @pytest.mark.parametrize("seed, n, p, k", [
        (70, 120, 3, 10),
        (71, 400, 6, 20),
        (72, 60, 2, 30),
    ])
    def test_oss_exact_zero_coordinates(self, seed, n, p, k):
        # values in {-1, -1/2, 0, 1/2, 1}: a fifth of the coordinates are
        # exactly zero, whose sign matches only another zero
        x = tie_heavy(seed, n, p, levels=2) / 2.0
        assert (x == 0).mean() > 0.1
        assert seeding.oss_seed(x, k).indices.tolist() == oss_loop(x, k)

    @pytest.mark.parametrize("seed, p", [(73, 65), (74, 70)])
    def test_oss_more_than_64_covariates(self, seed, p):
        # sign codes span two 64-bit words
        x = tie_heavy(seed, 150, p, levels=2) / 2.0
        x[:, -1] = np.random.default_rng(seed).uniform(-1, 1, 150)
        assert seeding.oss_seed(x, 12).indices.tolist() == oss_loop(x, 12)


@st.composite
def pool_case(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.integers(-levels, levels),
                               min_size=n * p, max_size=n * p)),
                 dtype=float).reshape(n, p)
    sel = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    return x, np.array(sel, dtype=np.intp), draw(st.integers(1, 2 * n))


@settings(max_examples=200)
@given(case=pool_case())
def test_pool_invariants(case):
    x, sel, K = case
    pool = exchange.candidate_pool(x, sel, K).indices
    assert np.unique(pool).size == pool.size
    assert not np.isin(pool, sel).any()
    assert pool.size <= x.shape[1] * K
    assert pool.tolist() == pool_reference(x, sel, K)
