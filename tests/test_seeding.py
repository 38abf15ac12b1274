import math
import tracemalloc

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
        # many blocks, with column 0's minimum and column 1's maximum at
        # the first and the last of the rows after the last whole block
        tail = rng.standard_normal((50 * seeding.BLOCK + 37, 3))
        tail[50 * seeding.BLOCK, 0], tail[-1, 1] = -9.0, 9.0
        # a row-major array is scaled ROWS // p whole rows, about ROWS
        # values, at a time: at p = 3, n = ROWS - 1 is three whole steps,
        # and n = ROWS, ROWS + 1 and 3 ROWS + 37 end in a short step; both
        # layouts
        rows = seeding.ROWS
        edges = [np.asarray(rng.standard_normal((n, 3)) * 5 - 2, order=o)
                 for n in (rows - 1, rows, rows + 1, 3 * rows + 37)
                 for o in "CF"]
        for x in (rng.standard_normal((300, 4)) * 7 + 3,
                  rng.integers(-3, 4, (200, 5)).astype(float), tail,
                  rng.standard_normal((seeding.BLOCK - 1, 2)), *edges):
            lo, hi = x.min(axis=0), x.max(axis=0)
            scaled, _ = seeding.scale_to_unit_cube(x)
            want = 2.0 * (x - lo) / (hi - lo) - 1.0
            assert scaled.tobytes(order="A") == want.tobytes(order="A")
            assert scaled.flags.c_contiguous == x.flags.c_contiguous

    def test_constant_column_rejected(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(seeding.ColumnRangeError,
                           match=r"^constant column\(s\): \[1\]$"):
            seeding.scale_to_unit_cube(x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_nan_column_rejected(self, order):
        # a NaN in column 1 inside the blocks and in column 3 after them;
        # neither hi <= lo nor an infinite span catches a NaN
        rng = np.random.default_rng(35)
        x = rng.standard_normal((3 * seeding.BLOCK + 5, 4))
        x[seeding.BLOCK + 2, 1], x[-1, 3] = np.nan, np.nan
        with pytest.raises(seeding.ColumnRangeError,
                           match=r"^column\(s\) with NaN: \[1, 3\]$"):
            seeding.scale_to_unit_cube(np.asarray(x, order=order))

    def test_overflowing_range_rejected(self):
        # every value is finite, but hi - lo of column 1 is not; in the
        # half-range column hi - lo is, and 2(hi - lo) is not
        for big in ([1.7e308, 0.0, -1.7e308, 1.0, 2.0],
                    [1.5e308, 0.0, -1e307, 1.0, 2.0]):
            x = np.column_stack([np.arange(5.0), big])
            with pytest.raises(seeding.ColumnRangeError,
                               match=r"^column\(s\) whose range overflows: "
                                     r"\[1\]$"):
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


@pytest.mark.parametrize("order", ["C", "F"])
def test_block_extremes_over_chunks(order):
    # s = n // BLOCK rows per sweep, swept ROWS at a time: s is not a
    # multiple of ROWS, and n not one of BLOCK
    s = 2 * seeding.ROWS + 37
    rng = np.random.default_rng(31)
    x = np.asarray(rng.integers(-40, 41, (seeding.BLOCK * s + 5, 3)),
                   dtype=float, order=order)
    lo, hi = seeding._block_extremes(x)
    # block g holds the rows g, g + s, ..., g + (BLOCK - 1)s
    blocks = x[:seeding.BLOCK * s].reshape(seeding.BLOCK, s, 3)
    assert lo.tobytes() == blocks.min(axis=0).tobytes()
    assert hi.tobytes() == blocks.max(axis=0).tobytes()


@pytest.mark.parametrize("p", [1, 7, 8, 9, 63, 64, 65, 130])
def test_pack_matches_packbits(p):
    x = np.random.default_rng(p).choice([-1.5, -0.0, 0.0, np.nan, 2.0],
                                        (300, p))
    # a scratch buffer full of signs of earlier rows: none may leak
    buf = np.ones(300 * p + 8, dtype=bool)
    for compare in (np.greater, np.less):
        want = np.zeros((300, 8 * -(-p // 64)), dtype=np.uint8)
        want[:, :-(-p // 8)] = np.packbits(compare(x, 0), axis=1,
                                           bitorder="little")
        out = np.zeros((300, -(-p // 64)), dtype=np.uint64)
        seeding._pack(compare, x, buf, out)
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [-2, -1, 0, 7])
@pytest.mark.parametrize("seed", [
    lambda x, k: seeding.uniform_seed(x, k, 0),
    seeding.iboss_seed,
    seeding.oss_seed,
], ids=["uniform", "iboss", "oss"])
def test_k_outside_one_to_n_rejected(seed, k):
    x = np.random.default_rng(34).uniform(-1, 1, (6, 2))
    match = r"^k=7 exceeds n=6$" if k > 6 else rf"^k={k} is below 1$"
    with pytest.raises(ValueError, match=match):
        seed(x, k)


def test_smallest_matches_stable_argsort():
    # ties at every boundary, and +inf, as the picks hold in the OSS loss
    rng = np.random.default_rng(33)
    vals = rng.integers(0, 5, 80).astype(float)
    vals[rng.random(80) < 0.15] = np.inf
    for m in range(1, vals.size):
        want = np.sort(np.argsort(vals, kind="stable")[:m])
        assert seeding._smallest(vals, m).tolist() == want.tolist()
    # an m-th smallest that is NaN keeps nothing
    assert seeding._smallest(np.array([1.0, np.nan, np.nan]), 2).size == 0
    # values rounded to 0.1 tie heavily; 0.0 and -0.0 tie too, -inf comes
    # first and NaN last
    vals = np.round(rng.random(150), 1)
    vals[rng.random(150) < 0.2] = -0.0
    vals[rng.random(150) < 0.05] = -np.inf
    vals[rng.random(150) < 0.1] = np.nan
    ranked = np.count_nonzero(~np.isnan(vals))
    for m in range(1, vals.size):
        want = np.sort(np.argsort(vals, kind="stable")[:m]) \
            if m <= ranked else []
        assert seeding._smallest(vals, m).tolist() == list(want)


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


def many_blocks(data, seed, n, p):
    """Data over many blocks of `seeding.BLOCK` rows.  "ties": five levels
    per column; "continuous": normal; "sorted": normal with column 0 in
    ascending and column 1 in descending order, so the rows at either end
    of those columns sit one per block."""
    if data == "ties":
        return tie_heavy(seed, n, p, levels=2)
    x = np.random.default_rng(seed).standard_normal((n, p))
    if data == "sorted":
        x[:, 0].sort()
        x[:, 1] = -np.sort(x[:, 1])
    return x


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

    @pytest.mark.parametrize("data, seed, n, p, k", [
        ("ties", 57, 5000, 4, 40),
        ("ties", 58, 3000 + 37, 3, 25),     # n not a multiple of BLOCK
        ("sorted", 59, 4000 + 11, 3, 7),
        ("sorted", 68, 3000 + 37, 4, 90),
        ("continuous", 69, 6000, 5, 33),
        ("continuous", 75, 40, 3, 9),       # n below one block
        ("sorted", 76, 2000, 2, 1200),      # every block survives
    ])
    def test_iboss_many_blocks(self, data, seed, n, p, k):
        x = many_blocks(data, seed, n, p)
        assert seeding.iboss_seed(x, k).indices.tolist() == \
            iboss_reference(x, k)

    @pytest.mark.parametrize("data, seed, n, p, k, K", [
        ("ties", 77, 5000, 4, 40, 10),
        ("ties", 78, 3000 + 37, 3, 25, 7),  # n not a multiple of BLOCK
        ("sorted", 79, 4000 + 11, 3, 30, 9),
        ("sorted", 80, 3000 + 37, 4, 90, 1),
        ("continuous", 81, 6000, 5, 33, 12),
        ("continuous", 82, 40, 3, 9, 6),    # n below one block
        ("sorted", 83, 2000, 2, 900, 40),   # every block survives
    ])
    def test_pool_many_blocks(self, data, seed, n, p, k, K):
        x = many_blocks(data, seed, n, p)
        # the k smallest rows of column 0 are taken, so its small end is
        # the (k + 1)-th to (k + K/2)-th smallest rows: the pool's count of
        # K/2 + k rows to read is tight there
        sel = np.lexsort((np.arange(n), x[:, 0]))[:k]
        assert exchange.candidate_pool(x, sel, K).indices.tolist() == \
            pool_reference(x, sel, K)

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

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, k", [
        (seeding.ROWS - 1, 10),
        (seeding.ROWS + 1, 10),
        # k > sqrt(n): the live rows after the second pick span two blocks
        (2 * seeding.ROWS + 37, 100),
    ])
    def test_oss_across_row_blocks(self, n, k, order):
        x = np.asarray(tie_heavy(n, n, 3, levels=2) / 2.0, order=order)
        x[:, 2] += np.random.default_rng(n).uniform(-0.2, 0.2, n)
        norms2, pos, neg = seeding._codes(x)
        assert norms2.tobytes() == np.einsum("ij,ij->i", x, x).tobytes()
        for code, signs in ((pos, x > 0), (neg, x < 0)):
            assert code.view(np.uint8)[:, 0].tolist() == \
                np.packbits(signs, axis=1, bitorder="little")[:, 0].tolist()
        # the loss term, built from norms2 alone, has the bytes of the
        # stored p - |x|^2/2 less h, plus p - differ, squared
        s = int(np.argmax(norms2))
        h = norms2[s] / 2.0
        loss = np.ones(n)
        seeding._add_loss(loss, pos, neg, norms2, (pos[s], neg[s]), h, 3)
        differ = (np.sign(x) != np.sign(x[s])).sum(axis=1)
        d = (3 - norms2 / 2.0) - h
        d += 3 - differ
        d *= d
        want = np.ones(n)
        want += d
        assert loss.tobytes() == want.tobytes()
        assert seeding.oss_seed(x, k).indices.tolist() == oss_loop(x, k)

    @pytest.mark.parametrize("p, word", [
        (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
        (32, np.uint32), (33, np.uint64), (64, np.uint64), (65, np.uint64),
    ])
    def test_oss_narrow_sign_codes(self, p, word):
        # the codes take the narrowest word holding min(p, 64) bits; ties,
        # 0.0 and -0.0 (signed like 0.0) in every column
        x = tie_heavy(p, 120, p, levels=2) / 2.0
        x[::2] *= -1.0
        assert (x == 0).mean() > 0.1
        _, pos, neg = seeding._codes(x)
        assert pos.dtype == neg.dtype == word
        assert pos.shape == neg.shape == (120, -(-p // 64))
        assert seeding.oss_seed(x, 12).indices.tolist() == oss_loop(x, 12)


def test_oss_memory_per_row():
    # the loss and |x|^2 take 8 bytes a row each, the two sign codes 2
    # each at p = 10, and the first elimination partitions a copy of the
    # loss: 28 bytes a row.  The set-up and the loss updates go a block of
    # rows at a time, and the eliminations compact one array at a time
    for n, k in ((200_000, 100), (10_000, 100), (100_000, 1000)):
        x = np.random.default_rng(32).uniform(-1, 1, (n, 10))
        tracemalloc.start()
        try:
            seeding.oss_seed(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n, (n, k, peak / n)


@pytest.mark.parametrize("n, k", [(500, 20), (50, 2)])
def test_oss_rejects_nan(n, k):
    x = np.random.default_rng(33).uniform(-1, 1, (n, 4))
    x[n // 2, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        seeding.oss_seed(x, k)


def test_oss_rejects_losses_that_could_overflow():
    # at 1e200 the losses overflow and the held picks would no longer sort
    # last; at 1e70 the largest loss sum is about 1e283, and every pick is
    # a new row
    x = np.random.default_rng(0).uniform(-1, 1, (500, 3))
    with pytest.raises(ValueError, match="NaN, or its OSS losses could "
                                         "overflow"):
        seeding.oss_seed(x * 1e200, 20)
    assert np.unique(seeding.oss_seed(x * 1e70, 20).indices).size == 20


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
