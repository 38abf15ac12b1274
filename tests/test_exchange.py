import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_var, log_v
from subdopt import exchange, metrics, seeding, simulate


class TestCandidatePool:
    def test_hand_sort_p1(self):
        # selected rows leave D = values [5, 1, 9, 3, 7]; K=2 keeps the
        # row of 1 then the row of 9.
        x = np.array([5, 1, 9, 3, 7, 0.1, 0.2], dtype=float).reshape(-1, 1)
        pool = exchange.candidate_pool(x, seeding.Selection([5, 6]), 2)
        assert list(pool.indices) == [1, 2]

    def test_duplicate_deduplicated(self):
        # Row 0 is both the max of covariate 1 and the min of covariate 2,
        # so it is appended twice and kept once: N_F = 3 < Kp = 4.
        x = np.array([
            [9.0, -9.0],
            [1.0, 1.0],
            [2.0, 2.0],
            [0.5, 0.6],   # selected
            [0.4, 0.7],   # selected
        ])
        pool = exchange.candidate_pool(x, seeding.Selection([3, 4]), 2)
        assert len(pool) == 3
        assert np.unique(pool.indices).size == 3

    def test_exhaustion_bound(self):
        x = np.arange(8.0).reshape(-1, 1)
        pool = exchange.candidate_pool(x, seeding.Selection([0, 1]), 12)
        assert set(pool.indices) == {2, 3, 4, 5, 6, 7}

    def test_odd_K_favors_large_end(self):
        # K=3: one smallest (value 1) plus two largest (6, 7 ascending)
        x = np.arange(8.0).reshape(-1, 1)
        pool = exchange.candidate_pool(x, seeding.Selection([0]), 3)
        assert list(pool.indices) == [1, 6, 7]

    def test_nonpositive_K_rejected(self):
        x = np.arange(8.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            exchange.candidate_pool(x, seeding.Selection([0]), 0)

    def test_order_is_construction_order(self):
        x = np.array([5, 1, 9, 3, 7], dtype=float).reshape(-1, 1)
        pool = exchange.candidate_pool(x, seeding.Selection([0]), 4)
        # smallest ascending (1, 3), then largest ascending (7, 9)
        assert list(pool.indices) == [1, 3, 4, 2]


@pytest.mark.parametrize("call, match", [
    (lambda x: exchange.alg1(x, seeding.Selection([0, 1]), 2, iterations=0),
     r"^iterations must be >= 1$"),
    (lambda x: exchange.alg1(x, seeding.Selection([0, 0]), 2),
     r"^selection must be non-empty, with rows distinct"),
    (lambda x: exchange.valg1(x, seeding.Selection([0, 1]), 2,
                              pool=seeding.Selection([1, 2])),
     r"^selection must be non-empty, with rows distinct"),
    (lambda x: exchange.candidate_pool(x, seeding.Selection(range(5)), 2),
     r"^no unselected rows left to build a pool from$"),
], ids=["alg1-iterations0", "seed-repeats-a-row", "seed-overlaps-pool",
        "pool-every-row-selected"])
def test_bad_arguments_rejected(call, match):
    x = np.arange(10.0).reshape(5, 2) ** 2
    with pytest.raises(ValueError, match=match):
        call(x)


def scores(zs, zf, z_out):
    """The exchange's swap scores of z_out against the pool rows `zf`,
    with M and c refactored from the selected augmented rows `zs`."""
    _, M, c = exchange._scan_state(zs, zf)
    return exchange.swap_scores(M, c, zf, z_out)


class TestSwapScores:
    def test_identity_swap_scores_one(self):
        rng = np.random.default_rng(2)
        z = metrics.augment(rng.standard_normal((8, 3)))
        assert scores(z, z[[0]], z[0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_oracle(self):
        # S = {-1, +1}; swap out (1, +1) for (1, +2).
        z = metrics.augment(np.array([[-1.0], [1.0]]))
        score = scores(z, np.array([[1.0, 2.0]]), np.array([1.0, 1.0]))
        assert score[0] == pytest.approx(9.0 / 4.0, rel=1e-12)

    def test_matches_full_rebuild(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            k = int(rng.integers(p + 2, 21))
            x = rng.standard_normal((k + 5, p))
            sel = np.arange(k)
            z = metrics.augment(x)
            out = int(rng.integers(0, k))
            inn = k + int(rng.integers(0, 5))
            delta = math.log(scores(z[sel], z[[inn]], z[out])[0])
            new_sel = sel.copy()
            new_sel[out] = inn
            expected = metrics.efficiency(x, new_sel).log_det_q - \
                metrics.efficiency(x, sel).log_det_q
            assert delta == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_singular_swap_is_never_accepted(self):
        # Removing one of the two rows leaves rank 1; adding the zero
        # vector cannot restore it, so the swap must not clear the bar.
        z = metrics.augment(np.array([[1.0], [2.0]]))
        score = scores(z, np.zeros((1, 2)), np.array([1.0, 2.0]))
        assert score[0] <= 1.0 + exchange.REL_IMPROVEMENT


class TestAlg1:
    def hand_instance(self):
        x = np.array([0.1, 0.2, -5.0, 5.0, 0.3]).reshape(-1, 1)
        return x, seeding.Selection([0, 1])

    def test_hand_trace(self):
        x, seed = self.hand_instance()
        sel, trace = exchange.alg1(x, seed, 2, iterations=1)
        assert set(sel.indices) == {2, 3}
        assert trace.initial_log_v == pytest.approx(math.log(0.0025))
        assert trace.final_log_v == pytest.approx(math.log(25.0))
        assert trace.accepted_swaps == 2 and trace.iteration_accepts == [2]
        assert trace.pass_log_v == [trace.final_log_v]
        # the pool is rows [2, 3] (-5, 5): slot 0 accepted pool position 0
        # (-5); slot 1 rejected the displaced 0.1 and accepted pool
        # position 1 (5)
        assert list(sel.indices) == [2, 3]

    def test_second_iteration_is_noop(self):
        x, seed = self.hand_instance()
        sel1, tr1 = exchange.alg1(x, seed, 2, iterations=1)
        sel2, tr2 = exchange.alg1(x, seed, 2, iterations=2)
        np.testing.assert_array_equal(sel1.indices, sel2.indices)
        assert tr2.iteration_accepts == [2, 0]

    def test_shorter_run_is_a_prefix(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((80, 3))
        seed = seeding.uniform_seed(x, 10, 0)
        _, long = exchange.alg1(x, seed, 6, iterations=4)
        assert len(long.pass_log_v) == len(long.pass_seconds) == 4
        assert 0 < long.pass_seconds[0] <= long.pass_seconds[-1]
        assert long.pass_seconds == sorted(long.pass_seconds)
        for m in range(1, 4):
            _, short = exchange.alg1(x, seed, 6, iterations=m)
            assert short.pass_log_v == long.pass_log_v[:m]
            assert short.iteration_accepts == long.iteration_accepts[:m]

    def test_pass_seconds_leave_out_the_pool_build(self, monkeypatch):
        build = exchange.candidate_pool

        def slow_build(*args):
            time.sleep(0.2)
            return build(*args)

        monkeypatch.setattr(exchange, "candidate_pool", slow_build)
        x = np.random.default_rng(8).standard_normal((80, 3))
        seed = seeding.uniform_seed(x, 10, 0)
        _, trace = exchange.alg1(x, seed, 6, iterations=3)
        assert trace.pass_seconds[-1] < 0.2

    def test_fixed_point(self):
        # seed already holds the extreme rows: no swap can improve
        x = np.array([-5.0, 5.0, 0.1, 0.2, 0.3]).reshape(-1, 1)
        sel, trace = exchange.alg1(x, seeding.Selection([0, 1]), 2)
        assert trace.accepted_swaps == 0
        np.testing.assert_array_equal(sel.indices, [0, 1])

    def test_singular_rebuild_skips_slot(self, monkeypatch):
        x, seed = self.hand_instance()
        calls = []

        def flaky(q):
            calls.append(q)
            if len(calls) == 2:   # the rebuild after slot 0's swap
                raise metrics.SingularMomentError("injected")
            return metrics.factor_moment(q)

        monkeypatch.setattr(exchange, "factor_moment", flaky)
        sel, trace = exchange.alg1(x, seed, 2, iterations=1)
        assert (trace.slots_singular, trace.slots_not_higher) == (1, 0)
        # slot 0 kept 0.1; slot 1 then swapped 0.2 for pool position 0 (-5)
        assert list(sel.indices) == [0, 2]
        assert trace.accepted_swaps == 1 and trace.iteration_accepts == [1]
        assert trace.pass_log_v == [trace.final_log_v]
        # the undo restored the selected and pool rows: the reported log V
        # is the rebuilt selection's, bit for bit
        assert trace.final_log_v == log_v(x, sel)

    @pytest.mark.parametrize("method", ["alg1", "valg1"])
    def test_commit_must_raise_rebuilt_log_v(self, method):
        # Column 2 is column 1 nudged by 1e-6, so Q is ill-conditioned
        # (cond ~1e13) and the scores claim gains of about 1% that the
        # rebuilt selections do not have: every commit is undone.
        x0 = np.array([-1.0, 1.0, -1.0, 2.0, 0.0])
        x = np.column_stack([x0, x0 + 1e-6 * np.array([1, 0, 1, -1, 0])])
        seed = seeding.Selection([1, 3, 4])
        sel, trace = getattr(exchange, method)(x, seed, 4)
        assert list(sel.indices) == [1, 3, 4]
        assert trace.final_log_v == trace.initial_log_v
        assert trace.accepted_swaps == 0 and trace.slots_not_higher > 0
        assert trace.slots_singular == 0

    def test_never_degrades(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            x = rng.standard_normal((40, 3))
            seed = seeding.uniform_seed(x, 8, trial)
            sel, trace = exchange.alg1(x, seed, 4, iterations=2)
            assert trace.final_log_v >= trace.initial_log_v - 1e-12
            assert gen_var(x, sel.indices) >= gen_var(x, seed.indices) * (
                1 - 1e-9)

    def test_accepted_log_v_strictly_increases(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 3))
        seed = seeding.uniform_seed(x, 10, 0)
        _, trace = exchange.alg1(x, seed, 6, iterations=3)
        assert trace.iteration_accepts[0] > 0
        seq = [trace.initial_log_v] + trace.pass_log_v
        # a pass that commits raises log V; one that commits nothing
        # leaves it as it was
        for before, after, accepts in zip(seq, seq[1:],
                                          trace.iteration_accepts):
            assert after > before if accepts else after == before
        assert trace.final_log_v == trace.pass_log_v[-1]

    def test_conservation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 2))
        seed = seeding.uniform_seed(x, 6, 0)
        pool0 = exchange.candidate_pool(x, seed, 4)
        sel, trace = exchange.alg1(x, seed, 4, iterations=3)
        assert trace.pool_size == len(pool0)
        assert len(sel) == 6
        assert np.unique(sel.indices).size == 6
        # final selection only contains original seed or pool members
        allowed = set(seed.indices) | set(pool0.indices)
        assert set(sel.indices) <= allowed

    def test_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        seed = seeding.uniform_seed(x, 8, 1)
        a = exchange.alg1(x, seed, 6, iterations=3)
        b = exchange.alg1(x, seed, 6, iterations=3)
        np.testing.assert_array_equal(a[0].indices, b[0].indices)
        assert a[1].iteration_accepts == b[1].iteration_accepts
        assert a[1].pass_log_v == b[1].pass_log_v


class TestValg1:
    def test_hand_instance_same_optimum(self):
        x = np.array([0.1, 0.2, -5.0, 5.0, 0.3]).reshape(-1, 1)
        sel, trace = exchange.valg1(x, seeding.Selection([0, 1]), 2)
        assert set(sel.indices) == {2, 3}
        assert trace.final_log_v == pytest.approx(math.log(25.0))

    def test_per_slot_argmax_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            x = rng.standard_normal((14, 2))
            seed = seeding.uniform_seed(x, 5, trial)
            K = 2 * (14 - 5)  # pool = all remaining rows
            sel, _ = exchange.valg1(x, seed, K)
            # replay slot-by-slot: each final occupant must attain the
            # slot argmax over its pool snapshot
            idx = seed.indices.copy()
            pool = exchange.candidate_pool(x, seed, K).indices.copy()
            for i in range(5):
                snapshot = pool.copy()
                best_v = gen_var(x, idx)
                occupant = idx[i]
                for w, f in enumerate(snapshot):
                    cand = idx.copy()
                    cand[i] = f
                    v = gen_var(x, cand)
                    if v > best_v * (1 + 1e-12):
                        pool[w] = occupant
                        occupant = f
                        idx = cand
                        best_v = v
            np.testing.assert_array_equal(sel.indices, idx)

    def test_dominates_single_pass_alg1(self):
        rng = np.random.default_rng(6)
        wins = 0
        for trial in range(100):
            x = rng.standard_normal((25, 2))
            seed = seeding.uniform_seed(x, 6, trial)
            _, tr_a = exchange.alg1(x, seed, 4, iterations=1)
            _, tr_v = exchange.valg1(x, seed, 4)
            assert tr_v.final_log_v >= tr_a.final_log_v - 1e-9
            wins += tr_v.final_log_v > tr_a.final_log_v + 1e-9
        assert wins > 0  # strictly better somewhere, not just ties


@st.composite
def tie_heavy_design(draw):
    """A small design and a seed of distinct rows.  Repeated rows, a
    second column tied to the first up to 1e-6, and one row scaled by up
    to 1e7 make singular seeds, singular rebuilds and scores read off an
    ill-conditioned M all common.  The cells come from one drawn numpy
    seed, which keeps a case cheap to generate."""
    n, p = draw(st.integers(6, 13)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-3, 4, size=(n, p)).astype(float)
    rows = st.integers(0, n - 1)
    x[draw(st.lists(rows, max_size=2))] = x[draw(rows)]
    if p > 1:
        x[:, 1] = x[:, 0] + 1e-6 * rng.integers(-1, 2, n)
    x[draw(rows)] *= 10.0 ** draw(st.integers(0, 7))
    k = draw(st.integers(p + 1, n - 2))
    return x, rng.permutation(n)[:k], draw(st.sampled_from(["alg1", "valg1"]))


def run_exchange(x, seed, method):
    """The exchange's selection and trace, or None on a singular seed."""
    sel = seeding.Selection(seed)
    try:
        if method == "alg1":
            return exchange.alg1(x, sel, 4, iterations=3)
        return exchange.valg1(x, sel, 4)
    except metrics.SingularMomentError:
        with pytest.raises(metrics.SingularMomentError):
            log_v(x, seed)
        return None


@settings(max_examples=100)
@given(case=tie_heavy_design())
def test_exchange_never_lowers_log_v(case):
    x, seed, method = case
    out = run_exchange(x, seed, method)
    if out is not None:
        sel, trace = out
        assert trace.final_log_v >= trace.initial_log_v
        assert np.unique(sel.indices).size == seed.size


@settings(max_examples=100)
@given(case=tie_heavy_design())
def test_final_log_v_is_rebuilt_selection(case):
    x, seed, method = case
    out = run_exchange(x, seed, method)
    if out is not None:
        sel, trace = out
        # log_v also checks distinct rows
        assert trace.final_log_v == log_v(x, sel)


class TestBoundedOptimality:
    def test_seed_alg1_exhaustive_sandwich(self):
        rng = np.random.default_rng(7)
        for trial in range(15):
            n, k = 12, 5
            x = rng.standard_normal((n, 2))
            seed = seeding.uniform_seed(x, k, trial)
            sel, trace = exchange.alg1(x, seed, 6, iterations=3)
            v_seed = gen_var(x, seed.indices)
            v_alg = gen_var(x, sel.indices)
            v_best = max(gen_var(x, np.array(c))
                         for c in itertools.combinations(range(n), k))
            assert v_seed <= v_alg * (1 + 1e-9)
            assert v_alg <= v_best * (1 + 1e-9)


class TestExactState:
    @pytest.mark.parametrize("method", ["alg1", "valg1"])
    def test_final_log_v_equals_rebuild(self, method):
        # Desk size: hundreds of swaps.  The reported log V must be the
        # rebuilt selection's value bit for bit, with no drift.
        x = simulate.gen_mvn_equicorr(10_000, 10, 0.5, 4)
        xs, _ = seeding.scale_to_unit_cube(x)
        seed = seeding.oss_seed(xs, 100)
        sel, trace = getattr(exchange, method)(xs, seed, 25)
        assert trace.accepted_swaps > 300
        eff = metrics.efficiency(xs, sel)
        assert trace.final_log_v == eff.log_det_q - 11 * math.log(100)
