import itertools
import math

import numpy as np
import pytest

from subdopt import exchange, linalg, metrics, seeding, simulate


def gen_var(x, idx):
    return float(np.linalg.det(
        linalg.covariance_summary(x, idx).cov))


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
        assert trace.accepted_swaps == 2
        # slot 0 accepted pool position 0 (-5); slot 1 rejected the
        # displaced 0.1 and accepted pool position 1 (5)
        assert [(r.slot, r.pool_pos) for r in trace.records] == [(0, 0),
                                                                 (1, 1)]
        assert math.exp(trace.records[0].log_v_after) == pytest.approx(6.76)

    def test_second_iteration_is_noop(self):
        x, seed = self.hand_instance()
        sel1, tr1 = exchange.alg1(x, seed, 2, iterations=1)
        sel2, tr2 = exchange.alg1(x, seed, 2, iterations=2)
        np.testing.assert_array_equal(sel1.indices, sel2.indices)
        assert tr2.iteration_accepts == [2, 0]

    def test_fixed_point(self):
        # seed already holds the extreme rows: no swap can improve
        x = np.array([-5.0, 5.0, 0.1, 0.2, 0.3]).reshape(-1, 1)
        sel, trace = exchange.alg1(x, seeding.Selection([0, 1]), 2)
        assert trace.accepted_swaps == 0
        np.testing.assert_array_equal(sel.indices, [0, 1])

    def test_singular_rebuild_skips_slot(self, monkeypatch):
        x, seed = self.hand_instance()
        calls = []

        def flaky(x, sel):
            calls.append(sel)
            if len(calls) == 2:   # the rebuild after slot 0's swap
                raise linalg.SingularMomentError("injected")
            return linalg.build_moment(x, sel)

        monkeypatch.setattr(exchange, "build_moment", flaky)
        sel, trace = exchange.alg1(x, seed, 2, iterations=1)
        assert trace.slots_skipped == 1
        # slot 0 kept 0.1; slot 1 then swapped 0.2 for -5
        assert list(sel.indices) == [0, 2]
        assert trace.accepted_swaps == 1
        assert [(r.slot, r.pool_pos) for r in trace.records] == [(1, 0)]

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
        seq = [trace.initial_log_v]
        for r in trace.records:
            seq.append(r.log_v_after)
        assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_conservation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 2))
        seed = seeding.uniform_seed(x, 6, 0)
        pool0 = exchange.candidate_pool(x, seed, 4)
        sel, _ = exchange.alg1(x, seed, 4, iterations=3)
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
        assert a[1].records == b[1].records


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
