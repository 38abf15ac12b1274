"""Fast self-test of the benchmark: tiny workloads, and checks that bite.

    python3 benchmarks/selftest.py

Runs the three workloads at tiny sizes, traced and untraced, with every
check on, and shows that each output check rejects a corrupted answer.
Takes a few seconds; writes only under ``benchmarks/.runs/selftest``.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import SIZES, Run  # noqa: E402

TMP = workloads.RUNS / "selftest"
SEED = 3


def run_tiny(name, trace):
    size = SIZES["tiny"][name]
    if name == "select_csv":
        csv_path, npz_path = inputs.csv_input(size["n"], size["p"], SEED,
                                              TMP / "data")
        data = {"csv": str(csv_path), "npz": str(npz_path)}
    elif name == "select_1m":
        data = {"npy": str(inputs.array_input(size["n"], size["p"], SEED,
                                              TMP / "data"))}
    else:
        data = {}
    runs = TMP / f"{name}-{trace}"
    runs.mkdir(parents=True, exist_ok=True)
    run = Run(0.3, trace, runs)
    d_eff = workloads.WORKLOADS[name](run, size, SEED, data)
    return run.result(d_eff)


def declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


class TestWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(TMP, ignore_errors=True)

    def check_result(self, name, res):
        self.assertTrue(res["correct"], res["errors"])
        self.assertGreaterEqual(res["attempted"], 1)
        if name == "select_csv":   # every replay fails, nothing else
            self.assertEqual(2 * res["failed"], res["attempted"])
        else:
            self.assertEqual(res["failed"], 0)
        for value in res["metrics"].values():
            self.assertTrue(np.isfinite(value))

    def test_untraced(self):
        e2e, _ = declared()
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = run_tiny(name, 0)
                self.check_result(name, res)
                self.assertEqual(set(res["metrics"]) | {"setup_s"}, e2e)
                self.assertGreater(res["metrics"]["op_s"], 0.0)

    def test_traced(self):
        _, layers = declared()
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = run_tiny(name, 1)
                self.check_result(name, res)
                m = res["metrics"]
                self.assertEqual(set(m), layers)
                self.assertGreater(m["exchange.scores"], 0)
                self.assertGreater(m["exchange.pool_rows"], 0)
                self.assertGreater(m["exchange.peak_mb"], 0.0)
                self.assertGreater(m["trace.cover"], 0.5)
                if name == "select_csv":
                    self.assertGreater(m["ingest.s"], 0.0)
                    self.assertGreater(m["cli.overhead_s"], 0.0)
                if name == "simulate_desk":
                    self.assertGreater(m["simulate.gen_s"], 0.0)
                    self.assertGreater(m["seeding.oss_s"], 0.0)

    def test_units_cover_every_metric(self):
        e2e, layers = declared()
        self.assertEqual(set(workloads.UNITS), e2e | layers)


class TestChecksReject(unittest.TestCase):
    """Each check passes a correct answer and rejects a corrupted one."""

    @classmethod
    def setUpClass(cls):
        from subdopt import exchange, metrics, seeding
        x = np.random.default_rng(5).standard_normal((2_000, 4))
        cls.xs = checks.scale(x)
        cls.k, cls.K = 24, 6
        cls.seed = seeding.iboss_seed(cls.xs, cls.k).indices
        cls.sel, cls.trace = exchange.valg1(cls.xs, cls.seed, cls.K)
        cls.eff = metrics.efficiency(cls.xs, cls.sel)
        cls.pool = exchange.candidate_pool(cls.xs, cls.seed, cls.K).indices

    def test_correct_answers_pass(self):
        xs, idx = self.xs, self.sel.indices
        self.assertEqual(checks.indices(idx, len(xs), self.k), [])
        self.assertEqual(checks.efficiency(xs, idx, self.eff.d_eff,
                                           self.eff.log_det_q), [])
        self.assertEqual(checks.improves(
            xs, self.seed, idx, self.trace.initial_log_v,
            self.trace.final_log_v), [])
        self.assertEqual(checks.pool(xs, self.seed, self.pool, self.K), [])
        np.testing.assert_array_equal(checks.iboss(xs, self.k), self.seed)

    def test_swapped_row_rejected(self):
        idx = self.sel.indices.copy()
        idx[0] = np.setdiff1d(np.arange(len(self.xs)), idx)[0]
        self.assertEqual(checks.indices(idx, len(self.xs), self.k), [])
        self.assertNotEqual(checks.efficiency(
            self.xs, idx, self.eff.d_eff, self.eff.log_det_q), [])
        self.assertNotEqual(checks.improves(
            self.xs, self.seed, idx, None, self.trace.final_log_v), [])

    def test_d_eff_off_by_one_in_a_million_rejected(self):
        self.assertNotEqual(checks.efficiency(
            self.xs, self.sel.indices, self.eff.d_eff * (1 + 1e-6),
            self.eff.log_det_q), [])

    def test_pool_missing_an_extreme_row_rejected(self):
        j = 0
        rest = np.setdiff1d(np.arange(len(self.xs)), self.seed)
        extreme = rest[np.argmax(self.xs[rest, j])]
        self.assertIn(extreme, self.pool)
        short = self.pool[self.pool != extreme]
        self.assertNotEqual(checks.pool(self.xs, self.seed, short, self.K),
                            [])

    def test_repeated_or_out_of_range_indices_rejected(self):
        idx = self.sel.indices.copy()
        idx[1] = idx[0]
        self.assertNotEqual(checks.indices(idx, len(self.xs), self.k), [])
        idx[1] = len(self.xs)
        self.assertNotEqual(checks.indices(idx, len(self.xs), self.k), [])

    def test_slope_error_rejects_a_wrong_fit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 3))
        y = 1.0 + x.sum(axis=1) + rng.standard_normal(200)
        idx = np.arange(0, 200, 5)
        z = np.column_stack([np.ones(idx.size), x[idx]])
        coef = np.linalg.solve(z.T @ z, z.T @ y[idx])
        err = float(np.sum((coef[1:] - 1.0) ** 2))
        self.assertEqual(checks.slope_error(x, y, idx, np.ones(3), err), [])
        self.assertNotEqual(checks.slope_error(x, y, idx, np.ones(3),
                                               err * (1 + 1e-6)), [])


if __name__ == "__main__":
    unittest.main()
