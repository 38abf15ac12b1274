import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdopt import exchange, metrics, seeding, simulate
from subdopt.simulate import (ConfigError, ExperimentConfig, ModelParams,
                              OutlierSpec)


class TestOlsFit:
    def test_noiseless_line(self):
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        y = 1.0 + 2.0 * x[:, 0]
        beta, slopes = simulate.ols_fit(x, y, [0, 3, 7])
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(slopes, [2.0], atol=1e-10)

    def test_factorial_plane(self):
        x = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        y = 1.0 + x[:, 0] - x[:, 1]
        beta, _ = simulate.ols_fit(x, y, range(4))
        np.testing.assert_allclose(beta, [1.0, 1.0, -1.0], atol=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        sel = np.arange(0, 60, 3)
        beta, _ = simulate.ols_fit(x, y, sel)
        z = np.column_stack([np.ones(sel.size), x[sel]])
        ref = np.linalg.lstsq(z, y[sel], rcond=None)[0]
        np.testing.assert_allclose(beta, ref, atol=1e-8)

    @pytest.mark.parametrize("x, cause", [
        (np.column_stack([np.arange(4.0), np.full(4, 5.0)]),
         np.linalg.LinAlgError),
        (np.arange(8.0).reshape(4, 2) * 1e200, ValueError),
    ], ids=["constant-covariate", "overflowing-moments"])
    def test_singular_or_overflowing_moments_raise(self, x, cause):
        # scipy's cho_factor fails on the singular moments, and rejects
        # the moments that overflowed to inf
        with np.errstate(over="ignore"), \
                pytest.raises(metrics.SingularMomentError) as got:
            simulate.ols_fit(x, np.ones(4), range(4))
        assert isinstance(got.value.__cause__, cause)

    def test_full_data_fit_independent_of_thread_count(self):
        # bootstrap_mse fits all n rows for its reference.  One Z^T y
        # product over 60,000 rows differs in the last bit between one
        # BLAS thread and several, so the fit sums it over GEN_ROWS
        # blocks.  With one CPU both children run on one thread, and the
        # test cannot tell the two apart.
        code = """
import hashlib
import numpy as np
from subdopt import simulate
rng = np.random.default_rng(8)
x, y = rng.standard_normal((60_000, 10)), rng.standard_normal(60_000)
beta, _ = simulate.ols_fit(x, y, np.arange(60_000))
print(hashlib.sha256(beta.tobytes()).hexdigest())
"""
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                               "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(simulate.__file__).parents[1])
        digests = [subprocess.run(
            [sys.executable, "-c", code], env=env | threads,
            capture_output=True, text=True, timeout=120, check=True).stdout
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
        assert digests[0] == digests[1] != ""


class TestConditionalSlopeMse:
    def test_realised_mean_matches_trace(self):
        # The selection depends on x alone, so given the selected rows
        # the OLS slope error has mean sigma^2 tr[(Z_s'Z_s)^-1] over the
        # slope block; the acceptance criteria rank methods by it.
        x = simulate.gen_mvn_equicorr(500, 3, 0.5, 0)
        sel = seeding.iboss_seed(seeding.scale_to_unit_cube(x)[0], 24)
        params = ModelParams(1.0, [1.0, -1.0, 0.5], 3.0)
        z = metrics.augment(x[sel.indices])
        expected = params.sigma2 * np.trace(np.linalg.inv(z.T @ z)[1:, 1:])
        errs = np.empty(4000)
        for b in range(errs.size):
            y = simulate.gen_response(x, params, b)
            beta, _ = simulate.ols_fit(x, y, sel)
            errs[b] = metrics.mse(beta, params.beta).mse_slopes
        mc_se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(errs.mean() - expected) < 4 * mc_se


class TestAdjustedIntercept:
    def test_hand_value(self):
        assert simulate.adjusted_intercept(10.0, [1.0, 2.0], [1.0, 1.0]) \
            == pytest.approx(7.0)

    def test_centered_covariates(self):
        assert simulate.adjusted_intercept(5.0, [0.0, 0.0], [3.0, -2.0]) \
            == pytest.approx(5.0)

    def test_noiseless_model_recovers_beta0(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((500, 3))
        params = ModelParams(2.5, [1.0, -1.0, 0.5], 0.0)
        y = simulate.gen_response(x, params, 0)
        _, slopes = simulate.ols_fit(x, y, np.arange(40))
        b0 = simulate.adjusted_intercept(y.mean(), x.mean(axis=0), slopes)
        assert b0 == pytest.approx(2.5, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate.adjusted_intercept(1.0, [1.0], [1.0, 2.0])


class TestGenerators:
    def test_identity_covariance(self):
        x = simulate.gen_mvn_equicorr(100_000, 4, 0.0, 1)
        cov = np.cov(x.T)
        se = 5.0 / np.sqrt(100_000)
        assert np.all(np.abs(cov - np.eye(4)) < 5 * se * 3)

    def test_equicorrelated_half(self):
        x = simulate.gen_mvn_equicorr(100_000, 4, 0.5, 2)
        cov = np.cov(x.T)
        off = cov[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.5) < 0.03)
        assert np.all(np.abs(np.diag(cov) - 1.0) < 0.03)

    def test_determinism(self):
        a = simulate.gen_mvn_equicorr(500, 3, 0.5, 7)
        b = simulate.gen_mvn_equicorr(500, 3, 0.5, 7)
        np.testing.assert_array_equal(a, b)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            simulate.gen_mvn_equicorr(10, 2, 1.0, 0)

    def test_outliers_shifted(self):
        x = simulate.gen_outlier_scenario(5000, 3, 50, [5.0, 0.0, 0.0],
                                          0.5, 3)
        assert x[-50:, 0].mean() == pytest.approx(5.0, abs=1.0)
        assert abs(x[:-50, 0].mean()) < 0.2

    def test_zero_outliers_degenerate(self):
        a = simulate.gen_outlier_scenario(200, 2, 0, [5.0, 0.0], 0.5, 4)
        b = simulate.gen_mvn_equicorr(200, 2, 0.5, 4)
        np.testing.assert_array_equal(a, b)

    def test_count_exceeds_n(self):
        with pytest.raises(ValueError):
            simulate.gen_outlier_scenario(10, 2, 11, [1.0, 0.0], 0.0, 0)

    def test_noiseless_response(self):
        x = np.arange(6.0).reshape(-1, 2)
        params = ModelParams(1.0, [2.0, 3.0], 0.0)
        y = simulate.gen_response(x, params, 0)
        np.testing.assert_allclose(y, 1.0 + x @ [2.0, 3.0])

    def test_blocked_product_is_one_product(self):
        # n is not a multiple of GEN_ROWS.  The reference is one product
        # on one BLAS thread, in a child process: on more threads OpenBLAS
        # splits the rows among them, and a row at a split can differ in
        # the last bit, so the blocked product does not depend on the
        # thread count either
        n = 25 * simulate.GEN_ROWS + 37
        code = f"""
import hashlib, math
import numpy as np
from subdopt import simulate
x = simulate.gen_mvn_equicorr({n}, 10, 0.5, 3)
params = simulate.ModelParams(1.0, np.linspace(-2.0, 2.0, 10), 3.0)
eps = np.random.default_rng(4).standard_normal({n}) * math.sqrt(3.0)
for y in (params.beta0 + x @ params.beta1 + eps,
          simulate.gen_response(x, params, 4)):
    print(hashlib.sha256(y.tobytes()).hexdigest())
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=str(Path(simulate.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
        x = simulate.gen_mvn_equicorr(n, 10, 0.5, 3)
        params = ModelParams(1.0, np.linspace(-2.0, 2.0, 10), 3.0)
        here = simulate.gen_response(x, params, 4)
        assert child.stdout.split() == \
            [hashlib.sha256(here.tobytes()).hexdigest()] * 2

    def test_residual_variance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100_000, 2))
        params = ModelParams(1.0, [1.0, 1.0], 3.0)
        y = simulate.gen_response(x, params, 9)
        resid = y - (1.0 + x @ params.beta1)
        assert resid.var() == pytest.approx(3.0, rel=0.05)


class TestRunExperiment:
    def small_config(self, **kw):
        base = dict(n=400, p=3, k=24, K=6, rho=0.5, repetitions=2,
                    alg1_iterations=2, methods=("uniform", "oss"),
                    rng_seed=5)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_record_cardinality(self):
        report = simulate.run_experiment(self.small_config())
        assert len(report.records) == 4  # 2 methods x 2 repetitions

    def test_determinism(self):
        a = simulate.run_experiment(self.small_config())
        b = simulate.run_experiment(self.small_config())
        for ra, rb in zip(a.records, b.records):
            assert ra.mse == rb.mse
            assert ra.eff == rb.eff

    def test_per_record_identity(self):
        cfg = self.small_config(methods=("oss", "valg1"))
        report = simulate.run_experiment(cfg, keep_selections=True)
        for rec in report.records:
            x = simulate.gen_mvn_equicorr(cfg.n, cfg.p, cfg.rho, rec.seed)
            from subdopt import seeding
            xs, _ = seeding.scale_to_unit_cube(x)
            again = metrics.efficiency(xs, rec.selection)
            assert rec.eff.gen_variance == pytest.approx(
                again.gen_variance, rel=1e-10)

    def test_outlier_rows_reported(self):
        cfg = self.small_config(
            methods=("iboss",),
            outliers=OutlierSpec(10, np.array([8.0, 0.0, 0.0])))
        report = simulate.run_experiment(cfg)
        # IBOSS chases covariate-1 extremes, so shifted rows get picked
        assert any(r.outliers_selected > 0 for r in report.records)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            self.small_config(k=1000).validate()
        with pytest.raises(ConfigError):
            self.small_config(K=0).validate()
        with pytest.raises(ConfigError):
            self.small_config(methods=()).validate()
        with pytest.raises(ConfigError):
            self.small_config(methods=("magic",)).validate()
        # an exchange needs a pool row outside the selection
        for methods in (("alg1",), ("uniform", "valg1")):
            with pytest.raises(ConfigError, match=r"^k = n = 400 leaves no "
                                                  r"rows for the exchange "
                                                  r"pool$"):
                self.small_config(k=400, methods=methods).validate()

    def test_k_equal_n_accepted_for_seeds_alone(self):
        cfg = self.small_config(k=400, methods=simulate.SEED_METHODS)
        assert cfg.validate() is cfg

    def test_one_repetition_builds_each_stage_once(self, monkeypatch):
        # the methods share one cache, and each stage is looked up on its
        # module per call, where a benchmark trace wraps it
        calls = {}
        for module, name in ((seeding, "uniform_seed"),
                             (seeding, "iboss_seed"), (seeding, "oss_seed"),
                             (exchange, "candidate_pool"),
                             (exchange, "alg1"), (exchange, "valg1")):
            def counted(*args, _fn=getattr(module, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        report = simulate.run_experiment(self.small_config(
            repetitions=1, methods=simulate.METHODS))
        assert [r.method for r in report.records if not r.error] == \
            list(simulate.METHODS)
        assert calls == dict.fromkeys(
            ["uniform_seed", "iboss_seed", "oss_seed", "candidate_pool",
             "alg1", "valg1"], 1)

    def test_aggregates_shape(self):
        report = simulate.run_experiment(self.small_config())
        agg = report.aggregates()
        assert set(agg) == {"uniform", "oss"}
        assert agg["oss"]["mse_slopes"]["mean"] >= 0


class TestBootstrap:
    def make_data(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((300, 3))
        y = 1.0 + x @ np.ones(3) + rng.standard_normal(300)
        return x, y

    def test_degenerate_identity_resample(self):
        # with k = n the selection is the whole resample, so the MSE is
        # that of a least-squares fit on the resampled rows
        x, y = self.make_data()
        n = len(x)
        report = simulate.bootstrap_mse(x, y, 1, "uniform", n, 4, rng_seed=7)
        rows = np.random.default_rng(7).integers(0, n, n)
        xb, yb = x[rows], y[rows]

        def lstsq(x, y):
            z = np.column_stack([np.ones(len(x)), x])
            return np.linalg.lstsq(z, y, rcond=None)[0]

        ref, slopes = lstsq(x, y), lstsq(xb, yb)[1:]
        b0 = yb.mean() - xb.mean(axis=0) @ slopes
        rec = report.records[0]
        assert rec.mse.mse_slopes == pytest.approx(
            np.sum((slopes - ref[1:]) ** 2), rel=1e-9)
        assert rec.mse.mse_intercept == pytest.approx(
            (b0 - ref[0]) ** 2, rel=1e-9)
        assert rec.mse.mse_slopes > 1e-6

    def test_reproducible(self):
        x, y = self.make_data()
        a = simulate.bootstrap_mse(x, y, 3, "oss", 30, 6, rng_seed=2)
        b = simulate.bootstrap_mse(x, y, 3, "oss", 30, 6, rng_seed=2)
        for ra, rb in zip(a.records, b.records):
            assert ra.mse == rb.mse

    def test_record_count(self):
        x, y = self.make_data()
        report = simulate.bootstrap_mse(x, y, 5, "iboss", 24, 4)
        assert len(report.records) == 5


class TestTimingStudy:
    def test_single_cell(self):
        cells = simulate.timing_study([10], [4], [1], n=200, p=2,
                                      repetitions=2, rng_seed=0)
        assert len(cells) == 1
        assert cells[0].mean_seconds > 0
        assert cells[0].mean_pct_v_gain >= 0

    def test_grid_shape(self):
        cells = simulate.timing_study([8, 10], [4], [1, 2], n=150, p=2,
                                      repetitions=2, rng_seed=1)
        assert len(cells) == 4

    def test_cells_match_fresh_runs(self):
        # every cell is read off one run of the largest count; it must
        # equal the cell computed from a fresh run of exactly m passes
        counts = [4, 1, 2, 6]
        kw = dict(n=300, p=3, rho=0.5, repetitions=3, rng_seed=5)
        cells = simulate.timing_study([12, 20], [6, 10], counts, **kw)
        assert [(c.k, c.K, c.iterations) for c in cells] == [
            (k, K, m) for k in (12, 20) for K in (6, 10) for m in counts]
        datasets = [seeding.scale_to_unit_cube(simulate.gen_mvn_equicorr(
            300, 3, 0.5, 5 + rep))[0] for rep in range(3)]
        for cell in cells:
            gains = []
            for rep, xs in enumerate(datasets):
                seed = seeding.oss_seed(xs, cell.k)
                _, trace = exchange.alg1(xs, seed, cell.K, cell.iterations)
                gains.append(100.0 * math.expm1(
                    trace.final_log_v - trace.initial_log_v))
            assert cell.mean_pct_v_gain == np.mean(gains)
        # the passes after the first still gain somewhere, so an
        # off-by-one in the pass index would show
        by_m = {m: [c.mean_pct_v_gain for c in cells if c.iterations == m]
                for m in counts}
        assert by_m[2] != by_m[1]
        for k, K in ((12, 6), (12, 10), (20, 6), (20, 10)):
            secs = [c.mean_seconds for c in cells if (c.k, c.K) == (k, K)]
            assert secs[1] <= secs[2] <= secs[0] <= secs[3]

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            simulate.timing_study([], [4], [1])
