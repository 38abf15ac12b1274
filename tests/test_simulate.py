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

    def test_solve_matches_cho_solve(self):
        # ols_fit calls LAPACK dpotrf and dpotrs itself; it must give the
        # bits of scipy's cho_factor and cho_solve, and fail where they do
        from scipy.linalg import cho_factor, cho_solve
        rng = np.random.default_rng(12)
        for trial in range(3000):
            p1 = 1 + trial % 12
            k = max(1, p1 + int(rng.integers(-3, 200)))   # k < p1: singular
            x = rng.uniform(-1, 1, (k, p1 - 1))
            if trial % 3 == 1:   # ties, and now and then a singular design
                x = np.round(x, 1)
            elif trial % 3 == 2 and p1 > 2:   # one nearly collinear column
                x[:, -1] = x[:, 0] + 1e-7 * rng.standard_normal(k)
            y = rng.standard_normal(k)
            z = metrics.augment(x)
            try:
                want = cho_solve(cho_factor(z.T @ z, lower=True), z.T @ y)
            except (np.linalg.LinAlgError, ValueError) as exc:
                with pytest.raises(metrics.SingularMomentError) as got:
                    simulate.ols_fit(x, y, np.arange(k))
                assert type(got.value.__cause__) is type(exc)
                continue
            beta, _ = simulate.ols_fit(x, y, np.arange(k))
            assert beta.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("outliers", [None, OutlierSpec(10, [8.0, 0, 0])],
                             ids=["no-outliers", "outliers"])
    def test_intercept_pairs_full_data_means_with_subdata_slopes(
            self, outliers):
        # each record's intercept error is that of ybar - xbar . slopes,
        # with the slopes refitted on its selection, bit for bit
        cfg = self.small_config(methods=simulate.METHODS, outliers=outliers)
        count = 0 if outliers is None else outliers.count
        report = simulate.run_experiment(cfg, keep_selections=True)
        for rec in report.records:
            x = simulate.gen_outlier_scenario(cfg.n, cfg.p, count, [8.0, 0, 0],
                                              cfg.rho, rec.seed)
            y = simulate.gen_response(x, cfg.model_params(), rec.seed + 10**9)
            _, slopes = simulate.ols_fit(x, y, rec.selection)
            b0 = y.mean() - x.mean(axis=0) @ slopes
            assert (b0 - cfg.beta0) ** 2 == rec.mse.mse_intercept
            assert rec.outliers_selected == \
                np.count_nonzero(rec.selection >= cfg.n - count)

    def test_noiseless_model_recovers_beta0(self):
        cfg = self.small_config(methods=simulate.METHODS, sigma2=0.0,
                                beta0=2.5, beta1=np.array([1.0, -1.0, 0.5]))
        recs = [r for r in simulate.run_experiment(cfg).records
                if not r.error]
        assert len(recs) == 10
        for rec in recs:
            assert rec.mse.mse_intercept == pytest.approx(0.0, abs=1e-16)
            assert rec.mse.mse_slopes == pytest.approx(0.0, abs=1e-16)

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
        with pytest.raises(ConfigError, match=r"^sigma2 must be >= 0$"):
            self.small_config(sigma2=-1.0).validate()
        # numpy integers must not wrap in the size bound
        with pytest.raises(ConfigError, match=r"^n=4611686018427387904 rows "
                                              r"of p=3 doubles are more"):
            self.small_config(n=np.int64(2 ** 62)).validate()
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

    def test_exchange_time_is_the_trace_clock(self):
        # exchange_s is the end of the trace's last pass, on its own clock
        cfg = self.small_config(methods=simulate.EXCHANGE_METHODS).validate()
        xs, _ = seeding.scale_to_unit_cube(
            simulate.gen_mvn_equicorr(cfg.n, cfg.p, cfg.rho, cfg.rng_seed))
        cache = {}
        for method in simulate.EXCHANGE_METHODS:
            _, trace, stages = simulate.select(xs, cfg, method, cache=cache)
            assert stages["exchange_s"] == trace.pass_seconds[-1]

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
