"""OLS on subdata, synthetic data generators and experiment runners.

Runners are replay-deterministic: every repetition derives its RNG seed
as base seed + repetition index, so parallel or re-ordered execution
cannot change the results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import exchange, metrics, seeding
from .metrics import SingularMomentError, as_indices, augment


class ConfigError(ValueError):
    """An experiment configuration field failed validation."""


METHODS = ("uniform", "iboss", "oss", "alg1", "valg1")
SEED_METHODS = METHODS[:3]   # what alg1/valg1 can start from
EXCHANGE_METHODS = METHODS[3:]


@dataclass
class ModelParams:
    beta0: float
    beta1: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.beta1 = np.asarray(self.beta1, dtype=float)
        if self.sigma2 < 0:
            raise ConfigError("sigma2 must be >= 0")

    @property
    def beta(self):
        return np.concatenate(([self.beta0], self.beta1))


@dataclass
class OutlierSpec:
    count: int
    mean_shift: np.ndarray

    def __post_init__(self):
        self.mean_shift = np.asarray(self.mean_shift, dtype=float)


@dataclass
class ExperimentConfig:
    n: int
    p: int
    k: int
    K: int
    rho: float = 0.5
    repetitions: int = 100
    alg1_iterations: int = 5
    methods: tuple = METHODS
    rng_seed: int = 0
    outliers: OutlierSpec | None = None
    seed_method: str = "oss"       # what alg1/valg1 start from
    beta0: float = 1.0
    beta1: np.ndarray | None = None   # defaults to all ones
    sigma2: float = 3.0

    def validate(self):
        shift = None if self.outliers is None else self.outliers.mean_shift
        for name, vec in (("beta1", self.beta1),
                          ("outliers.mean_shift", shift)):
            if vec is not None and np.shape(vec) != (self.p,):
                raise ConfigError(f"{name} must have p={self.p} entries")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"k must be in [1, n={self.n}], got {self.k}")
        for name in ("p", "K", "repetitions", "alg1_iterations"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not self.methods:
            raise ConfigError("methods must be a nonempty list")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
            if self.methods.count(m) > 1:
                raise ConfigError(f"method {m!r} is listed more than once")
        if self.seed_method not in SEED_METHODS:
            raise ConfigError(f"invalid seed_method {self.seed_method!r}")
        if self.k == self.n and set(self.methods) & set(EXCHANGE_METHODS):
            raise ConfigError(f"k = n = {self.n} leaves no rows for the "
                              f"exchange pool")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.outliers is not None and \
                not 0 <= self.outliers.count <= self.n:
            raise ConfigError(f"outliers.count must be in [0, n={self.n}]")
        return self

    @property
    def seeds(self):
        """The RNG seed of each repetition: rng_seed + its index."""
        return range(self.rng_seed, self.rng_seed + self.repetitions)

    def model_params(self):
        beta1 = np.ones(self.p) if self.beta1 is None else self.beta1
        return ModelParams(self.beta0, beta1, self.sigma2)


@dataclass
class RunRecord:
    method: str
    repetition: int
    seed: int
    mse: metrics.MseReport | None
    eff: metrics.EfficiencyReport | None
    selection: np.ndarray | None = None
    outliers_selected: int = 0
    error: str | None = None


@dataclass
class ExperimentReport:
    config: object
    records: list[RunRecord] = field(default_factory=list)

    def by_method(self, method):
        return [r for r in self.records if r.method == method and not r.error]

    def aggregates(self):
        out = {}
        for m in dict.fromkeys(r.method for r in self.records):
            recs = self.by_method(m)
            if not recs:
                out[m] = {"failed": True}
                continue
            agg = {"count": len(recs)}
            for name, get in (
                    ("mse_intercept", lambda r: r.mse.mse_intercept),
                    ("mse_slopes", lambda r: r.mse.mse_slopes),
                    ("gen_variance", lambda r: r.eff.gen_variance),
                    ("d_eff", lambda r: r.eff.d_eff),
                    ("a_eff", lambda r: r.eff.a_eff)):
                vals = np.array([get(r) for r in recs])
                agg[name] = {
                    "mean": float(vals.mean()),
                    "median": float(np.median(vals)),
                    "q25": float(np.quantile(vals, 0.25)),
                    "q75": float(np.quantile(vals, 0.75)),
                }
            out[m] = agg
        return out


def ols_fit(x, y, sel):
    """Least-squares fit on the selected rows via the normal equations.

    Returns (full coefficient vector with intercept first, slopes).
    The singularity rule is the failure of scipy's `cho_factor`, not
    `metrics.factor_moment`: numpy's and scipy's Cholesky factors of one
    matrix can differ in the last bit (on 99 of 4,000 random designs
    with 2 to 11 uniform covariates), so moving the fit onto
    `factor_moment` would change the bytes of `simulate` reports.
    Z^T y is summed over blocks of `GEN_ROWS` rows, so that it does not
    depend on the BLAS thread count (see `gen_response`).
    """
    idx = as_indices(sel)
    z = augment(np.asarray(x, dtype=float)[idx])
    ys = np.asarray(y, dtype=float)[idx]
    zy = z[:GEN_ROWS].T @ ys[:GEN_ROWS]
    for a in range(GEN_ROWS, ys.size, GEN_ROWS):
        zy += z[a:a + GEN_ROWS].T @ ys[a:a + GEN_ROWS]
    try:   # scipy raises ValueError on moments that overflowed to inf
        beta = cho_solve(cho_factor(z.T @ z, lower=True), zy)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularMomentError("selection is singular or its moments "
                                  "overflow") from exc
    return beta, beta[1:]


def adjusted_intercept(y_bar_full, x_bar_full, slopes):
    """Intercept from full-data means paired with subdata slopes."""
    x_bar_full = np.asarray(x_bar_full, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    if x_bar_full.shape != slopes.shape:
        raise ValueError("x_bar_full and slopes dimensions differ")
    return float(y_bar_full - x_bar_full @ slopes)


def gen_mvn_equicorr(n, p, rho, rng_seed):
    """Rows i.i.d. N(0, (1-rho) I + rho J)."""
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must be in [0, 1), got {rho}")
    rng = np.random.default_rng(rng_seed)
    g = rng.standard_normal((n, p))
    if rho == 0.0:
        return g
    return math.sqrt(1.0 - rho) * g + \
        math.sqrt(rho) * rng.standard_normal((n, 1))


def gen_outlier_scenario(n, p, count, mean_shift, rho, rng_seed):
    """Equicorrelated normal rows with `count` mean-shifted rows at the end."""
    if count > n:
        raise ValueError(f"count={count} exceeds n={n}")
    x = gen_mvn_equicorr(n, p, rho, rng_seed)
    if count > 0:
        x[n - count:] += np.asarray(mean_shift, dtype=float)
    return x


#: Rows per product of `gen_response`.  One product over many more rows
#: runs on OpenBLAS's worker threads, which then slow the single-threaded
#: numpy work after it; blocks of this size stay on one thread.  They also
#: make y independent of the thread count: where OpenBLAS splits one
#: product among threads, a row at the split can differ in the last bit.
GEN_ROWS = 4096


def gen_response(x, params, rng_seed):
    """y_i = beta0 + x_i . beta1 + eps_i with i.i.d. normal errors."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(rng_seed)
    eps = rng.standard_normal(x.shape[0]) * math.sqrt(params.sigma2)
    xb = np.empty(x.shape[0])
    for a in range(0, x.shape[0], GEN_ROWS):
        np.matmul(x[a:a + GEN_ROWS], params.beta1, out=xb[a:a + GEN_ROWS])
    return params.beta0 + xb + eps


def _cached(cache, key, build):
    """(value, seconds to build it); built once per cache."""
    if key not in cache:
        t0 = time.perf_counter()
        value = build()
        cache[key] = value, time.perf_counter() - t0
    return cache[key]


def select(x_scaled, cfg, method, rep=0, cache=None):
    """One selection; returns (Selection, ExchangeTrace or None, stages).

    alg1/valg1 exchange against the candidate pool of a `cfg.seed_method`
    seed; a uniform seed draws from repetition `rep`'s seed.  `stages`
    holds the seconds of each stage: `seed_s`, and for an exchange
    `pool_s` and `exchange_s`; their sum is the selection's time, matching
    how the exchange is deployed.  `cache`, a dict kept for one dataset
    and one (cfg, rep), builds each seed and the pool once across calls; a
    cached stage counts the seconds it took to build.  `cfg.validate()` is
    the only check of the arguments.
    """
    exchanging = method in EXCHANGE_METHODS
    cache = {} if cache is None else cache
    name = cfg.seed_method if exchanging else method
    build = getattr(seeding, f"{name}_seed")   # looked up per call
    extra = (cfg.seeds[rep],) if name == "uniform" else ()
    seed, seed_s = _cached(cache, name,
                           lambda: build(x_scaled, cfg.k, *extra))
    if not exchanging:
        return seed, None, {"seed_s": seed_s}
    pool, pool_s = _cached(
        cache, "pool", lambda: exchange.candidate_pool(x_scaled, seed, cfg.K))
    t0 = time.perf_counter()
    if method == "alg1":
        sel, trace = exchange.alg1(x_scaled, seed, cfg.K, cfg.alg1_iterations,
                                   pool=pool)
    else:
        sel, trace = exchange.valg1(x_scaled, seed, cfg.K, pool=pool)
    return sel, trace, {"seed_s": seed_s, "pool_s": pool_s,
                        "exchange_s": time.perf_counter() - t0}


def _run_one(x, y, cfg, rep, beta_ref, keep_selections=False):
    """Every method of cfg on repetition rep's data: select, fit, score.

    The methods share one cache, so each seed and the pool are built once.
    """
    seed = cfg.seeds[rep]
    try:
        x_scaled, _ = seeding.scale_to_unit_cube(x)
    except seeding.ColumnRangeError as exc:
        return [RunRecord(m, rep, seed, None, None, error=str(exc))
                for m in cfg.methods]
    records, cache = [], {}
    y_bar, x_bar = y.mean(), x.mean(axis=0)
    for method in cfg.methods:
        try:
            sel = select(x_scaled, cfg, method, rep, cache)[0]
            _, slopes = ols_fit(x, y, sel)
            b0 = adjusted_intercept(y_bar, x_bar, slopes)
            msr = metrics.mse(np.concatenate(([b0], slopes)), beta_ref)
            eff = metrics.efficiency(x_scaled, sel)
        except (SingularMomentError, np.linalg.LinAlgError) as exc:
            records.append(RunRecord(method, rep, seed, None, None,
                                     error=str(exc)))
            continue
        n_out = 0
        if cfg.outliers is not None and cfg.outliers.count > 0:
            n_out = int(np.count_nonzero(
                sel.indices >= cfg.n - cfg.outliers.count))
        records.append(RunRecord(
            method, rep, seed, msr, eff,
            sel.indices.copy() if keep_selections else None, n_out))
    return records


def _repeat(cfg, draw, beta_ref, keep_selections=False):
    """The repetition loop of simulate and bootstrap: repetition rep runs
    `_run_one` on the (x, y) of `draw(cfg.seeds[rep])`."""
    report = ExperimentReport(cfg)
    for rep, seed in enumerate(cfg.seeds):
        x, y = draw(seed)
        report.records += _run_one(x, y, cfg, rep, beta_ref, keep_selections)
    return report


def run_experiment(config, keep_selections=False):
    """Simulation protocol: generate, select, fit, score, repeat."""
    cfg = config.validate()
    params = cfg.model_params()

    def draw(seed):
        if cfg.outliers is not None:
            x = gen_outlier_scenario(cfg.n, cfg.p, cfg.outliers.count,
                                     cfg.outliers.mean_shift, cfg.rho, seed)
        else:
            x = gen_mvn_equicorr(cfg.n, cfg.p, cfg.rho, seed)
        return x, gen_response(x, params, seed + 10 ** 9)

    return _repeat(cfg, draw, params.beta, keep_selections)


def bootstrap_mse(x, y, B: int, method: str, k: int, K: int,
                  rng_seed: int = 0, iterations: int = 5,
                  seed_method: str = "oss"):
    """Bootstrap the subdata-selection MSE on a fixed dataset.

    Each of the B resamples draws n rows with replacement, runs the
    selection method, fits OLS on the selected rows, and scores the fit
    against the full-data OLS coefficients of the *original* dataset.
    """
    if B < 1:
        raise ConfigError("B must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    cfg = ExperimentConfig(n=n, p=p, k=k, K=K, repetitions=B,
                           alg1_iterations=iterations,
                           methods=(method,), rng_seed=rng_seed,
                           seed_method=seed_method).validate()
    beta_ref, _ = ols_fit(x, y, np.arange(n))

    def draw(seed):
        rows = np.random.default_rng(seed).integers(0, n, size=n)
        return x[rows], y[rows]

    return _repeat(cfg, draw, beta_ref)


@dataclass
class TimingCell:
    k: int
    K: int
    iterations: int
    mean_seconds: float      # pool build plus the exchange to pass end
    mean_pct_v_gain: float   # percent increase of V over the seed


def timing_study(ks: list[int], Ks: list[int], iteration_counts: list[int],
                 n: int = 1000, p: int = 7, rho: float = 0.5,
                 repetitions: int = 50, rng_seed: int = 0,
                 seed_method: str = "oss"):
    """Mean exchange wall time and V gain per (k, K, iterations) cell.

    Each (k, K, repetition) runs one `select` of alg1, for the largest
    iteration count, and reads every cell off that run's per-pass trace:
    the first m passes of a run are the m-pass run.  A cell's time is the
    pool build's plus the exchange's from its start to the end of pass m.
    """
    if not (ks and Ks and iteration_counts):
        raise ConfigError("timing grid must be nonempty lists")
    if min(*ks, *Ks, *iteration_counts) < 1:
        raise ConfigError("ks, Ks and iteration_counts must be >= 1")
    # validate also rejects each k >= n: k = n leaves alg1 no pool rows
    cfgs = [ExperimentConfig(n, p, k, K, rho, repetitions,
                             alg1_iterations=max(iteration_counts),
                             methods=("alg1",), rng_seed=rng_seed,
                             seed_method=seed_method).validate()
            for k in ks for K in Ks]
    datasets = [seeding.scale_to_unit_cube(
        gen_mvn_equicorr(n, p, rho, seed))[0] for seed in cfgs[0].seeds]
    cells = []
    for cfg in cfgs:
        runs = [select(xs, cfg, "alg1", rep)[1:]
                for rep, xs in enumerate(datasets)]
        for m in iteration_counts:
            secs = [stages["pool_s"] + trace.pass_seconds[m - 1]
                    for trace, stages in runs]
            gains = [100.0 * math.expm1(trace.pass_log_v[m - 1]
                                        - trace.initial_log_v)
                     for trace, _ in runs]
            cells.append(TimingCell(cfg.k, cfg.K, m, float(np.mean(secs)),
                                    float(np.mean(gains))))
    return cells
