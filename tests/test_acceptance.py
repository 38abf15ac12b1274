"""Acceptance suite: study-scale behavior of the selection toolkit.

Each test covers one numbered criterion and reports a one-line verdict
through the conftest banner.  Statistical criteria run at desk scale
(seconds to a couple of minutes each); the whole module takes several
minutes.  All runs are seeded, so results are reproducible.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import gen_var, record_criterion
from subdopt import cli, exchange, metrics, seeding, simulate

pytestmark = pytest.mark.acceptance


def column(report, method, get):
    return np.array([get(r) for r in report.by_method(method)])


def mse_slopes(report, method):
    return column(report, method, lambda r: r.mse.mse_slopes)


def one_sided_less(a, b):
    """p-value for the alternative mean(a) < mean(b), paired."""
    # imported here: scipy.stats takes about a second to import, and the
    # fast suite (-m "not acceptance") collects this module only to skip it
    from scipy import stats
    t, p_two = stats.ttest_rel(a, b)
    return p_two / 2 if t < 0 else 1 - p_two / 2


DESK = dict(n=10_000, p=10, k=100, K=25, rho=0.5, repetitions=100,
            alg1_iterations=5, rng_seed=0,
            methods=("iboss", "oss", "alg1", "valg1"))


@pytest.fixture(scope="module")
def desk_run():
    return simulate.run_experiment(simulate.ExperimentConfig(**DESK),
                                   keep_selections=True)


def efficiency_orderings(report):
    """Mean-efficiency orderings valg1 >= alg1 > oss, and the per-rep
    count of replications where each exchange run improved V over its
    oss seed (the oss record is that seed)."""
    d = {m: column(report, m, lambda r: r.eff.d_eff).mean()
         for m in ("oss", "alg1", "valg1")}
    a = {m: column(report, m, lambda r: r.eff.a_eff).mean()
         for m in ("oss", "alg1", "valg1")}
    gv = {m: column(report, m, lambda r: r.eff.gen_variance)
          for m in ("oss", "alg1", "valg1")}
    reps = gv["oss"].size
    improved = min(int(np.sum(gv["alg1"] > gv["oss"])),
                   int(np.sum(gv["valg1"] > gv["oss"])))
    ok = (d["valg1"] >= d["alg1"] > d["oss"]
          and a["valg1"] >= a["alg1"] > a["oss"]
          and improved == reps)
    detail = (f"d_eff oss/alg1/valg1 = {d['oss']:.4f}/{d['alg1']:.4f}/"
              f"{d['valg1']:.4f}, a_eff = {a['oss']:.4f}/{a['alg1']:.4f}/"
              f"{a['valg1']:.4f}, V improved {improved}/{reps}")
    return ok, detail


def design(cfg, seed):
    """The unscaled covariates of the repetition run with `seed`."""
    if cfg.outliers is not None:
        return simulate.gen_outlier_scenario(
            cfg.n, cfg.p, cfg.outliers.count, cfg.outliers.mean_shift,
            cfg.rho, seed)
    return simulate.gen_mvn_equicorr(cfg.n, cfg.p, cfg.rho, seed)


def conditional_slope_mse(report):
    """Per method, each repetition's expected slope MSE given its rows.

    The selection depends on x alone, so given the selected rows Z_s the
    OLS slope error has expectation sigma^2 tr[(Z_s'Z_s)^-1] over the
    slope block.  Ranking methods by it removes the response noise, which
    at 100 repetitions is larger than the gaps the criteria test.  Needs
    a report run with keep_selections=True.
    """
    cfg = report.config
    out = {}
    x_seed = None
    for r in report.records:
        if r.error:
            continue
        if r.seed != x_seed:
            x, x_seed = design(cfg, r.seed), r.seed
        z = metrics.augment(x[r.selection])
        cov = np.linalg.inv(z.T @ z)
        out.setdefault(r.method, []).append(
            cfg.sigma2 * np.trace(cov[1:, 1:]))
    return {m: np.array(v) for m, v in out.items()}


def mse_orderings(report, alpha=0.05):
    """alg1, valg1 <= oss <= iboss in mean conditional slope MSE, each leg
    confirmed by a one-sided paired t-test at level alpha."""
    methods = ("iboss", "oss", "alg1", "valg1")
    ms = conditional_slope_mse(report)
    legs = []
    for lo, hi in (("alg1", "oss"), ("valg1", "oss"), ("oss", "iboss")):
        p = one_sided_less(ms[lo], ms[hi])
        legs.append((lo, hi, ms[lo].mean(), ms[hi].mean(), p))
    ok = all(lo_mean <= hi_mean and p < alpha
             for _, _, lo_mean, hi_mean, p in legs)
    detail = "; ".join(
        f"{lo}({lo_mean:.3f}) <= {hi}({hi_mean:.3f}) p={p:.2g}"
        for lo, hi, lo_mean, hi_mean, p in legs)
    realised = "/".join(f"{mse_slopes(report, m).mean():.3f}"
                        for m in methods)
    detail += f"; realised {'/'.join(methods)} = {realised}"
    return ok, detail


def test_criterion_1_exchange_improvement(desk_run):
    ok, detail = efficiency_orderings(desk_run)
    assert record_criterion(1, ok, detail)


def test_criterion_2_mse_ordering(desk_run):
    ok, detail = mse_orderings(desk_run)
    assert record_criterion(2, ok, detail)


def test_criterion_3_mse_decreases_in_n():
    means, realised = [], []
    for n in (5_000, 10_000, 100_000):
        cfg = simulate.ExperimentConfig(
            n=n, p=10, k=100, K=25, rho=0.5, repetitions=100,
            methods=("valg1",), rng_seed=0)
        report = simulate.run_experiment(cfg, keep_selections=True)
        means.append(conditional_slope_mse(report)["valg1"].mean())
        realised.append(mse_slopes(report, "valg1").mean())
    ok = means[0] > means[1] > means[2]
    detail = ("valg1 conditional slope MSE at n=5e3/1e4/1e5 = "
              + "/".join(f"{m:.4f}" for m in means)
              + " (realised " + "/".join(f"{m:.4f}" for m in realised)
              + ")")
    assert record_criterion(3, ok, detail)


def test_criterion_4_factorial_efficiencies():
    worst = 0.0
    for p in (2, 3):
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=p)))
        filler = np.full((4, p), 0.1)
        x = np.vstack([corners, filler])
        eff = metrics.efficiency(x, np.arange(corners.shape[0]))
        worst = max(worst, abs(eff.d_eff - 1.0), abs(eff.a_eff - 1.0))
    ok = worst < 1e-10
    assert record_criterion(
        4, ok, f"full factorial p=2,3: max |efficiency - 1| = {worst:.2e}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for trial in range(50):
        n = int(rng.integers(9, 15))
        k = int(rng.integers(3, 7))
        x = rng.uniform(-1.0, 1.0, (n, 2))
        seed = seeding.uniform_seed(x, k, trial)

        sel, _ = exchange.alg1(x, seed, 4, iterations=3)
        v_seed = gen_var(x, seed.indices)
        v_alg = gen_var(x, sel.indices)
        v_best = max(gen_var(x, np.array(c))
                     for c in itertools.combinations(range(n), k))
        assert v_seed <= v_alg * (1 + 1e-9)
        assert v_alg <= v_best * (1 + 1e-9)
        worst_gap = max(worst_gap, (v_best - v_alg) / v_best)

        # scan-all variant with the pool forced to all remaining rows
        # must land on the per-slot argmax at every slot
        K_full = 2 * (n - k)
        selv, _ = exchange.valg1(x, seed, K_full)
        idx = seed.indices.copy()
        pool = exchange.candidate_pool(x, seed, K_full).indices.copy()
        assert set(pool) == set(range(n)) - set(idx)
        for i in range(k):
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
        np.testing.assert_array_equal(selv.indices, idx)
    assert record_criterion(
        5, True, "50 instances: seed <= alg1 <= exhaustive best "
        f"(max relative gap to optimum {worst_gap:.3f}); "
        "valg1 matched the per-slot argmax oracle")


def test_criterion_6_kernel_equivalence():
    rng = np.random.default_rng(1)
    worst_swap = 0.0
    worst_genvar = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 11))
        k = int(rng.integers(p + 2, p + 8))
        n = k + int(rng.integers(2, 10))
        x = rng.standard_normal((n, p))
        idx = rng.choice(n, size=k, replace=False)
        log_det = metrics.efficiency(x, idx).log_det_q

        slot = int(rng.integers(k))
        inbound = int(rng.choice(np.setdiff1d(np.arange(n), idx)))
        z = metrics.augment(x)
        # the exchange's own score: M and c refactored from the rows
        _, M, c = exchange._scan_state(z[idx], z[[inbound]])
        delta = math.log(
            exchange.swap_scores(M, c, z[[inbound]], z[idx[slot]])[0])
        new_idx = idx.copy()
        new_idx[slot] = inbound
        rebuilt = metrics.efficiency(x, new_idx).log_det_q
        rel = abs(delta - (rebuilt - log_det)) / max(
            abs(rebuilt - log_det), 1.0)
        worst_swap = max(worst_swap, rel)

        det_q = math.exp(log_det)
        det_cov = gen_var(x, idx)
        rel = abs(det_q - k ** (p + 1) * det_cov) / det_q
        worst_genvar = max(worst_genvar, rel)
    ok = worst_swap < 1e-8 and worst_genvar < 1e-8
    assert record_criterion(
        6, ok, f"1000 trials: swap-vs-rebuild rel err {worst_swap:.2e}, "
        f"genvar identity rel err {worst_genvar:.2e}")


def test_criterion_7_iteration_economics():
    iteration_counts = [1, 3, 5, 7, 10, 12, 15, 18, 20]
    cells = simulate.timing_study([28, 42, 56], [20, 40, 60],
                                  iteration_counts, n=1000, p=7,
                                  repetitions=50, rng_seed=0)
    by_cell = {}
    for c in cells:
        by_cell.setdefault((c.k, c.K), {})[c.iterations] = c
    r2s = []
    late_total = early_total = 0.0
    for (k, K), d in sorted(by_cell.items()):
        its = np.array(sorted(d), dtype=float)
        secs = np.array([d[i].mean_seconds for i in sorted(d)])
        r2 = float(np.corrcoef(its, secs)[0, 1] ** 2)
        r2s.append(((k, K), r2))
        early_total += d[5].mean_pct_v_gain           # gain from 0 to 5
        late_total += d[20].mean_pct_v_gain - d[12].mean_pct_v_gain
    ratio = late_total / early_total
    # wall-clock linearity is advisory (machine-dependent); the V-gain
    # saturation is the hard half of the criterion
    r2_txt = ", ".join(f"k={k},K={K}: R2={r2:.2f}" for (k, K), r2 in r2s)
    ok = ratio < 0.10
    assert record_criterion(
        7, ok, f"gain(12->20)/gain(0->5) = {ratio:.3f} (< 0.10); "
        f"time-vs-iterations linearity advisory: {r2_txt}")


@pytest.mark.parametrize("mu1", [5.0, 7.0])
def test_criterion_8_outlier_scenarios(mu1):
    shift = np.zeros(10)
    shift[0] = mu1
    cfg = simulate.ExperimentConfig(
        n=100_000, p=10, k=100, K=25, rho=0.5, repetitions=100,
        alg1_iterations=5, rng_seed=0,
        methods=("iboss", "oss", "alg1", "valg1"),
        outliers=simulate.OutlierSpec(50, shift))
    report = simulate.run_experiment(cfg, keep_selections=True)
    ok_eff, detail_eff = efficiency_orderings(report)
    ok_mse, detail_mse = mse_orderings(report)
    assert record_criterion(
        8, ok_eff and ok_mse,
        f"mu1={mu1}: {detail_eff}; {detail_mse}")


def test_criterion_9_hull_containment():
    # containment: every covariate pair, several selection methods
    x = simulate.gen_mvn_equicorr(300, 4, 0.5, 0)
    xs, _ = seeding.scale_to_unit_cube(x)
    selections = [seeding.uniform_seed(xs, 30, 0),
                  seeding.iboss_seed(xs, 32),
                  seeding.oss_seed(xs, 30)]
    for sel in selections:
        for i, j in itertools.combinations(range(4), 2):
            _, full_area = metrics.hull_2d(xs[:, [i, j]])
            _, sub_area = metrics.hull_2d(xs[sel.indices][:, [i, j]])
            assert sub_area <= full_area + 1e-12

    # coverage: the exchange expands the seed's hull on correlated pairs
    wins = 0
    runs = 100
    for rep in range(runs):
        xp = simulate.gen_mvn_equicorr(500, 2, 0.9, rep)
        xps, _ = seeding.scale_to_unit_cube(xp)
        seed = seeding.oss_seed(xps, 20)
        sel, _ = exchange.valg1(xps, seed, 10)
        _, a_seed = metrics.hull_2d(xps[seed.indices])
        _, a_v = metrics.hull_2d(xps[sel.indices])
        wins += a_v >= a_seed
    ok = wins >= 0.9 * runs
    assert record_criterion(
        9, ok, "subdata hull contained for all pairs/methods; "
        f"valg1 hull >= seed hull in {wins}/{runs} runs")


def test_criterion_10_replay_determinism(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 3))
    y = 1.0 + x @ np.ones(3) + rng.standard_normal(150)
    data = tmp_path / "data.csv"
    lines = ["a,b,c,resp"] + [
        ",".join(f"{v:.8f}" for v in row) + f",{yy:.8f}"
        for row, yy in zip(x, y)]
    data.write_text("\n".join(lines) + "\n")

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(dict(
        n=300, p=2, k=20, K=6, repetitions=3,
        methods=["oss", "valg1"], rng_seed=4)))
    boot_cfg = tmp_path / "boot.json"
    boot_cfg.write_text(json.dumps(dict(
        input={"path": str(data), "response": "resp"},
        B=3, method="alg1", k=16, K=4, rng_seed=2)))
    timing_cfg = tmp_path / "timing.json"
    timing_cfg.write_text(json.dumps(dict(
        ks=[10], Ks=[4], iteration_counts=[1, 3], n=150, p=2,
        repetitions=3, rng_seed=0)))

    sel_dir = tmp_path / "select"
    commands = {
        "select": ["select", "--input", str(data), "--response", "resp",
                   "--method", "valg1", "--k", "15", "--K", "6",
                   "--seed", "1", "--out", str(sel_dir)],
        "simulate": ["simulate", "--config", str(sim_cfg),
                     "--out", str(tmp_path / "simulate")],
        "bootstrap": ["bootstrap", "--config", str(boot_cfg),
                      "--out", str(tmp_path / "bootstrap")],
        "timing": ["timing", "--config", str(timing_cfg),
                   "--out", str(tmp_path / "timing")],
    }
    results = []
    for name, argv in commands.items():
        assert cli.main(argv) == 0
    # hull consumes the select output, so it runs after
    hull_dir = tmp_path / "hull"
    assert cli.main(["hull", "--input", str(data), "--response", "resp",
                     "--selection", str(sel_dir / "indices.txt"),
                     "--pairs", "a,b", "b,c", "--out", str(hull_dir)]) == 0
    commands["hull"] = None

    for name in commands:
        outdir = tmp_path / name if name != "select" else sel_dir
        replay_dir = tmp_path / f"{name}_replay"
        assert cli.replay(outdir / "manifest.json", replay_dir) == 0
        for artifact in sorted(outdir.iterdir()):
            if artifact.name == "manifest.json":
                continue   # holds wall-clock timings by design
            assert (replay_dir / artifact.name).read_bytes() \
                == artifact.read_bytes(), f"{name}/{artifact.name}"
        results.append(name)
    assert record_criterion(
        10, True, f"byte-identical replay for {', '.join(results)}")
