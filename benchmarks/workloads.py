"""The benchmark's three workloads; each runs in a process of its own.

    python3 benchmarks/workloads.py --workload select_1m --seed 1 \\
        --seconds 20 --trace 0 --inputs '{"npy": "..."}'

``run.py`` starts this with the inputs already written and ``src/`` on
``PYTHONPATH``; it prints one JSON line with the operation counts, the
metrics and any failed check.  With ``--trace 0`` every operation is timed
with ``time.perf_counter`` and nothing is wrapped.  With ``--trace 1`` the
program's public functions are wrapped by ``spans.Tracer``; the timed
operations give the layer times and counts, and one more operation under
tracemalloc gives the memory peaks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
DESK_CONFIG = ROOT / "demos" / "configs" / "simulate_desk.json"

#: Problem sizes.  "full" is what the benchmark measures; "tiny" is for the
#: self-test.  simulate_desk overrides fields of the shipped desk preset.
SIZES = {
    "full": {
        "select_csv": {"n": 200_000, "p": 10, "k": 100, "K": 25},
        "simulate_desk": {},
        "select_1m": {"n": 1_000_000, "p": 10, "k": 100, "K": 25},
    },
    "tiny": {
        "select_csv": {"n": 3_000, "p": 4, "k": 24, "K": 6},
        "simulate_desk": {"n": 1_500, "p": 4, "k": 24, "K": 6},
        "select_1m": {"n": 5_000, "p": 4, "k": 24, "K": 6},
    },
}

UNITS = {
    "setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "d_eff": "ratio",
    "ingest.s": "s", "ingest.rows_per_s": "rows/s", "ingest.peak_mb": "MB",
    "seeding.scale_s": "s", "seeding.iboss_s": "s", "seeding.oss_s": "s",
    "seeding.uniform_s": "s", "seeding.scale_peak_mb": "MB",
    "seeding.oss_peak_mb": "MB",
    "exchange.pool_s": "s", "exchange.pool_rows": "count",
    "exchange.pool_peak_mb": "MB", "exchange.alg1_s": "s",
    "exchange.valg1_s": "s", "exchange.peak_mb": "MB",
    "exchange.swaps": "count", "exchange.slot_scans": "count",
    "exchange.accept_ratio": "ratio", "exchange.scores": "count",
    "exchange.scores_per_s": "1/s",
    "metrics.efficiency_s": "s", "simulate.gen_s": "s",
    "simulate.ols_s": "s", "cli.overhead_s": "s",
    "trace.op_s": "s", "trace.cover": "ratio",
}


class Run:
    """Operation counts, op times, failed checks and the optional tracer."""

    def __init__(self, seconds, trace, runs):
        self.seconds = seconds
        self.runs = runs
        self.tracer = None
        if trace:
            self.tracer = spans.Tracer()
            install(self.tracer)
        self.times = []
        self.peak_rss_mb = None
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def rounds(self):
        """Round numbers until the run time is spent, at least one.  A
        traced run then makes one more round, a repeat of round 0, under
        tracemalloc for the memory peaks; it would slow the timed rounds."""
        end = time.perf_counter() + self.seconds
        r = 0
        try:
            while r < 1 or time.perf_counter() < end:
                yield r
                r += 1
            if self.tracer:
                tracemalloc.start()
                self.tracer.memory = True
                yield 0
        finally:
            if self.tracer:
                self.tracer.memory = False
                self.tracer.unwrap()
                if tracemalloc.is_tracing():
                    tracemalloc.stop()

    def timed(self, fn):
        """One operation: timed, or inside an "op" span when traced."""
        if self.tracer:
            with self.tracer.span("op"):
                return fn()
        t0 = time.perf_counter()
        out = fn()
        self.times.append(time.perf_counter() - t0)
        if self.peak_rss_mb is None:
            # Through the first operation only: over repeated calls in one
            # process the heap can fragment and the peak creep upward by a
            # run-dependent amount (303 to 335 MB on select_csv).
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def check(self, errors, where):
        self.errors.extend(f"{where}: {e}" for e in errors)

    def result(self, d_eff):
        samples = len(self.times)
        if self.tracer:
            self.tracer.dump(self.runs / "spans.json")
            metrics = spans.summary(self.tracer.spans)
            samples = sum(sp["layer"] == "op" and sp["peak_mb"] is None
                          for sp in self.tracer.spans)
        else:
            metrics = {
                "op_s": statistics.median(self.times),
                "peak_rss_mb": self.peak_rss_mb,
                "d_eff": d_eff,
            }
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics,
                "samples": samples, "errors": self.errors[:20]}


def install(tracer):
    """Wrap the program's public functions, one layer name each."""
    from subdopt import cli, exchange, metrics, seeding, simulate

    def exchange_info(args, kwargs, out):
        sel, trace = out
        info = {"swaps": trace.accepted_swaps,
                "scans": len(sel) * len(trace.iteration_accepts)}
        if kwargs.get("pool") is not None:
            info["pool_rows"] = len(kwargs["pool"])
        return info

    for module, attr, layer, info in (
            (cli, "main", "cli.main", None),
            (cli, "ingest", "ingest",
             lambda a, kw, out: {"rows": int(out.x.shape[0])}),
            (seeding, "scale_to_unit_cube", "seeding.scale", None),
            (seeding, "iboss_seed", "seeding.iboss", None),
            (seeding, "oss_seed", "seeding.oss", None),
            (seeding, "uniform_seed", "seeding.uniform", None),
            (exchange, "candidate_pool", "exchange.pool",
             lambda a, kw, out: {"rows": len(out)}),
            (exchange, "alg1", "exchange.alg1", exchange_info),
            (exchange, "valg1", "exchange.valg1", exchange_info),
            (metrics, "efficiency", "metrics.efficiency", None),
            (simulate, "gen_mvn_equicorr", "simulate.gen", None),
            (simulate, "gen_response", "simulate.gen", None),
            (simulate, "ols_fit", "simulate.ols", None)):
        tracer.wrap(module, attr, layer, info)


def quiet_cli(argv):
    """cli.main with its console output swallowed; returns the exit code."""
    from subdopt import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1


def capture_once(module, attr, store):
    """Keep the result of the next call to module.attr, then unhook."""
    fn = getattr(module, attr)

    def once(*args, **kwargs):
        setattr(module, attr, fn)
        out = fn(*args, **kwargs)
        store.append(out)
        return out

    setattr(module, attr, once)


# ---------------------------------------------------------------- workloads

def select_csv(run, size, seed, inputs):
    """`subdopt select` on a CSV through cli.main, then `subdopt replay`."""
    from subdopt import cli
    n, k, K = size["n"], size["k"], size["K"]
    sel_dir, replay_dir = run.runs / "select", run.runs / "replay"
    argv = ["select", "--input", inputs["csv"], "--response", "y",
            "--method", "alg1", "--seed-method", "iboss",
            "--k", str(k), "--K", str(K), "--out", str(sel_dir)]
    parsed = []
    capture_once(cli, "ingest", parsed)
    done = 0
    for _ in run.rounds():
        # the selection: the timed operation
        run.attempted += 1
        if run.timed(lambda: quiet_cli(argv)) != 0:
            run.failed += 1
            continue
        done += 1
        if parsed:   # first call only; the arrays are not kept
            ds, data = parsed.pop(), np.load(inputs["npz"])
            if not (np.array_equal(ds.x, data["x"])
                    and np.array_equal(ds.y, data["y"])):
                run.check(["parsed data differ from the generated arrays"],
                          "ingest")
            del ds, data
        # the replay of its manifest: counted, not timed
        run.attempted += 1
        shutil.rmtree(replay_dir, ignore_errors=True)
        rc = quiet_cli(["replay", str(sel_dir / "manifest.json"),
                        str(replay_dir)])
        if rc != 0 or _outputs(replay_dir) != _outputs(sel_dir):
            run.failed += 1
    if not done:
        run.check(["no select call succeeded"], "select")
        return float("nan")

    xs = checks.scale(np.load(inputs["npz"])["x"])
    idx = np.loadtxt(sel_dir / "indices.txt", dtype=np.intp, ndmin=1)
    report = json.loads((sel_dir / "report.json").read_text())
    eff, ex = report["efficiency"], report["exchange"]
    run.check(checks.indices(idx, n, k), "select")
    run.check(checks.efficiency(xs, idx, eff["d_eff"], eff["log_det_q"]),
              "select")
    run.check(checks.improves(xs, checks.iboss(xs, k), idx,
                              ex["initial_log_v"], ex["final_log_v"]),
              "select")
    run.check(checks.checksums(_outputs(sel_dir), sel_dir), "manifest")
    return eff["d_eff"]


def _outputs(outdir):
    try:
        return json.loads((outdir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return None


def simulate_desk(run, size, seed, inputs):
    """The desk study, one repetition per call of simulate.run_experiment."""
    from subdopt import simulate
    raw = {**json.loads(DESK_CONFIG.read_text()), **size}
    raw["methods"] = tuple(raw["methods"])
    base = 1000 * seed
    reps = []
    for r in run.rounds():
        cfg = simulate.ExperimentConfig(**{**raw, "repetitions": 1,
                                           "rng_seed": base + r})
        report = run.timed(
            lambda: simulate.run_experiment(cfg, keep_selections=True))
        run.attempted += 1
        reps.append((cfg, report.records))

    d_effs = []
    for cfg, records in reps:
        where = f"repetition seed {cfg.rng_seed}"
        params = cfg.model_params()
        x, y = checks.desk_design(cfg.n, cfg.p, cfg.rho, params.beta0,
                                  params.beta1, params.sigma2, cfg.rng_seed)
        xs = checks.scale(x)
        chosen = {}
        for rec in records:
            if rec.error is not None:
                run.check([f"{rec.method} failed: {rec.error}"], where)
                continue
            idx = rec.selection
            run.check(checks.indices(idx, cfg.n, cfg.k), where)
            run.check(checks.efficiency(xs, idx, rec.eff.d_eff,
                                        rec.eff.log_det_q), where)
            run.check(checks.slope_error(x, y, idx, params.beta1,
                                         rec.mse.mse_slopes), where)
            chosen[rec.method] = idx
            if rec.method in ("alg1", "valg1"):
                d_effs.append(rec.eff.d_eff)
        for method in ("alg1", "valg1"):
            if method in chosen and cfg.seed_method in chosen:
                run.check(checks.improves(xs, chosen[cfg.seed_method],
                                          chosen[method]), where)
    return float(np.mean(d_effs)) if d_effs else float("nan")


def select_1m(run, size, seed, inputs):
    """The README quick start in memory: scale, OSS seed, valg1, efficiency."""
    from subdopt import exchange, metrics, seeding
    n, k, K = size["n"], size["k"], size["K"]
    x = np.load(inputs["npy"])

    def pipeline():
        xs, _ = seeding.scale_to_unit_cube(x)
        seed_sel = seeding.oss_seed(xs, k)
        sel, trace = exchange.valg1(xs, seed_sel, K)
        eff = metrics.efficiency(xs, sel)
        return (seed_sel.indices, sel.indices, trace.initial_log_v,
                trace.final_log_v, eff.d_eff, eff.log_det_q)

    outs = []
    for _ in run.rounds():
        outs.append(run.timed(pipeline))
        run.attempted += 1

    seed_idx, idx, v0, v1, d_eff, log_det = outs[0]
    for out in outs[1:]:
        if not (np.array_equal(out[0], seed_idx)
                and np.array_equal(out[1], idx) and out[2:] == outs[0][2:]):
            run.check(["a repeated call gave another answer"], "pipeline")
            break
    del outs
    xs = checks.scale(x)
    del x
    run.check(checks.indices(seed_idx, n, k), "oss seed")
    norms = np.einsum("ij,ij->i", xs, xs)
    if seed_idx[0] != int(np.argmax(norms)):
        run.check(["first pick is not the row of largest norm"], "oss seed")
    run.check(checks.indices(idx, n, k), "valg1")
    run.check(checks.efficiency(xs, idx, d_eff, log_det), "valg1")
    run.check(checks.improves(xs, seed_idx, idx, v0, v1), "valg1")
    pool = exchange.candidate_pool(xs, seed_idx, K).indices
    run.check(checks.pool(xs, seed_idx, pool, K), "pool")
    return d_eff


WORKLOADS = {"select_csv": select_csv, "simulate_desk": simulate_desk,
             "select_1m": select_1m}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True,
                    help="JSON object of input file paths")
    args = ap.parse_args(argv)

    import subdopt
    src = (ROOT / "src").resolve()
    if src not in Path(subdopt.__file__).resolve().parents:
        print(f"subdopt imported from {subdopt.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    runs = RUNS / args.workload
    runs.mkdir(parents=True, exist_ok=True)
    run = Run(args.seconds, args.trace, runs)
    d_eff = WORKLOADS[args.workload](run, SIZES["full"][args.workload],
                                     args.seed, json.loads(args.inputs))
    print(json.dumps(run.result(d_eff)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
