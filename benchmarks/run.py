"""Benchmark entry point: make the inputs, time set-up, run one workload.

    python3 benchmarks/run.py --workload select_csv --seed 1 --seconds 30
    python3 benchmarks/run.py --workload simulate_desk --trace 1
    python3 benchmarks/run.py --workload all      # the three, in sequence

For each workload this process writes (or reuses) the seeded inputs under
``benchmarks/.data/``, times ``setup_s`` with fresh interpreters importing
``subdopt`` and ``subdopt.cli``, then starts ``workloads.py`` in a process
of its own with ``src/`` on ``PYTHONPATH`` and BLAS pinned to one thread.
It prints every metric by name and unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
code 0 means the run finished, whether or not its checks passed; 2 means
it could not run (no ``src/subdopt`` next to the benchmark, a crash, a
timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from workloads import SIZES, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s, after one untimed warm-up import.
SETUP_IMPORTS = 5

#: Wall-clock budget of one workload, set-up and checks included.
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env):
    """Median time from starting a fresh interpreter to the end of its
    ``import subdopt, subdopt.cli``.  The child prints the monotonic clock
    (system-wide on Linux) when the imports are done: waiting on it with a
    timeout would poll, at 50 ms steps, and quantise the measurement."""
    cmd = [sys.executable, "-c",
           "import subdopt, subdopt.cli, time; print(time.perf_counter())"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                             stdout=subprocess.PIPE, text=True).stdout
        if i:
            times.append(float(out) - t0)
    return statistics.median(times)


def make_inputs(workload, seed):
    size = SIZES["full"][workload]
    if workload == "select_csv":
        csv_path, npz_path = inputs.csv_input(size["n"], size["p"], seed)
        return {"csv": str(csv_path), "npz": str(npz_path)}
    if workload == "select_1m":
        return {"npy": str(inputs.array_input(size["n"], size["p"], seed))}
    return {}   # the desk study generates its data from the seed


def run_workload(workload, args):
    start = time.monotonic()
    data = make_inputs(workload, args.seed)
    env = child_env()
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(env)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", json.dumps(data)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True,
                          timeout=DEADLINE_S - (time.monotonic() - start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}")
    res = json.loads(lines[-1])
    metrics.update(res["metrics"])
    for err in res["errors"]:
        print(f"CHECK FAILED {workload}: {err}", file=sys.stderr)
    print(f"{workload}: attempted {res['attempted']}, failed "
          f"{res['failed']}, correct {res['correct']}, "
          f"{res['samples']} timed samples")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>16.6g} {UNITS[name]}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "subdopt" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'subdopt'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
