"""Seeded input generation for the benchmark workloads, with an on-disk cache.

Inputs are made here, in the benchmark's driver process, and written under
``benchmarks/.data/`` so that the measured process only loads them.  The
generator is numpy alone and does not touch the program: rows are
equicorrelated normal (rho = 0.5), and the response is
``1 + sum(x) + N(0, 3)`` noise.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / ".data"

#: Bumped whenever the generator changes, so stale cache files are not used.
VERSION = "v1"

#: Cached seeds kept per workload; older files are deleted.
KEEP = 2

RHO = 0.5


def generate(n, p, seed, stream):
    """(x, y) with rows i.i.d. N(0, (1 - rho) I + rho J), y = 1 + x.1 + e."""
    rng = np.random.default_rng([seed, stream])
    x = np.sqrt(1.0 - RHO) * rng.standard_normal((n, p))
    x += np.sqrt(RHO) * rng.standard_normal((n, 1))
    y = 1.0 + x.sum(axis=1) + np.sqrt(3.0) * rng.standard_normal(n)
    return x, y


def _evict(prefix, keep_stem):
    stems = {}
    for path in DATA_DIR.glob(prefix + "-*"):
        stem = path.name.split(".", 1)[0]
        stems.setdefault(stem, []).append(path)
    old = sorted((s for s in stems if s != keep_stem),
                 key=lambda s: max(p.stat().st_mtime for p in stems[s]))
    for stem in old[:max(0, len(old) - (KEEP - 1))]:
        for path in stems[stem]:
            path.unlink(missing_ok=True)


def _atomic(path, write):
    """Write through write(file) to a temporary name, then rename."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)


def csv_input(n, p, seed, data_dir=None):
    """CSV (x1..xp, y) at round-trip precision, plus an .npz of the arrays.

    Returns (csv path, npz path).  The .npz holds the exact arrays the CSV
    encodes, for the parse check.
    """
    data_dir = Path(data_dir or DATA_DIR)
    data_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"csv-{VERSION}-n{n}-p{p}"
    stem = f"{prefix}-s{seed}"
    csv_path = data_dir / f"{stem}.csv"
    npz_path = data_dir / f"{stem}.npz"
    if not (csv_path.is_file() and npz_path.is_file()):
        x, y = generate(n, p, seed, stream=1)
        header = ",".join(f"x{j + 1}" for j in range(p)) + ",y"
        _atomic(csv_path, lambda fh: np.savetxt(
            fh, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
            header=header, comments=""))
        _atomic(npz_path, lambda fh: np.savez(fh, x=x, y=y))
    if data_dir == DATA_DIR:
        _evict(prefix, stem)
    return csv_path, npz_path


def array_input(n, p, seed, data_dir=None):
    """An n x p covariate array saved as .npy; returns its path."""
    data_dir = Path(data_dir or DATA_DIR)
    data_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"arr-{VERSION}-n{n}-p{p}"
    stem = f"{prefix}-s{seed}"
    path = data_dir / f"{stem}.npy"
    if not path.is_file():
        x, _ = generate(n, p, seed, stream=2)
        _atomic(path, lambda fh: np.save(fh, x))
    if data_dir == DATA_DIR:
        _evict(prefix, stem)
    return path
