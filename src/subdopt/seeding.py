"""Initial subdata selectors: uniform, IBOSS and OSS.

All selectors return row indices into the original data and are
deterministic; ties in covariate values break on the lower row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConstantColumnError(Exception):
    """A covariate column is constant; scaling to [-1, 1] is undefined."""


@dataclass
class Selection:
    indices: np.ndarray
    source: str = "custom"

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)

    def __len__(self):
        return int(self.indices.size)


@dataclass
class ScalingParams:
    lo: np.ndarray   # per-column minimum
    hi: np.ndarray   # per-column maximum


def scale_to_unit_cube(x):
    """Affinely map every column onto [-1, 1]; returns the inverse params."""
    x = np.asarray(x, dtype=float)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(hi <= lo):
        cols = np.flatnonzero(hi <= lo)
        raise ConstantColumnError(f"constant column(s): {cols.tolist()}")
    scaled = 2.0 * (x - lo) / (hi - lo) - 1.0
    return scaled, ScalingParams(lo, hi)


def uniform_seed(x, k, rng_seed):
    """k distinct indices drawn without replacement, reproducibly."""
    n = np.asarray(x).shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(n, size=k, replace=False)
    return Selection(idx, "uniform")


def _smallest(vals, ids, m):
    """Indices (from ids) of the m smallest values, ties on lower id.

    Uses a partial partition so the typical cost is O(len) rather than a
    full sort; only the tied boundary region gets sorted.
    """
    if m <= 0:
        return ids[:0]
    if m >= vals.size:
        order = np.lexsort((ids, vals))
        return ids[order]
    part = np.argpartition(vals, m - 1)[:m]
    thresh = vals[part].max()
    cand = np.flatnonzero(vals <= thresh)
    order = np.lexsort((ids[cand], vals[cand]))
    return ids[cand[order][:m]]


def _largest(vals, ids, m):
    return _smallest(-vals, ids, m)


def iboss_seed(x, k):
    """IBOSS: per covariate, extreme rows at both ends, with exclusion.

    For each covariate in order, r rows with the smallest and r with the
    largest values are taken among not-yet-selected rows.  The base count
    is floor(k / 2p); the remainder is handed out one per extreme starting
    from covariate 1 (small end first) so the total is exactly k.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    base = k // (2 * p)
    rem = k - 2 * p * base
    counts = []
    for j in range(p):
        for _ in ("small", "large"):
            counts.append(base + (1 if rem > 0 else 0))
            rem -= 1
    avail = np.ones(n, dtype=bool)
    chosen = []
    for j in range(p):
        for side, m in (("small", counts[2 * j]), ("large", counts[2 * j + 1])):
            ids = np.flatnonzero(avail)
            if ids.size == 0 or m == 0:
                continue
            vals = x[ids, j]
            take = _smallest(vals, ids, m) if side == "small" \
                else _largest(vals, ids, m)
            chosen.append(take)
            avail[take] = False
    idx = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.intp)
    return Selection(idx[:k], "iboss")


def oss_seed(x, k):
    """OSS: corner-seeking, sign-dissimilar greedy with candidate elimination.

    Orthogonal subsampling (Wang, Elmstedt, Wong & Xu 2021).  `x` must
    already be scaled to [-1, 1] (`scale_to_unit_cube`), which the loss
    assumes.  The first point maximizes the squared norm.  Every later
    point minimizes the cumulative loss sum over selected s of
    (p - |x|^2/2 - |s|^2/2 + m(x, s))^2, where m counts coordinates with
    matching sign.

    Candidate elimination: with r = log n / log k, after the i-th pick the
    live rows are cut to the floor(n / i^(r-1)) with the smallest
    cumulative loss, but never fewer than the k - i still to be picked.
    The OSS paper leaves the rounding of n / i^(r-1) open; the floor is
    used here.  Losses are only updated for live rows, which is where
    the O(np log k) cost stated by the OSS paper comes from.  Ties in the
    loss, both at the elimination boundary and for the next pick, go to
    the lower row index.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    norms2 = np.einsum("ij,ij->i", x, x)
    signs = np.sign(x)
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = int(np.argmax(norms2))
    # live rows in ascending order, so argmin ties go to the lower index
    ids = np.delete(np.arange(n), chosen[0])
    loss = np.zeros(ids.size)
    r = math.log(n) / math.log(k) if k > 1 else 1.0   # k = 1: no loop
    for i in range(1, k):
        s = chosen[i - 1]
        match = np.count_nonzero(signs[ids] == signs[s], axis=1)
        loss += (p - norms2[ids] / 2.0 - norms2[s] / 2.0 + match) ** 2
        keep = max(math.floor(n / i ** (r - 1.0)), k - i)
        if keep < ids.size:
            live = np.sort(_smallest(loss, np.arange(ids.size), keep))
            ids, loss = ids[live], loss[live]
        j = int(np.argmin(loss))
        chosen[i] = ids[j]
        ids, loss = np.delete(ids, j), np.delete(loss, j)
    return Selection(chosen, "oss")
