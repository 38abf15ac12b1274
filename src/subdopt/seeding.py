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
    indices: np.ndarray      # row indices into the data

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)

    def __len__(self):
        return int(self.indices.size)


def scale_to_unit_cube(x):
    """Affinely map every column onto [-1, 1]: (scaled, (lo, hi)), with
    lo and hi the per-column minimum and maximum."""
    x = np.asarray(x, dtype=float)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(hi <= lo):
        cols = np.flatnonzero(hi <= lo)
        raise ConstantColumnError(f"constant column(s): {cols.tolist()}")
    # 2(x - lo)/(hi - lo) - 1, evaluated in that order on one temporary
    scaled = x - lo
    scaled *= 2.0
    scaled /= hi - lo
    scaled -= 1.0
    return scaled, (lo, hi)


def uniform_seed(x, k, rng_seed):
    """k distinct indices drawn without replacement, reproducibly."""
    n = np.asarray(x).shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(n, size=k, replace=False)
    return Selection(idx)


def _smallest(vals, m):
    """Positions, in ascending order, of the m smallest values; ties at
    the boundary go to the lower position.

    One O(len) partition finds the m-th smallest value; nothing is sorted.
    """
    if m >= vals.size:
        return np.arange(vals.size)
    thresh = np.partition(vals, m - 1)[m - 1]
    cand = np.flatnonzero(vals <= thresh)
    tied = vals[cand] == thresh
    # keep everything below the threshold and the lowest-position ties
    n_tied = m - (cand.size - np.count_nonzero(tied))
    return cand[~tied | (np.cumsum(tied) <= n_tied)]


def _extremes(col, m, taken):
    """Rows of the m smallest values of a full column among the rows not
    `taken` (a boolean mask), ascending by (value, row).

    The m smallest available rows are always among the m + |taken|
    smallest rows overall, so only those are ranked: O(n) per call.
    """
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    top = _smallest(col, m + np.count_nonzero(taken))
    top = top[~taken[top]]
    return top[np.argsort(col[top], kind="stable")[:m]]


def iboss_seed(x, k):
    """IBOSS: per covariate, extreme rows at both ends, with exclusion.

    For each covariate in order, r rows with the smallest and r with the
    largest values are taken among not-yet-selected rows.  The base count
    is floor(k / 2p); the remainder is handed out one per extreme starting
    from covariate 1 (small end first) so the total is exactly k.  Each
    end is listed from the most extreme value inward; ties go to the
    lower row.  Each end costs one O(n) partition of its column, so the
    seed is O(np), the cost IBOSS was designed for (Wang, Yang & Stufken
    2019).
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
    taken = np.zeros(n, dtype=bool)
    chosen = []
    for j in range(p):
        col = np.ascontiguousarray(x[:, j])
        for vals, m in ((col, counts[2 * j]), (-col, counts[2 * j + 1])):
            take = _extremes(vals, m, taken)
            chosen.append(take)
            taken[take] = True
    return Selection(np.concatenate(chosen))


def _pack(bits):
    """Each row of a boolean matrix as ceil(p / 64) uint64 words."""
    n, p = bits.shape
    packed = np.zeros((n, 8 * -(-p // 64)), dtype=np.uint8)
    packed[:, :-(-p // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


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

    Cost: one O(np) pass packs each row's signs into ceil(p / 64) words
    per sign and computes p - |x|^2/2; a loss update then costs
    O(ceil(p / 64)) word operations per live row.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    norms2 = np.einsum("ij,ij->i", x, x)
    base = p - norms2 / 2.0
    # sign codes: one bit per coordinate for "positive", one for
    # "negative"; a coordinate's signs match when both bits agree
    pos, neg = _pack(x > 0), _pack(x < 0)
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = int(np.argmax(norms2))
    # live rows in ascending order, so argmin ties go to the lower index
    ids = np.delete(np.arange(n), chosen[0])
    loss = np.zeros(ids.size)
    r = math.log(n) / math.log(k) if k > 1 else 1.0   # k = 1: no loop
    for i in range(1, k):
        s = chosen[i - 1]
        differ = np.bitwise_count((pos[ids] ^ pos[s]) | (neg[ids] ^ neg[s]))
        # (p - |x|^2/2 - |s|^2/2 + match)^2, in that order of operations
        d = base[ids]
        d -= norms2[s] / 2.0
        d += p - differ.sum(axis=1, dtype=np.intp)
        d *= d
        loss += d
        keep = max(math.floor(n / i ** (r - 1.0)), k - i)
        if keep < ids.size:
            live = _smallest(loss, keep)
            ids, loss = ids[live], loss[live]
        j = int(np.argmin(loss))
        chosen[i] = ids[j]
        ids, loss = np.delete(ids, j), np.delete(loss, j)
    return Selection(chosen)
