"""Initial subdata selectors: uniform, IBOSS and OSS, and the exchange's
candidate pool of extreme rows.

All selectors return row indices into the original data and are
deterministic; ties in covariate values break on the lower row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ColumnRangeError(Exception):
    """A covariate column is constant, holds a NaN or its range overflows;
    scaling to [-1, 1] is undefined."""


@dataclass
class Selection:
    indices: np.ndarray      # row indices into the data

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)

    def __len__(self):
        return int(self.indices.size)


def as_indices(sel):
    """Accept a Selection object or a plain index array."""
    return np.asarray(getattr(sel, "indices", sel), dtype=np.intp)


#: Rows per block of `_block_extremes`
BLOCK = 64

#: Rows per pass of the loops that keep their working set in cache: the
#: sweep of `_block_extremes` and the OSS set-up and loss updates.  When
#: a row-major array is scaled it counts values, not rows
ROWS = 4096


def _block_extremes(x):
    """Per-column minima and maxima of the rows of x in blocks: two
    (n // BLOCK, p) arrays.

    With s = n // BLOCK, block g holds the BLOCK rows g, g + s, ...,
    g + (BLOCK - 1)s, so the pass is BLOCK sweeps over s contiguous rows
    and needs no copy of x.  The sweeps go ROWS rows of s at a time, so
    the accumulators stay in cache.  The last n % BLOCK rows are in no
    block.
    """
    s = x.shape[0] // BLOCK
    lo = np.empty((s, x.shape[1]), dtype=x.dtype)
    hi = np.empty_like(lo)
    for a in range(0, s, ROWS):
        b = min(a + ROWS, s)
        lo[a:b] = hi[a:b] = x[a:b]
        for i in range(1, BLOCK):
            rows = x[i * s + a:i * s + b]
            np.minimum(lo[a:b], rows, out=lo[a:b])
            np.maximum(hi[a:b], rows, out=hi[a:b])
    return lo, hi


def _to_cube(x, lo, span, out):
    """out = 2(x - lo)/span - 1, evaluated in that order."""
    np.subtract(x, lo, out=out)
    out *= 2.0
    out /= span
    out -= 1.0


def scale_to_unit_cube(x):
    """Affinely map every column onto [-1, 1]: (scaled, (lo, hi)), with
    lo and hi the per-column minimum and maximum."""
    x = np.asarray(x, dtype=float)
    # min and max are exact, so folding the block extremes and the rows
    # in no block gives the bytes of x.min(axis=0) and x.max(axis=0)
    lo, hi = _block_extremes(x)
    tail = x[BLOCK * lo.shape[0]:]
    lo = np.concatenate((lo, tail)).min(axis=0)
    hi = np.concatenate((hi, tail)).max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
        # x - lo <= span, so a finite 2 span keeps every scaled value finite
        wide = np.isinf(2.0 * span)
    for bad, what in ((np.isnan(lo) | np.isnan(hi), "column(s) with NaN"),
                      (hi <= lo, "constant column(s)"),
                      (wide, "column(s) whose range overflows")):
        if bad.any():
            raise ColumnRangeError(f"{what}: {np.flatnonzero(bad).tolist()}")
    scaled = np.empty_like(x)
    if x.flags.c_contiguous:
        # broadcasting lo over the rows would run n inner loops of p.  So
        # one loop runs over the flattened values, whole rows and about
        # ROWS values a call, against lo and span tiled once for that many
        # rows; the last call reads a prefix of the tiles
        p = x.shape[1]
        step = max(ROWS // p, 1) * p
        tlo, tspan = np.tile(lo, step // p), np.tile(span, step // p)
        flat, out = x.reshape(-1), scaled.reshape(-1)
        for a in range(0, flat.size, step):
            m = min(step, flat.size - a)
            _to_cube(flat[a:a + m], tlo[:m], tspan[:m], out[a:a + m])
    else:
        # column-major, as `ingest` returns it: the loops run down columns
        _to_cube(x, lo, span, scaled)
    return scaled, (lo, hi)


def _check_k(k, n):
    if not 1 <= k <= n:
        raise ValueError(f"k={k} exceeds n={n}" if k > n
                         else f"k={k} is below 1")


def uniform_seed(x, k, rng_seed):
    """k distinct indices drawn without replacement, reproducibly."""
    n = np.asarray(x).shape[0]
    _check_k(k, n)
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(n, size=k, replace=False)
    return Selection(idx)


def _smallest(vals, m):
    """Positions, in ascending order, of the m smallest values; ties at
    the boundary go to the lower position.

    One O(len) partition finds the m-th smallest value; nothing is sorted.
    One scan marks the values at or below it; only if that marks more
    than m are the surplus ties, at the highest positions, dropped.  If
    the m-th smallest is NaN, nothing is returned.
    """
    if m >= vals.size:
        return np.arange(vals.size)
    thresh = np.partition(vals, m - 1)[m - 1]
    top = np.flatnonzero(vals <= thresh)
    if top.size > m:
        tie = vals[top] == thresh
        tie[np.flatnonzero(tie)[:m - top.size]] = False
        top = top[~tie]
    return top


def _extremes(x, j, m, taken, blocks, largest=False, ties_high=False):
    """Rows of the m smallest values of column j of x (`largest`: the m
    largest) among the rows not `taken` (a boolean mask), from the most
    extreme value inward; rows tied in value go by ascending row
    (`ties_high`: descending), so the ties at the last place kept go to
    the lower (higher) rows.  `blocks` is `_block_extremes(x)`.

    The m extreme available rows are among the t = m + |taken| extreme
    rows overall.  The t blocks with the most extreme block extremes hold
    t rows at least as extreme as the t-th of those, so the t extreme
    rows are too, and each lies in a block whose extreme is.  Only those
    blocks and the rows in no block are read, and ranked by one
    partition: every row when t is not below n // BLOCK, and a few
    hundred blocks at n = 1e6 and t near 100.  A block whose extreme is
    NaN is kept, and every block if the t-th is NaN.
    """
    m = min(m, x.shape[0])   # an end holds at most every row
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    ends = -blocks[1][:, j] if largest else blocks[0][:, j]
    t, s = m + np.count_nonzero(taken), ends.size
    kept = np.arange(s)
    if t < s:
        thresh = np.partition(ends, t - 1)[t - 1]
        kept = np.flatnonzero(~(ends > thresh))
    rows = np.concatenate(((kept + s * np.arange(BLOCK)[:, None]).ravel(),
                           np.arange(BLOCK * s, x.shape[0])))
    if ties_high:
        rows = rows[::-1]
    vals = -x[rows, j] if largest else x[rows, j]
    taken = taken[rows]
    top = _smallest(vals, m + np.count_nonzero(taken))
    top = top[~taken[top]]
    return rows[top[np.argsort(vals[top], kind="stable")[:m]]]


def iboss_seed(x, k):
    """IBOSS: per covariate, extreme rows at both ends, with exclusion.

    For each covariate in order, r rows with the smallest and r with the
    largest values are taken among not-yet-selected rows.  The base count
    is floor(k / 2p); the remainder is handed out one per end starting
    from covariate 1 (small end first) so the total is exactly k.  Each
    end is listed from the most extreme value inward; ties go to the
    lower row.  One pass over x finds the per-block column extremes
    (`_block_extremes`); each end then reads only the blocks that can
    hold its rows (`_extremes`), so the seed is O(np), the cost IBOSS was
    designed for (Wang, Yang & Stufken 2019).
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    _check_k(k, n)
    base, rem = divmod(k, 2 * p)
    blocks = _block_extremes(x)
    taken = np.zeros(n, dtype=bool)
    chosen = []
    for e in range(2 * p):   # end e: column e // 2, its large end if e odd
        take = _extremes(x, e // 2, base + (e < rem), taken, blocks, e % 2)
        chosen.append(take)
        taken[take] = True
    return Selection(np.concatenate(chosen))


def candidate_pool(x, sel, K):
    """Extreme rows per covariate among the unselected data, as a
    `Selection` of distinct rows in construction order.

    For each covariate in order: the K/2 smallest rows (ascending), then
    the K/2 largest (ascending, maximum last).  Odd K gives the large end
    the extra row.  Ties go to the lower row at the small end and to the
    higher row at the large end, and rows tied in value are listed by
    ascending row.  Rows taken for an earlier covariate are *not*
    excluded, so a row can be appended twice; the final pool keeps unique
    rows by first occurrence.  One pass over x finds the per-block column
    extremes, and each end reads only the blocks that can hold its rows
    (`_extremes`), so the pool is O(np).
    """
    if K < 1:
        raise ValueError(f"K must be a positive integer, got {K}")
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    taken = np.zeros(n, dtype=bool)
    taken[as_indices(sel)] = True
    if taken.all():
        raise ValueError("no unselected rows left to build a pool from")
    blocks = _block_extremes(x)
    parts = []
    for j in range(p):
        parts.append(_extremes(x, j, K // 2, taken, blocks))
        # the large end from the maximum inward, ties to the higher row,
        # read backwards
        parts.append(_extremes(x, j, K - K // 2, taken, blocks,
                               largest=True, ties_high=True)[::-1])
    stacked = np.concatenate(parts)
    _, first = np.unique(stacked, return_index=True)
    pool = stacked[np.sort(first)]
    return Selection(pool)


def _pack(compare, x, buf, out):
    """The signs compare(x, 0) of the rows of x, packed into `out`, a
    zeroed (rows, ceil(p / 64)) array of unsigned words of at least
    min(p, 64) bits: bit i of a row in bit i % 64 of word i // 64.  `buf`
    is a scratch array of at least rows * p + 8 booleans, made by
    np.zeros: a byte other than 0 or 1 would carry into the packed bits.

    The comparison fills buf row after row with no padding.  Signs 8g to
    8g + 7 of every row, one byte each, are read from buf as one unaligned
    little-endian uint64 per row, at a stride of p bytes: times
    0x0102040810204080, byte i lands in bit 56 + i with no carry into
    those bits, so a shift leaves them packed in byte g % 8 of the word.
    The mask clears the other bits, among them those the read took from
    the next row (or from buf's last 8 entries), so the word fits `out`.
    """
    rows, p = x.shape
    compare(x, 0, out=buf[:rows * p].reshape(rows, p))
    octet = np.empty(rows, dtype=np.uint64)
    for g in range(-(-p // 8)):
        np.multiply(np.ndarray(rows, "<u8", buffer=buf, offset=8 * g,
                               strides=(p,)), 0x0102040810204080, out=octet)
        at = 8 * (g % 8)
        octet >>= 56 - at
        octet &= ((1 << min(8, p - 8 * g)) - 1) << at
        out[:, g // 8] |= octet


def _codes(x):
    """What the OSS loss reads of each row of x, in one pass of ROWS rows
    at a time: (|x|^2, pos, neg).  pos and neg are the sign codes, one bit
    per coordinate for "positive" and one for "negative" (`_pack`); a
    coordinate's signs match when both bits agree.  A code is ceil(p / 64)
    words, each the narrowest that holds min(p, 64) bits: at p = 10 a row
    takes 8 + 2 + 2 bytes."""
    n, p = x.shape
    norms2 = np.empty(n)
    word = np.min_scalar_type((1 << min(p, 64)) - 1)
    pos = np.zeros((n, -(-p // 64)), dtype=word)
    neg = np.zeros_like(pos)
    buf = np.zeros(min(n, ROWS) * p + 8, dtype=bool)
    for a in range(0, n, ROWS):
        rows = slice(a, a + ROWS)
        np.einsum("ij,ij->i", x[rows], x[rows], out=norms2[rows])
        _pack(np.greater, x[rows], buf, pos[rows])
        _pack(np.less, x[rows], buf, neg[rows])
    return norms2, pos, neg


def _add_loss(loss, pos, neg, norms2, signs, h, p):
    """loss += ((p - norms2/2) - h + p - differ)^2 for the rows with
    squared norms norms2 and sign codes pos and neg, where differ counts
    their coordinates whose sign differs from those of `signs`, the codes
    of the last pick, and h is half its squared norm."""
    differ = np.bitwise_count((pos ^ signs[0]) | (neg ^ signs[1]))
    # the sum over words is exact: one word needs none
    differ = differ[:, 0] if differ.shape[1] == 1 else \
        differ.sum(axis=1, dtype=np.intp)
    # (p - |x|^2/2 - |s|^2/2 + match)^2, in that order of operations
    d = np.divide(norms2, 2.0)
    np.subtract(p, d, out=d)
    d -= h
    d += p - differ
    d *= d
    loss += d


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
    the lower row index.  Each elimination compacts |x|^2, the sign codes
    and the loss to the rows kept, so loss updates read contiguous rows; a
    pick is held there at loss +inf, which sorts last only while the other
    losses are finite.  With 0 <= m <= p a loss term is at most (N + 2p)^2,
    N = max |x|^2, and k - 1 are summed: ValueError unless max(k - 1, 1)
    (N + 2p)^2 is at most half the largest double (a margin for rounding),
    as for a NaN in x.

    Cost: one O(np) pass, ROWS rows at a time, computes |x|^2 and packs
    each row's signs into ceil(p / 64) words per sign, each word the
    narrowest that holds min(p, 64) bits, eight signs per multiply
    (`_codes`); a loss update then costs O(ceil(p / 64)) word operations
    per live row, also ROWS rows at a time.  At p = 10 the rows take 28
    bytes each at the peak: |x|^2 and the loss 8 each, the two codes 2
    each, and the copy of the loss that the first elimination partitions.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    _check_k(k, n)
    norms2, pos, neg = _codes(x)
    bound = math.sqrt(np.finfo(float).max / 2.0 / max(k - 1, 1))
    if not norms2.max() + 2.0 * p <= bound:   # a NaN fails too
        raise ValueError("x holds a NaN, or its OSS losses could overflow")
    chosen = np.empty(k, dtype=np.intp)
    j = chosen[0] = int(np.argmax(norms2))   # the last pick's position
    ids = None   # the row at each position, once an elimination cuts rows
    loss = np.zeros(n)
    r = math.log(n) / math.log(k) if k > 1 else 1.0   # k = 1: no loop
    for i in range(1, k):
        signs, h = (pos[j], neg[j]), norms2[j] / 2.0
        for a in range(0, loss.size, ROWS):
            rows = slice(a, a + ROWS)
            _add_loss(loss[rows], pos[rows], neg[rows], norms2[rows],
                      signs, h, p)
        loss[j] = np.inf
        keep = max(math.floor(n / i ** (r - 1.0)), k - i)
        if keep < loss.size:   # one array at a time keeps the peak down
            live = _smallest(loss, keep)
            loss = loss[live]
            norms2 = norms2[live]
            pos = pos[live]
            neg = neg[live]
            ids = live if ids is None else ids[live]
        j = int(np.argmin(loss))
        chosen[i] = j if ids is None else ids[j]
    return Selection(chosen)
