"""Determinant-maximizing point-exchange over a pool of extreme candidates.

Two variants share one engine:

* first-improvement: for each subdata slot, scan the pool in construction
  order and commit the first swap that strictly increases the generalized
  variance, then move on (optionally repeated for several passes);
* scan-all: never break out of the scan, committing every improving swap,
  so each slot ends at the best candidate seen; a single pass suffices.

A slot scan scores every pool row at once by Fedorov's determinant ratio
a(1 + c) + d^2 (`swap_scores`), computed against M = Q^{-1} and the
cached pool quadratic forms c_j = z_j^T M z_j (Fedorov 1972; Cook &
Nachtsheim 1980).  The augmented selected rows Z_S and pool rows Z_F are
built once and kept for the whole exchange.  A slot that accepts swaps
exchanges rows between them in place and refactors Q = Z_S^T Z_S, M and
c from those rows, so no state is carried from one commit to the next
and none can drift.  If the new selection is singular, or its log V is
not higher, the swaps are undone and the slot is counted in
`slots_singular` or `slots_not_higher`.

The trace records log V and the elapsed time after every pass.  No pass
reads the pass count, so the first m passes of a longer run are the
m-pass run, and one run answers every shorter one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import SingularMomentError, as_indices, augment, factor_moment
from .seeding import Selection, _block_extremes, _extremes

#: Relative strict-improvement threshold on the determinant ratio,
#: guarding against cycling on floating-point noise.
REL_IMPROVEMENT = 1e-12


@dataclass
class ExchangeTrace:
    iteration_accepts: list[int] = field(default_factory=list)  # per pass
    #: log V after each pass, and seconds from the start of the exchange
    #: to the end of each pass; the last is the run's time
    pass_log_v: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    initial_log_v: float = 0.0
    final_log_v: float = 0.0
    pool_size: int = 0   # pool rows the exchange ran against
    accepted_swaps: int = 0
    #: slots whose accepted swaps were undone because the new selection
    #: was singular, or because its log V was not higher
    slots_singular: int = 0
    slots_not_higher: int = 0


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
    (`seeding._extremes`), so the pool is O(np).
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


def _scan_state(ZS, ZF):
    """Everything a slot scan reads, refactored from the augmented rows.

    Returns log V of the selected rows `ZS` (log det Q minus (p+1) log k),
    M = Q^{-1}, and the quadratic forms c_j = z_j^T M z_j of the pool
    rows `ZF`.
    """
    q = ZS.T @ ZS
    _, log_det = factor_moment(q)
    M = np.linalg.inv(q)
    c = np.einsum("ij,ij->i", ZF @ M, ZF)
    return log_det - q.shape[0] * math.log(ZS.shape[0]), M, c


def swap_scores(M, c, ZF, z_out):
    """Determinant ratio det(Q - z_out z_out^T + z_j z_j^T) / det Q of
    swapping z_out for each pool row z_j of `ZF`, given M = Q^{-1} and
    c_j = z_j^T M z_j: Fedorov's a(1 + c_j) + d_j^2.  The scores share
    the base Q - z_out z_out^T, so they compare across a whole scan."""
    u = M @ z_out
    a = 1.0 - z_out @ u
    d = ZF @ u
    return a * (1.0 + c) + d * d


def _swap_chain(idx, F, ZS, ZF, i, chain):
    """Swap slot i with each pool position in `chain`, in order, moving
    both the row indices and the augmented rows."""
    for w in chain:
        idx[i], F[w] = F[w], idx[i]
        ZS[i], ZF[w] = ZF[w], ZS[i].copy()   # ZS[i] is overwritten first


def _exchange(x, seed, K, iterations, first_improvement, pool=None):
    x = np.asarray(x, dtype=float)
    idx = as_indices(seed).copy()
    k = idx.size
    if pool is None:
        pool = candidate_pool(x, idx, K)
    t0 = time.perf_counter()
    F = pool.indices.copy()
    if k < 1 or np.unique(np.concatenate((idx, F))).size != k + F.size:
        raise ValueError("selection must be non-empty, with rows distinct "
                         "from each other and from the pool")
    ZS, ZF = augment(x[idx]), augment(x[F])
    log_v, M, c = _scan_state(ZS, ZF)
    trace = ExchangeTrace(initial_log_v=log_v, pool_size=F.size)

    for _ in range(iterations):
        accepts = 0
        for i in range(k):
            score = swap_scores(M, c, ZF, ZS[i])
            if first_improvement:
                ok = np.flatnonzero(score > 1.0 + REL_IMPROVEMENT)
                accepted = [int(ok[0])] if ok.size else []
            else:
                running = np.maximum.accumulate(
                    np.concatenate(([1.0], score)))[:-1]
                accepted = np.flatnonzero(
                    score > running * (1.0 + REL_IMPROVEMENT)).tolist()
            if not accepted:
                continue
            # Chain of committed swaps: each accepted candidate displaces
            # the current occupant into its own pool position.
            _swap_chain(idx, F, ZS, ZF, i, accepted)
            try:
                new_log_v, new_M, new_c = _scan_state(ZS, ZF)
            except SingularMomentError:
                trace.slots_singular += 1
            else:
                if new_log_v > log_v:
                    log_v, M, c = new_log_v, new_M, new_c
                    accepts += len(accepted)
                    continue
                trace.slots_not_higher += 1
            # A singular selection, or one whose log V is not higher
            # (scores read off an ill-conditioned M can be wrong), is
            # undone and the slot left alone.
            _swap_chain(idx, F, ZS, ZF, i, accepted[::-1])
        trace.iteration_accepts.append(accepts)
        trace.accepted_swaps += accepts
        trace.pass_log_v.append(log_v)
        trace.pass_seconds.append(time.perf_counter() - t0)
    trace.final_log_v = log_v
    return Selection(idx), trace


def alg1(x, seed, K, iterations=5, pool=None):
    """First-improvement exchange, Step 3 repeated `iterations` times."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return _exchange(x, seed, K, iterations, True, pool=pool)


def valg1(x, seed, K, pool=None):
    """Scan-all greedy-chain exchange; a single pass over the slots."""
    return _exchange(x, seed, K, 1, False, pool=pool)
