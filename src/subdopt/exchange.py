"""Determinant-maximizing point-exchange over a pool of extreme candidates.

Two variants share one engine:

* first-improvement: for each subdata slot, scan the pool in construction
  order and commit the first swap that strictly increases the generalized
  variance, then move on (optionally repeated for several passes);
* scan-all: never break out of the scan, committing every improving swap,
  so each slot ends at the best candidate seen; a single pass suffices.

A slot scan scores every pool row at once by Fedorov's determinant ratio
a(1 + c) + d^2, computed against M = Q^{-1} and the cached pool quadratic
forms c_j = z_j^T M z_j (Fedorov 1972; Cook & Nachtsheim 1980).  A slot
that accepts swaps rebuilds Q, M and c from the new selected rows, so no
state is carried from one commit to the next and none can drift.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMomentError, as_indices, augment, build_moment
from .seeding import Selection, _extremes

#: Relative strict-improvement threshold on the determinant ratio,
#: guarding against cycling on floating-point noise.
REL_IMPROVEMENT = 1e-12


@dataclass
class CandidatePool:
    indices: np.ndarray      # distinct row indices, in construction order

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)

    def __len__(self):
        return int(self.indices.size)


@dataclass
class SwapRecord:
    iteration: int
    slot: int
    pool_pos: int
    accepted: bool
    log_v_before: float
    log_v_after: float


@dataclass
class ExchangeTrace:
    records: list[SwapRecord] = field(default_factory=list)
    iteration_accepts: list[int] = field(default_factory=list)
    initial_log_v: float = 0.0
    final_log_v: float = 0.0
    accepted_swaps: int = 0
    #: slots whose accepted chain gave a singular selection and was dropped
    slots_skipped: int = 0
    seconds: float = 0.0


def candidate_pool(x, sel, K):
    """Extreme rows per covariate among the unselected data.

    For each covariate in order: the K/2 smallest rows (ascending), then
    the K/2 largest (ascending, maximum last).  Odd K gives the large end
    the extra row.  Ties go to the lower row at the small end and to the
    higher row at the large end, and rows tied in value are listed by
    ascending row.  Rows taken for an earlier covariate are *not*
    excluded, so a row can be appended twice; the final pool keeps unique
    rows by first occurrence.  Each end costs one O(n) partition of its
    column, so the pool is O(np).
    """
    if K < 1:
        raise ValueError(f"K must be a positive integer, got {K}")
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    taken = np.zeros(n, dtype=bool)
    taken[as_indices(sel)] = True
    if taken.all():
        raise ValueError("no unselected rows left to build a pool from")
    parts = []
    for j in range(p):
        col = np.ascontiguousarray(x[:, j])
        parts.append(_extremes(col, K // 2, taken))
        # the large end is the small end of the negated column read
        # backwards, which sends ties to the higher row
        rev = _extremes(-col[::-1], K - K // 2, taken[::-1])
        parts.append(n - 1 - rev[::-1])
    stacked = np.concatenate(parts)
    _, first = np.unique(stacked, return_index=True)
    pool = stacked[np.sort(first)]
    return CandidatePool(pool)


def _log_v(state, k):
    """log generalized variance: log det Q minus (p+1) log k."""
    return state.log_det - state.dim * math.log(k)


def _scan_state(x, idx, F):
    """Everything a slot scan reads, built from the selected and pool rows.

    Returns the moment state of `idx`, M = Q^{-1}, the augmented selected
    and pool rows, and the pool quadratic forms c_j = z_j^T M z_j.
    """
    state = build_moment(x, idx)
    M = np.linalg.inv(state.q)
    ZF = augment(x[F])
    c = np.einsum("ij,ij->i", ZF @ M, ZF)
    return state, M, augment(x[idx]), ZF, c


def _exchange(x, seed, K, iterations, first_improvement, pool=None):
    t0 = time.perf_counter()
    x = np.asarray(x, dtype=float)
    idx = as_indices(seed).copy()
    k = idx.size
    if pool is None:
        pool = candidate_pool(x, idx, K)
    F = pool.indices.copy()
    state, M, ZS, ZF, c = _scan_state(x, idx, F)
    trace = ExchangeTrace()
    trace.initial_log_v = log_v = _log_v(state, k)

    for it in range(iterations):
        accepts = 0
        for i in range(k):
            zo = ZS[i]
            u = M @ zo
            a = 1.0 - zo @ u
            d = ZF @ u
            # determinant ratio of swapping slot i's occupant for each
            # candidate; scores share the fixed base Q - zo zo^T, so they
            # are comparable across the whole scan.
            score = a * (1.0 + c) + d * d
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
            new_idx, new_F = idx.copy(), F.copy()
            for w in accepted:
                new_idx[i], new_F[w] = new_F[w], new_idx[i]
            try:
                state, M, ZS, ZF, c = _scan_state(x, new_idx, new_F)
            except SingularMomentError:
                trace.slots_skipped += 1   # leave the slot alone
                continue
            best = 1.0
            for w in accepted:
                trace.records.append(SwapRecord(
                    it, i, w, True, log_v + math.log(best),
                    log_v + math.log(score[w])))
                best = score[w]
            idx, F = new_idx, new_F
            log_v = _log_v(state, k)
            accepts += len(accepted)
        trace.iteration_accepts.append(accepts)
        trace.accepted_swaps += accepts
    trace.final_log_v = log_v
    trace.seconds = time.perf_counter() - t0
    return Selection(idx, seed.source if hasattr(seed, "source") else
                     "custom"), trace


def alg1(x, seed, K, iterations=5, pool=None):
    """First-improvement exchange, Step 3 repeated `iterations` times."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    sel, trace = _exchange(x, seed, K, iterations, True, pool=pool)
    sel.source = "alg1"
    return sel, trace


def valg1(x, seed, K, pool=None):
    """Scan-all greedy-chain exchange; a single pass over the slots."""
    sel, trace = _exchange(x, seed, K, 1, False, pool=pool)
    sel.source = "valg1"
    return sel, trace
