"""Output checks computed apart from the program, with numpy and hashlib only.

Each check returns a list of error strings; an empty list means the output
passed.  Nothing here imports ``subdopt``: the references (scaling,
log-determinants, least squares, IBOSS, pool extremes) are re-derived from
the definitions, so a wrong answer from the program cannot also be the
reference it is compared with.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Relative tolerance on d_eff, log det Q, log V and slope errors.  The
#: program factors Q by Cholesky and the checks by LU or QR; the two agree
#: to about 1e-13, while a corrupted answer is off by far more than this.
REL_TOL = 1e-9


def close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * max(1.0, abs(want))


def scale(x):
    """Min-max map of every column onto [-1, 1]."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def log_det_q(xs, idx):
    """log det Z'Z over the selected rows, Z = [1, xs]."""
    z = np.column_stack([np.ones(len(idx)), xs[idx]])
    sign, value = np.linalg.slogdet(z.T @ z)
    return value if sign > 0 else -math.inf


def log_v(xs, idx):
    """log det Z'Z minus (p + 1) log k: the exchange's log V."""
    return log_det_q(xs, idx) - (xs.shape[1] + 1) * math.log(len(idx))


def indices(idx, n, k):
    idx = np.asarray(idx)
    errors = []
    if idx.shape != (k,):
        errors.append(f"expected {k} indices, got shape {idx.shape}")
    elif np.unique(idx).size != k:
        errors.append("selected indices are not distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        errors.append(f"selected index out of range [0, {n})")
    return errors


def efficiency(xs, idx, d_eff, log_det):
    """Reported d_eff and log det Q against slogdet on the selected rows."""
    want = log_det_q(xs, idx)
    want_d = math.exp(want / (xs.shape[1] + 1)) / len(idx)
    errors = []
    if not close(log_det, want):
        errors.append(f"log_det_q {log_det!r} != slogdet {want!r}")
    if not close(d_eff, want_d):
        errors.append(f"d_eff {d_eff!r} != {want_d!r} from slogdet")
    return errors


def improves(xs, seed_idx, final_idx, initial_log_v=None, final_log_v=None):
    """The exchange never lowers log V; reported log Vs match slogdet."""
    v0, v1 = log_v(xs, seed_idx), log_v(xs, final_idx)
    errors = []
    if v1 < v0 - REL_TOL * max(1.0, abs(v0)):
        errors.append(f"final log V {v1!r} below the seed's {v0!r}")
    if initial_log_v is not None and not close(initial_log_v, v0):
        errors.append(f"initial_log_v {initial_log_v!r} != {v0!r}")
    if final_log_v is not None and not close(final_log_v, v1):
        errors.append(f"final_log_v {final_log_v!r} != {v1!r}")
    return errors


def iboss(xs, k):
    """IBOSS by full sorts: per covariate, r smallest then r largest rows
    among those not yet taken, ties to the lower row; the k - 2pr left
    over go one per extreme from covariate 1, small end first."""
    n, p = xs.shape
    base, rem = divmod(k, 2 * p)
    avail = np.ones(n, dtype=bool)
    out = []
    for slot in range(2 * p):
        j, large = divmod(slot, 2)
        m = base + (slot < rem)
        ids = np.flatnonzero(avail)
        vals = -xs[ids, j] if large else xs[ids, j]
        take = ids[np.lexsort((ids, vals))[:m]]
        out.append(take)
        avail[take] = False
    return np.concatenate(out)


def slope_error(x, y, idx, beta1, mse_slopes):
    """Reported slope MSE against a numpy least-squares fit."""
    z = np.column_stack([np.ones(len(idx)), x[idx]])
    coef = np.linalg.lstsq(z, y[idx], rcond=None)[0]
    want = float(np.sum((coef[1:] - beta1) ** 2))
    if not close(mse_slopes, want, rel=1e-8):
        return [f"mse_slopes {mse_slopes!r} != {want!r} from lstsq"]
    return []


def pool(xs, seed_idx, pool_idx, K):
    """Distinct, disjoint from the seed, at most p*K rows, and holding the
    K/2 smallest and K - K/2 largest unselected rows of every covariate."""
    n, p = xs.shape
    pool_idx = np.asarray(pool_idx)
    errors = []
    if np.unique(pool_idx).size != pool_idx.size:
        errors.append("pool rows are not distinct")
    if np.intersect1d(pool_idx, seed_idx).size:
        errors.append("pool overlaps the seed selection")
    if pool_idx.size > p * K:
        errors.append(f"pool has {pool_idx.size} rows > p*K = {p * K}")
    rest = np.setdiff1d(np.arange(n), seed_idx)
    for j in range(p):
        vals = xs[rest, j]
        for m, sign, end in ((K // 2, 1.0, "smallest"),
                             (K - K // 2, -1.0, "largest")):
            if m == 0:
                continue
            want = rest[np.argpartition(sign * vals, m - 1)[:m]]
            missing = np.setdiff1d(want, pool_idx)
            if missing.size:
                errors.append(f"pool misses {missing.size} of the {m} "
                              f"{end} rows of covariate {j}")
    return errors


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def checksums(outputs, outdir):
    """Manifest output checksums against digests of the files."""
    errors = []
    for name, digest in outputs.items():
        got = sha256(outdir / name)
        if got != digest:
            errors.append(f"manifest checksum of {name} != file digest")
    return errors


def desk_design(n, p, rho, beta0, beta1, sigma2, seed):
    """The simulation protocol's (x, y) for one repetition seed.

    Rows are sqrt(1 - rho) g + sqrt(rho) g0 with g, g0 standard normal
    draws from default_rng(seed); the noise comes from
    default_rng(seed + 1e9), scaled by sqrt(sigma2).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    if rho != 0.0:
        x = math.sqrt(1.0 - rho) * x + math.sqrt(rho) * \
            rng.standard_normal((n, 1))
    eps = np.random.default_rng(seed + 10 ** 9).standard_normal(n)
    return x, beta0 + x @ beta1 + eps * math.sqrt(sigma2)
