"""Dense SPD moment-matrix machinery.

Moment matrices here are sums Q = sum_i z_i z_i^T over selected rows,
where z_i = (1, x_i^T)^T.  `build_moment` assembles Q from the rows and
factors it once; determinants, single-swap log-det changes and
trace(Q^{-1}) are read off that Cholesky factor.  Nothing here updates
a state in place: a changed selection is a new `build_moment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


class SingularMomentError(Exception):
    """The selected rows do not span: Cholesky factorization failed."""


def as_indices(sel):
    """Accept a Selection object or a plain index array."""
    return np.asarray(getattr(sel, "indices", sel), dtype=np.intp)


def augment(x):
    """Prepend the intercept column of ones: rows x_i -> z_i = (1, x_i)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.column_stack([np.ones(x.shape[0]), x])


@dataclass
class MomentState:
    dim: int
    q: np.ndarray        # (dim, dim) symmetric
    chol: np.ndarray     # lower triangular, q = chol @ chol.T
    log_det: float


def build_moment(x, sel):
    """Assemble the moment matrix of the selected rows and factor it.

    Raises SingularMomentError when the selection is rank deficient.
    """
    idx = as_indices(sel)
    if idx.size < 1:
        raise ValueError("selection must contain at least one row")
    if np.unique(idx).size != idx.size:
        raise ValueError("selection indices must be distinct")
    z = augment(np.asarray(x, dtype=float)[idx])
    q = z.T @ z
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise SingularMomentError(
            f"moment matrix of {idx.size} rows is singular") from exc
    # LAPACK can hand back a rounding-noise pivot for an exactly singular
    # matrix; reject pivots below the scale of accumulated rounding.
    tol = q.shape[0] * np.finfo(float).eps * np.max(np.diag(q))
    if np.any(np.diag(chol) ** 2 <= tol):
        raise SingularMomentError(
            f"moment matrix of {idx.size} rows is numerically singular")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return MomentState(q.shape[0], q, chol, log_det)


def swap_delta_logdet(state, z_out, z_in):
    """log det after swapping z_out for z_in, minus log det before.

    The determinant ratio a(1 + c) + d^2 comes from two lemma steps, and
    stays valid when the intermediate (after removal) is singular, since
    the determinant identity is polynomial.  Inadmissible swaps (z_out
    not in the state, or a singular result) come back as -inf so callers
    can reject them uniformly.  The state is not mutated.
    """
    L = state.chol
    u = solve_triangular(L, np.asarray(z_out, dtype=float), lower=True)
    a = 1.0 - u @ u
    if a < -1e-9:
        return -np.inf
    v = solve_triangular(L, np.asarray(z_in, dtype=float), lower=True)
    c = v @ v
    d = u @ v
    ratio = a * (1.0 + c) + d * d
    # Ratios at rounding-noise scale are singular results in disguise.
    if not ratio > 1e-12:
        return -np.inf
    return math.log(ratio)


def trace_inverse(state):
    """trace(Q^{-1}) via a triangular solve; equals the eigenvalue sum."""
    w = solve_triangular(state.chol, np.eye(state.dim), lower=True)
    return float(np.sum(w * w))


@dataclass
class CovarianceSummary:
    means: np.ndarray   # per-covariate means of the selected rows
    cov: np.ndarray     # p x p covariance with divisor k


def covariance_summary(x, sel):
    """Means and covariance (divisor k) of the selected covariate rows."""
    idx = as_indices(sel)
    if idx.size < 2:
        raise ValueError("need at least 2 selected rows")
    xs = np.asarray(x, dtype=float)[idx]
    means = xs.mean(axis=0)
    xc = xs - means
    cov = (xc.T @ xc) / idx.size
    return CovarianceSummary(means, cov)
