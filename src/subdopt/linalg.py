"""Dense SPD moment-matrix machinery.

Moment matrices here are sums Q = sum_i z_i z_i^T over selected rows,
where z_i = (1, x_i^T)^T.  `build_moment` assembles Q from the rows and
`factor_moment` factors it once, rejecting a singular Q; the log
determinant and trace(Q^{-1}) are read off that Cholesky factor.
Nothing here updates a state in place: a changed selection is a new
factorization.  `simulate.ols_fit` keeps a rule of its own, the failure
of scipy's `cho_factor`: numpy's and scipy's Cholesky factors of one
matrix can differ in the last bit (on 99 of 4,000 random designs with
2 to 11 uniform covariates), so moving the fit onto `factor_moment`
would change the bytes of `simulate` reports.
"""

from __future__ import annotations

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


def factor_moment(q):
    """Cholesky-factor a moment matrix Q: the `MomentState` of `q`.

    The singularity rule of the selection and its metrics (OLS keeps
    scipy's, see the module docstring): raises SingularMomentError when
    the factorization fails or leaves a pivot at rounding-noise scale.
    """
    d = q.shape[0]
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise SingularMomentError(f"{d}x{d} moment matrix is singular") \
            from exc
    # LAPACK can hand back a rounding-noise pivot for an exactly singular
    # matrix; reject pivots below the scale of accumulated rounding.
    dg = chol.diagonal()
    if (dg * dg).min() <= d * np.finfo(float).eps * q.diagonal().max():
        raise SingularMomentError(
            f"{d}x{d} moment matrix is numerically singular")
    return MomentState(d, q, chol, 2.0 * float(np.log(dg).sum()))


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
    return factor_moment(z.T @ z)


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
