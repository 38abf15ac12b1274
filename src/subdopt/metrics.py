"""Moment matrices and evaluation criteria for a selected subdata set.

The moment matrix Q = sum_i z_i z_i^T of the selected rows, with
z_i = (1, x_i^T)^T, is factored once per selection (`factor_moment`
rejects a singular Q); log det Q and trace(Q^{-1}) are read off that
Cholesky factor.

Efficiencies are normalized so that a two-level orthogonal array with
entries in {-1, +1} scores exactly 1 on both; for data scaled to [-1, 1]
they lie in (0, 1].  The planar convex-hull diagnostic compares subdata
coverage to full-data coverage for a covariate pair.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import as_indices


def _scipy_linalg(name, *routines):
    """`routines` of the extension file scipy/linalg/<name>, loaded without
    scipy.linalg's `__init__`, about half of every command's start-up."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    base = Path(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base / (name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                f"scipy.linalg.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return [getattr(module, routine) for routine in routines]
    raise ImportError(f"scipy has no extension file {base / name}.*")


dtrsm, = _scipy_linalg("_fblas", "dtrsm")
dpotrf, dpotrs = _scipy_linalg("_flapack", "dpotrf", "dpotrs")


class SingularMomentError(Exception):
    """The selected rows do not span: Cholesky factorization failed."""


def augment(x):
    """Prepend the intercept column of ones: rows x_i -> z_i = (1, x_i)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.column_stack([np.ones(x.shape[0]), x])


def factor_moment(q):
    """Cholesky-factor a moment matrix Q: (lower factor, log det Q).

    The singularity rule of the selection and its metrics (OLS keeps
    scipy's, see `simulate.ols_fit`): raises SingularMomentError when
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
    return chol, 2.0 * float(np.log(dg).sum())


@dataclass
class EfficiencyReport:
    gen_variance: float   # det of the selection's covariance matrix
    d_eff: float
    a_eff: float
    log_det_q: float


@dataclass
class MseReport:
    mse_intercept: float
    mse_slopes: float


def efficiency(x, sel):
    """Generalized variance, D-efficiency and A-efficiency of a selection."""
    idx = as_indices(sel)
    k = idx.size
    if k < 1:
        raise ValueError("selection must contain at least one row")
    if np.unique(idx).size != k:
        raise ValueError("selection indices must be distinct")
    xs = np.asarray(x, dtype=float)[idx]
    z = augment(xs)
    chol, log_det = factor_moment(z.T @ z)
    p1 = chol.shape[0]
    d_eff = math.exp(log_det / p1) / k
    # trace(Q^{-1}) via a triangular solve; equals the eigenvalue sum.
    # scipy's BLAS dtrsm, called directly, gives the bits of its
    # solve_triangular, which took milliseconds, not microseconds, in
    # some processes with default BLAS threads.
    w = dtrsm(1.0, chol, np.eye(p1), lower=1)
    a_eff = p1 / (k * float(np.sum(w * w)))
    xc = xs - xs.mean(axis=0)
    # the covariance of the selected rows, divisor k
    sign, logdet_cov = np.linalg.slogdet((xc.T @ xc) / k)
    gen_var = float(sign * math.exp(logdet_cov))
    return EfficiencyReport(gen_var, d_eff, a_eff, log_det)


def mse(beta_hat, beta_true):
    """Squared-error split into intercept and slope components."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    if beta_hat.shape != beta_true.shape:
        raise ValueError(
            f"shape mismatch: {beta_hat.shape} vs {beta_true.shape}")
    diff = beta_hat - beta_true
    return MseReport(float(diff[0] ** 2), float(diff[1:] @ diff[1:]))


def hull_2d(points):
    """Convex hull of planar points by the monotone chain, plus its area.

    Returns (vertices, area) with vertices in counterclockwise order.
    Collinear inputs collapse to the two extreme endpoints and area 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("need at least one point")
    uniq = np.unique(pts, axis=0)  # lexicographic sort as a side effect
    if uniq.shape[0] == 1:
        return uniq, 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(chain_pts):
        chain = []
        for pt in chain_pts:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], pt) <= 0:
                chain.pop()
            chain.append(pt)
        return chain

    lower = half(uniq)
    upper = half(uniq[::-1])
    verts = np.array(lower[:-1] + upper[:-1])
    xs, ys = verts[:, 0], verts[:, 1]
    area = 0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))
    return verts, float(area)
