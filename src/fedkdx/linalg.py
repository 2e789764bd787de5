"""Dense kernels shared by the rest of the package.

Everything here operates on plain numpy arrays.  The SVD is LAPACK's
divide-and-conquer driver (``gesdd``) with the QR-iteration driver
(``gesvd``) as its fallback, and a fixed singular-vector sign convention so
the factors do not depend on which driver ran.

The softmax kernels compute in the dtype they are given; the SVD and the
finite differences in float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg


class SvdNonConvergence(RuntimeError):
    """Neither LAPACK driver converged on the matrix."""


def log_softmax_rows(logits: np.ndarray, tau: float) -> np.ndarray:
    """Log softmax at temperature tau along the last axis, in the array's
    dtype; scans nothing, as callers check logits finite and tau > 0 at entry."""
    return log_softmax_shifted((logits - logits.max(axis=-1, keepdims=True)) / tau)


def log_softmax_shifted(shifted: np.ndarray) -> np.ndarray:
    """Log softmax along the last axis of rows already shifted by their max
    (and divided by a temperature), so one shift serves several temperatures."""
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_rows(logits: np.ndarray, tau: float) -> np.ndarray:
    return np.exp(log_softmax_rows(logits, tau))


def thin_svd(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a P x Q matrix with P >= Q.

    Returns (u, sigma, v) with u: P x Q orthonormal columns, sigma: Q
    non-increasing non-negative values, v: Q x Q orthogonal, such that
    g = u @ diag(sigma) @ v.T.  Each column of u has its largest-magnitude
    entry positive (the first one on a tie), with the matching column of v
    flipped alongside.

    Raises SvdNonConvergence when both LAPACK drivers fail.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={g.ndim}")
    p, q = g.shape
    if p < q:
        raise ValueError(f"thin_svd requires rows >= cols, got {p}x{q}; transpose first")
    if q == 0:
        raise ValueError("matrix must have at least one column")
    if not np.isfinite(g).all():
        raise ValueError("matrix must be finite (found NaN or Inf)")

    try:
        u, sigma, vt = _lapack_svd(g, "gesdd")
    except np.linalg.LinAlgError:
        try:
            u, sigma, vt = _lapack_svd(g, "gesvd")
        except np.linalg.LinAlgError as e:
            raise SvdNonConvergence(f"svd of a {p}x{q} matrix did not converge: {e}") from e

    pivot = np.abs(u).argmax(axis=0)
    signs = np.where(u[pivot, np.arange(q)] < 0, -1.0, 1.0)
    return u * signs, sigma, vt.T * signs


def _lapack_svd(g: np.ndarray, driver: str):
    return scipy.linalg.svd(g, full_matrices=False, lapack_driver=driver,
                            check_finite=False)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function over every entry
    of ``x``.  Test oracle; O(2 * x.size) evaluations of f."""
    x = np.asarray(x, dtype=np.float64)
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    g = np.empty_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g
