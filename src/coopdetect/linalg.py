"""Dense Hermitian positive-definite kernels for the covariance likelihood.

Everything here works on plain complex128 ndarrays, one matrix or a stack
of them along leading axes (one per AP).  Matrices passed in are expected to
be Hermitian; only the lower triangle is ever factorized, and the
positive-definiteness check is a Cholesky pivot test relative to the trace.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs

from .errors import DimensionMismatch, NotPositiveDefinite, SingularDowndate

# Cholesky pivots below this fraction of the trace count as non-positive.
PIVOT_RTOL = 1e-12
# 1 - gamma * v^H A^-1 v at or below this kills a downdate.
DOWNDATE_TOL = 1e-12


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a (stack of) square matrices, got shape {a.shape}")
    return a


def _first(bad: np.ndarray) -> tuple:
    """Index of the first True entry of ``bad``, and its position as a message prefix."""
    k = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return k, (f"at {tuple(int(i) for i in k)}: " if k else "")


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a Hermitian PD matrix (or stack).

    Raises
    ------
    NotPositiveDefinite
        If the factorization hits a non-positive pivot, or any pivot falls
        at or below ``PIVOT_RTOL * trace(a)``.
    """
    a = _as_square(a)
    trace = np.real(np.trace(a, axis1=-2, axis2=-1))
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    pivots = np.min(np.real(np.diagonal(low, axis1=-2, axis2=-1)) ** 2, axis=-1)
    bad = (trace <= 0.0) | (pivots <= PIVOT_RTOL * trace)
    if np.any(bad):
        k, at = _first(bad)
        raise NotPositiveDefinite(
            f"{at}pivot {pivots[k]:.3e} below tolerance {PIVOT_RTOL * trace[k]:.3e}"
        )
    return low


def logdet_from_factor(low: np.ndarray) -> np.ndarray:
    """ln det(A) given a lower Cholesky factor of A (one value per matrix)."""
    return 2.0 * np.sum(np.log(np.real(np.diagonal(low, axis1=-2, axis2=-1))), axis=-1)


def solve_from_factor(low: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve A x = v given the lower Cholesky factor of A; v may be a matrix."""
    return cho_solve((low, True), v, check_finite=False)


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of each lower-triangular factor, by one LAPACK trtri call per matrix."""
    (trtri,) = get_lapack_funcs(("trtri",), (low,))
    flat = low.reshape((-1,) + low.shape[-2:])
    out = np.empty_like(flat)
    for k, m in enumerate(flat):
        out[k] = trtri(m, lower=1)[0]
    return out.reshape(low.shape)


def downdate_quadforms_batch(
    low: np.ndarray, cols: np.ndarray, gammas: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms of the inverse of rank-one downdates of A, per column.

    For each column ``v = cols[:, n]`` with coefficient ``gamma = gammas[..., n]``
    and ``A_d = A - gamma v v^H`` (never formed), returns

        q1 = v^H A_d^-1 v
        q2 = v^H A_d^-1 B A_d^-1 v

    using the Sherman-Morrison identity: for u = A^-1 v and alpha = v^H u,
    A_d^-1 v = u / (1 - gamma * alpha).  ``low`` is the lower Cholesky factor
    L of A (``gammas`` and ``b`` stacked alike); the (L, N) columns are
    shared.  With w = L^-1 v and G = L^-1 B L^-H, alpha = |w|^2 and
    u^H B u = w^H G w: O(L^3) per matrix plus two O(L^2 N) products.

    Raises
    ------
    SingularDowndate
        If ``1 - gamma * v^H A^-1 v <= DOWNDATE_TOL`` for some column, i.e.
        gamma is inconsistent with ``a``.
    """
    l, n = cols.shape
    linv = _lower_inverse(low)
    w = (linv.reshape(-1, l) @ cols).reshape(linv.shape[:-1] + (n,))
    alpha = np.sum(w.real**2 + w.imag**2, axis=-2)
    g = linv @ b @ np.conj(np.swapaxes(linv, -1, -2))
    ubu = np.real(np.vecdot(w, g @ w, axis=-2))
    denom = 1.0 - np.asarray(gammas) * alpha
    bad = denom <= DOWNDATE_TOL
    if np.any(bad):
        k, at = _first(bad)
        raise SingularDowndate(f"{at}1 - gamma * v^H A^-1 v = {denom[k]:.3e}")
    return alpha / denom, ubu / denom**2
