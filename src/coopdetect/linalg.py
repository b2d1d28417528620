"""Dense Hermitian positive-definite kernels for the covariance likelihood.

Everything here works on plain complex128 ndarrays, one matrix or a stack
of them along leading axes (one per AP), with numpy alone.  Matrices passed
in are expected to be Hermitian; the positive-definiteness check is a
Cholesky pivot test relative to the trace.  The gradient's quadratic forms
go through one batched explicit inverse per stack and one GEMM over the
shared pilot columns, as numpy has no batched triangular inverse or solve.
"""

from __future__ import annotations

import numpy as np

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
    return np.linalg.solve(np.conj(np.swapaxes(low, -1, -2)), np.linalg.solve(low, v))


def downdate_quadforms_batch(
    cov: np.ndarray, cols: np.ndarray, gammas: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms of the inverse of rank-one downdates of A, per column.

    For each column ``v = cols[:, n]`` with coefficient ``gamma = gammas[..., n]``
    and ``A_d = A - gamma v v^H`` (never formed), returns

        q1 = v^H A_d^-1 v
        q2 = v^H A_d^-1 B A_d^-1 v

    using the Sherman-Morrison identity: for u = A^-1 v and alpha = v^H u,
    A_d^-1 v = u / (1 - gamma * alpha).  ``cov`` is A itself, Hermitian
    positive definite (``gammas`` and ``b`` stacked alike); the (L, N)
    columns are shared.  One batched inverse gives A^-1, one GEMM over the
    stack gives U = A^-1 V for all columns, and then alpha = Re v^H u and
    u^H B u = Re u^H (B u): O(L^3) per matrix plus two O(L^2 N) products.

    Raises
    ------
    SingularDowndate
        If ``1 - gamma * v^H A^-1 v <= DOWNDATE_TOL`` for some column, i.e.
        gamma is inconsistent with ``cov``.
    """
    l, n = cols.shape
    inv = np.linalg.inv(cov)
    u = (inv.reshape(-1, l) @ cols).reshape(inv.shape[:-1] + (n,))
    alpha = np.real(np.vecdot(cols, u, axis=-2))
    ubu = np.real(np.vecdot(u, b @ u, axis=-2))
    denom = 1.0 - np.asarray(gammas) * alpha
    bad = denom <= DOWNDATE_TOL
    if np.any(bad):
        k, at = _first(bad)
        raise SingularDowndate(f"{at}1 - gamma * v^H A^-1 v = {denom[k]:.3e}")
    return alpha / denom, ubu / denom**2
