"""Dense Hermitian positive-definite kernels for the covariance likelihood.

Everything here works on plain complex128 ndarrays, one matrix or a stack
of them along leading axes (one per AP), with numpy alone.  Matrices passed
in are expected to be Hermitian; the positive-definiteness check rejects
non-finite entries and is otherwise a Cholesky pivot test relative to the
trace.  The likelihood's gradient is one quadratic form per device,
Re a_n^H X a_n of one Hermitian X per AP (:func:`quadforms`), taken along
one of two paths, which :func:`pilot_kernel` picks once per pilot matrix:

- the pilot table (:func:`pilot_gram`): every AP sees the same (L, N)
  pilot matrix A, so its outer products a_n a_n^H are tabulated once, in
  Hermitian coordinates, as a real (L^2, N) table G.  The coordinates of a
  Hermitian X are its diagonal, then the real and then the imaginary parts
  of its strict upper triangle in row order; G holds the diagonal of
  a_n a_n^H and twice the real and imaginary parts of its upper triangle,
  so Re a_n^H X a_n = coords(X) . G[:, n] for every n in one real product.
  A sum of outer products sum_n d_n a_n a_n^H is d @ G^T read back from
  coordinates, which is exactly Hermitian.  This is a quarter of the flops
  of the complex products.  A stack of matrices (or of weight rows) takes
  one GEMM against the table: (k, L^2) by (L^2, N) for the forms, (k, N)
  by (N, L^2) for the sums.  A row's bits do not depend on the other rows'
  values, but they do depend on k and on the row's position, since BLAS
  picks its kernels and blocking by the row count: a one-row call is a
  GEMV and need not match row i of a stack to the last bit.
- the complex path, where the table would exceed ``GRAM_BYTES`` (it would
  take 32.8 MB at L=64, N=1000), since past the cache the table path
  measured slower: U = X A as one GEMM over the stack, then column-wise
  inner products.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Cholesky pivots below this fraction of the trace count as non-positive.
PIVOT_RTOL = 1e-12
# Largest pilot table pilot_gram builds, in bytes.  Gradient plus covariance
# update of one problem's APs as the solver calls them, on one core with a
# 2 MB L2 cache per core, table path time over complex path time with 1 / 5
# APs per problem: 0.91 / 0.79 at L=24, N=100 (0.46 MB), 0.91 / 0.80 at
# N=200 (0.92 MB), 1.20 / 0.88 at L=32, N=256 (2.1 MB), 1.49 / 1.00 at L=48,
# N=200 (3.7 MB) and 1.41 / 0.82 at L=64, N=1000 (32.8 MB).  Between 0.92 MB
# and 32.8 MB neither path wins at both counts, so the budget stays here.
GRAM_BYTES = 2 << 20


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a (stack of) square matrices, got shape {a.shape}")
    return a


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a Hermitian PD matrix (or stack).

    Raises
    ------
    NotPositiveDefinite
        If a matrix has a non-finite entry, or the factorization hits a
        non-positive pivot, or any pivot falls at or below
        ``PIVOT_RTOL * trace(a)``.
    """
    a = _as_square(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    trace = np.real(np.trace(a, axis1=-2, axis2=-1))
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    pivots = np.min(np.real(np.diagonal(low, axis1=-2, axis2=-1)) ** 2, axis=-1)
    # Written as negated passes, so that a NaN pivot or trace fails too.
    bad = ~finite | ~(trace > 0.0) | ~(pivots > PIVOT_RTOL * trace)
    if np.any(bad):
        k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        at = f"at {tuple(int(i) for i in k)}: " if k else ""
        if not finite[k]:
            raise NotPositiveDefinite(f"{at}non-finite entry")
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


@cache
def _coordinates(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables between (L, L) complex matrices, read as 2 L^2 floats, and coordinates.

    Returns the float positions of the L^2 coordinates and, for each of the
    2 L^2 floats of a Hermitian matrix, the doubled coordinate it is read
    from and the factor that undoes the doubling (0 for the imaginary part
    of the diagonal, negative below it).
    """
    i, j = np.triu_indices(l, 1)
    k = len(i)
    diag, upper, lower = np.arange(l) * (l + 1), i * l + j, j * l + i
    take = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    src, scale = np.zeros(2 * l * l, dtype=np.intp), np.zeros(2 * l * l)
    src[2 * diag], scale[2 * diag] = np.arange(l), 1.0
    for part, first in ((0, l), (1, l + k)):
        src[2 * upper + part] = src[2 * lower + part] = first + np.arange(k)
        scale[2 * upper + part], scale[2 * lower + part] = 0.5, 0.5 - part
    for table in (take, src, scale):
        table.flags.writeable = False
    return take, src, scale


def hermitian_coords(x: np.ndarray) -> np.ndarray:
    """The L^2 real coordinates of each Hermitian matrix of ``x`` (..., L, L).

    The diagonal, then the real and the imaginary parts of the strict upper
    triangle in row order; the lower triangle is not read.
    """
    l = x.shape[-1]
    floats = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[:-2] + (2 * l * l,))
    return np.take(floats, _coordinates(l)[0], axis=-1)


def gram_bytes(l: int, n: int) -> int:
    """Bytes of the table :func:`pilot_gram` builds for (L, N) pilots, 0 if it builds none."""
    size = 8 * l * l * n
    return size if size <= GRAM_BYTES else 0


def pilot_gram(cols: np.ndarray) -> np.ndarray | None:
    """The real (L^2, N) table of the columns' outer products, or None past ``GRAM_BYTES``.

    Column n holds the coordinates of a_n a_n^H with the off-diagonal ones
    doubled (see the module docstring), so that for Hermitian X
    ``hermitian_coords(X) @ table`` is Re a_n^H X a_n for every n.  Built
    one pilot row at a time, so no temporary outgrows a few pilot rows.
    """
    l, n = cols.shape
    if not gram_bytes(l, n):
        return None
    table = np.empty((l * l, n))
    table[:l] = cols.real**2 + cols.imag**2
    first, k = l, l * (l - 1) // 2
    for i in range(l - 1):
        upper = cols[i] * cols[i + 1:].conj()       # a_i conj(a_j) for j > i
        rows = slice(first, first + l - 1 - i)
        table[rows] = 2.0 * upper.real
        table[rows.start + k:rows.stop + k] = 2.0 * upper.imag
        first = rows.stop
    return table


def pilot_kernel(cols: np.ndarray) -> np.ndarray:
    """What the gradient and the covariance update read the (L, N) columns through.

    Their table (:func:`pilot_gram`) or, past ``GRAM_BYTES``, their (N, L)
    conjugate transpose, which the complex path multiplies by.  Built once
    per pilot matrix and solve; :func:`is_table` tells the two apart.
    """
    table = pilot_gram(cols)
    return cols.conj().T if table is None else table


def is_table(kernel: np.ndarray | None) -> bool:
    """Whether ``kernel`` (:func:`pilot_kernel`) is a pilot table, not a conjugate transpose."""
    return kernel is not None and not np.iscomplexobj(kernel)


def outer_sum(weights: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """sum_n w_n a_n a_n^H for each row of ``weights`` (..., N), from the columns' table.

    One (k, N) by (N, L^2) product over the rows, read back from
    coordinates, so each result is exactly Hermitian.
    """
    l = isqrt(gram.shape[0])
    _, src, scale = _coordinates(l)
    doubled = np.asarray(weights) @ gram.T
    floats = np.take(doubled, src, axis=-1)
    floats *= scale
    return floats.view(complex).reshape(floats.shape[:-1] + (l, l))


def quadforms(x: np.ndarray, cols: np.ndarray, kernel: np.ndarray | None = None) -> np.ndarray:
    """Re v_n^H X v_n for every column v_n of the (L, N) ``cols``, per Hermitian X of ``x``.

    ``x`` is one (L, L) matrix or a stack; the result is (..., N).  Where
    the columns' ``kernel`` (:func:`pilot_kernel`) is their table, the forms
    are the coordinates of X times the table, one (k, L^2) by (L^2, N)
    product over the stack.  Otherwise one GEMM over the stack gives U = X V,
    then Re v^H u column by column.
    """
    if is_table(kernel):
        return hermitian_coords(x) @ kernel
    l, n = cols.shape
    u = (x.reshape(-1, l) @ cols).reshape(x.shape[:-1] + (n,))
    return np.real(np.vecdot(cols, u, axis=-2))
