"""Dense Hermitian positive-definite kernels for the covariance likelihood.

Everything here works on plain complex128 ndarrays, one matrix or a stack
of them along leading axes (one per AP), with numpy alone.  Matrices passed
in are expected to be Hermitian; the positive-definiteness check rejects
non-finite entries and is otherwise a Cholesky pivot test relative to the
trace.

The solver reads the pilots through :func:`forms`, Re a_n^H X a_n of one
Hermitian X per AP for every device (the likelihood's gradient, and the
alpha and beta of coordinate descent), and :func:`outer_sums`,
sum_n d_n a_n a_n^H per weight row, which :func:`add_outer_sums` adds to
covariances.  They, :func:`operands` (what the forms read of a matrix) and
:func:`row_bytes` take the pilots' kernel (:func:`pilot_kernel`), and only
this module tells its two kinds apart:

- the pilot table (:func:`pilot_gram`): every AP sees the same (L, N)
  pilot matrix A, so its outer products a_n a_n^H are tabulated once, in
  Hermitian coordinates, as a real (N, L^2) table G, one row per device.
  The coordinates of a Hermitian X are its diagonal, then the real and
  then the imaginary parts of its strict upper triangle in row order; row
  n of G holds the diagonal of a_n a_n^H and twice the real and imaginary
  parts of its upper triangle, so Re a_n^H X a_n = coords(X) . G[n] for
  every n in one real product.  A sum of outer products
  sum_n d_n a_n a_n^H is d @ G, doubled coordinates that
  :func:`add_outer_sums` reads back exactly Hermitian.  This is a quarter
  of the flops of the complex products.  A stack of matrices (or of weight
  rows) takes one GEMM against the table: coords @ G^T, (k, L^2) by
  (L^2, N), for the forms and d @ G, (k, N) by (N, L^2), for the sums,
  neither with a copy of the table.
- the complex path, where the table would exceed ``GRAM_BYTES`` (it would
  take 32.8 MB at L=64, N=1000), since past the cache the table path
  measured slower: U = X A as one GEMM over the stack, then column-wise
  inner products, and one GEMM by A^H for the sums, re-symmetrized when added.

On both, a row's bits do not depend on the other rows' values, but they do
depend on k and on the row's position, since BLAS picks its kernels and
blocking by the row count: a one-row call need not match row i of a stack
to the last bit.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Cholesky pivots below this fraction of the trace count as non-positive.
PIVOT_RTOL = 1e-12
# Largest pilot table pilot_gram builds, in bytes.  Gradient plus covariance
# update of one problem's APs as the solver calls them (the (N, L^2) table,
# the inverse from the Cholesky factor and one readback), on one core with a
# 2 MB L2 cache per core, table path time over complex path time with
# 1 / 5 / 16 APs per problem, two runs: 0.86-0.87 / 0.69-0.75 / 0.72-0.76
# at L=24, N=100 (0.46 MB), 0.84-0.89 / 0.67-0.71 / 0.58-0.61 at N=200
# (0.92 MB), 1.21-1.23 / 0.87-0.99 / 0.61 at L=32, N=256 (2.1 MB),
# 1.24-1.62 / 0.92-0.93 / 0.70-0.71 at L=48, N=200 (3.7 MB) and
# 1.38-1.44 / 0.92-1.01 / 0.49-0.53 at L=64, N=1000 (32.8 MB).  Between
# 0.92 MB and 32.8 MB one AP per problem runs faster on the complex path and
# five or more on the table, so no budget there wins at every count, and
# the budget stays here.
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


def _halves(x: np.ndarray) -> np.ndarray:
    """The two diagonal halves of each even-sized matrix of ``x``, stacked (2, ..., h, h).

    A view, not a copy, and writable where ``x`` is: each matrix read as a
    2 x 2 grid of h x h blocks (splitting an axis never copies), and the
    grid's diagonal.  Cheaper to build than an ``as_strided`` view.
    """
    h = x.shape[-1] // 2
    d = np.diagonal(x.reshape(x.shape[:-2] + (2, h, 2, h)), axis1=-4, axis2=-2)
    d.flags.writeable = x.flags.writeable
    return d.transpose((-1,) + tuple(range(d.ndim - 1)))


def _lower_inverse(low: np.ndarray, w: np.ndarray) -> None:
    """Write low^-1 into ``w`` for each lower-triangular matrix of ``low``."""
    m = low.shape[-1]
    if m <= 6:
        w[...] = np.linalg.inv(low)
        return
    h = m // 2
    if 2 * h == m:  # both halves of every matrix in one stack, so one call per level
        _lower_inverse(_halves(low), _halves(w))
    else:
        _lower_inverse(low[..., :h, :h], w[..., :h, :h])
        _lower_inverse(low[..., h:, h:], w[..., h:, h:])
    np.matmul(np.negative(w[..., h:, h:] @ low[..., h:, :h]), w[..., :h, :h],
              out=w[..., h:, :h])


def inverse_from_factor(low: np.ndarray) -> np.ndarray:
    """A^-1 given a lower Cholesky factor of A (or a stack of them).

    W = low^-1 is lower triangular, and is inverted by blocks:
    W11 = L11^-1 and W22 = L22^-1 on the diagonal and W21 = -W22 L21 W11
    below it, recursing on the two diagonal halves.  On an even split both
    halves of every matrix are stacked into one array (a view), so each
    level makes one call: L=24 makes a single ``np.linalg.inv`` call, on
    the stack's 6 x 6 blocks, and two matmuls per level.  An odd split
    recurses on each half.  Blocks of size 6 or less are inverted by LU.
    Then A^-1 = W^H W.

    At desk scale the cost is per-call and per-matrix LAPACK overhead, not
    flops, and fewer calls on smaller blocks cut it: in a desk experiment
    (stacks of 20 matrices at L=24) the inverse took 0.85x the time of one
    split with two 12 x 12 LU calls, and base sizes 3 and 12 took 0.98x and
    1.00x.  A stack of one matrix pays for the extra levels: at L=24 it took
    1.2x the time of that split, 1.7x that of ``np.linalg.inv``.

    LAPACK and matmul act matrix by matrix, so each matrix of a stack is its
    own: its bits do not depend on the stack.
    """
    w = np.zeros_like(low)
    _lower_inverse(low, w)
    return np.conj(np.swapaxes(w, -1, -2)) @ w


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


def gram_bytes(l: int, n: int) -> int:
    """Bytes of the table :func:`pilot_gram` builds for (L, N) pilots, 0 if it builds none."""
    size = 8 * l * l * n
    return size if size <= GRAM_BYTES else 0


def pilot_gram(cols: np.ndarray) -> np.ndarray | None:
    """The real (N, L^2) table of the columns' outer products, or None past ``GRAM_BYTES``.

    Row n holds the coordinates of a_n a_n^H with the off-diagonal ones
    doubled (see the module docstring), so that for Hermitian X
    ``operands(X, table) @ table.T`` is Re a_n^H X a_n for every n.  Built
    one pilot row at a time, so no temporary outgrows a few pilot rows.
    """
    l, n = cols.shape
    if not gram_bytes(l, n):
        return None
    table = np.empty((n, l * l))
    table[:, :l] = (cols.real**2 + cols.imag**2).T
    first, k = l, l * (l - 1) // 2
    for i in range(l - 1):
        upper = cols[i] * cols[i + 1:].conj()       # a_i conj(a_j) for j > i
        stop = first + l - 1 - i
        table[:, first:stop] = 2.0 * upper.real.T
        table[:, first + k:stop + k] = 2.0 * upper.imag.T
        first = stop
    return table


def pilot_kernel(cols: np.ndarray) -> np.ndarray:
    """What :func:`forms` and :func:`outer_sums` read the (L, N) columns through.

    Their table (:func:`pilot_gram`) or, past ``GRAM_BYTES``, their (N, L)
    conjugate transpose, which the complex path multiplies by.  Built once
    per pilot matrix and solve; :func:`is_table` tells the two apart.
    """
    table = pilot_gram(cols)
    return cols.conj().T if table is None else table


def is_table(kernel: np.ndarray | None) -> bool:
    """Whether ``kernel`` (:func:`pilot_kernel`) is a pilot table, not a conjugate transpose."""
    return kernel is not None and not np.iscomplexobj(kernel)


def row_bytes(kernel: np.ndarray) -> int:
    """Bytes of temporaries per row of a :func:`forms` or :func:`outer_sums` product.

    Two (L, N) complex arrays, or three (L, L) real arrays with a table.
    """
    n, k = kernel.shape
    return 24 * k if is_table(kernel) else 32 * k * n


def operands(x: np.ndarray, kernel: np.ndarray | None) -> np.ndarray:
    """What :func:`forms` reads of each Hermitian matrix of ``x`` (..., L, L).

    With a table, the matrix's L^2 real coordinates: the diagonal, then the
    real and the imaginary parts of the strict upper triangle in row order
    (the lower triangle is not read).  Otherwise the matrix itself.
    """
    if not is_table(kernel):
        return x
    l = x.shape[-1]
    floats = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[:-2] + (2 * l * l,))
    return np.take(floats, _coordinates(l)[0], axis=-1)


def forms(ops: np.ndarray, cols: np.ndarray, kernel: np.ndarray | None = None) -> np.ndarray:
    """Re a_n^H X a_n for every column a_n of the (L, N) ``cols``, per Hermitian X.

    ``ops`` is :func:`operands` of one matrix or a stack, through the
    columns' ``kernel`` (:func:`pilot_kernel`; None for the complex path);
    the result is (..., N).  With a table the forms are the coordinates
    times the table's transpose, one (k, L^2) by (L^2, N) product over the
    stack.  Otherwise one GEMM over the stack gives U = X A, then Re a^H u
    column by column.
    """
    if is_table(kernel):
        return ops @ kernel.T
    l, n = cols.shape
    u = (ops.reshape(-1, l) @ cols).reshape(ops.shape[:-1] + (n,))
    return np.real(np.vecdot(cols, u, axis=-2))


def outer_sums(d: np.ndarray, cols: np.ndarray, kernel: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """sum_n d_n a_n a_n^H per weight row of ``d`` (..., N), as :func:`add_outer_sums` reads them.

    With a table these are doubled coordinates, d @ G, one (k, N) by
    (N, L^2) product over the rows; otherwise the (..., L, L) matrices, one
    complex GEMM over the rows.  ``out``, if given, is a C-contiguous array
    of their shape that takes them.
    """
    if is_table(kernel):
        return np.matmul(d, kernel, out=out)
    l, n = cols.shape
    sums = np.empty(d.shape[:-1] + (l, l), dtype=complex) if out is None else out
    np.matmul((cols * d[..., None, :]).reshape(-1, n), kernel, out=sums.reshape(-1, l))
    return sums


def add_outer_sums(sigma: np.ndarray, sums: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The Hermitian (..., L, L) ``sigma`` plus their :func:`outer_sums`, exactly Hermitian.

    With a table the doubled coordinates are read back into matrices and
    added; otherwise the matrices are added and the totals re-symmetrized.
    Either way the work is element by element, so each row's total is what
    adding its own product's sums alone gives, whatever the other rows hold.
    """
    if not is_table(kernel):
        total = sigma + sums
        return 0.5 * (total + np.conj(np.swapaxes(total, -1, -2)))
    l = isqrt(sums.shape[-1])
    _, src, scale = _coordinates(l)
    floats = np.take(sums, src, axis=-1)
    floats *= scale
    total = floats.view(complex).reshape(floats.shape[:-1] + (l, l))
    total += sigma
    return total
