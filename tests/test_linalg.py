"""Kernel tests against independent dense-algebra oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopdetect import linalg
from coopdetect.errors import DimensionMismatch, NotPositiveDefinite
from coopdetect.linalg import (
    GRAM_BYTES,
    add_outer_sums,
    cholesky_factor,
    forms,
    inverse_from_factor,
    is_table,
    logdet_from_factor,
    operands,
    outer_sums,
    pilot_gram,
    pilot_kernel,
)
from coopdetect.objective import assemble_covariance
from coopdetect.objective import gradient_matrix as package_gradient_matrix


def logdet(a):
    return logdet_from_factor(cholesky_factor(a))


def inverse(a):
    return inverse_from_factor(cholesky_factor(a))


def dense_quadforms(a, gamma, v, b):
    """Oracle: q1, q2 through the explicit inverse of the formed downdate."""
    inv = np.linalg.inv(a - gamma * np.outer(v, v.conj()))
    return np.real(v.conj() @ inv @ v), np.real(v.conj() @ inv @ b @ inv @ v)


def downdated_gradient(a, gamma, v, b):
    """Oracle: the coordinate-descent detector's gradient from the downdated forms."""
    q1, q2 = dense_quadforms(a, gamma, v, b)
    return q1 / (1.0 + gamma * q1) - q2 / (1.0 + gamma * q1) ** 2


def gradient_matrix(a, b):
    """A^-1 - A^-1 B A^-1, whose quadratic forms are the gradient."""
    inv = np.linalg.inv(a)
    return inv - inv @ b @ inv


def gradient_forms(a, b, cols, kernel=None):
    """The package's gradient at covariances ``a``: the forms of its D through ``kernel``."""
    return forms(operands(package_gradient_matrix(a, b), kernel), cols, kernel)


def kernel_of(cols, table):
    """The columns' pilot kernel: their table, or the complex path's unless ``table``."""
    with mock.patch.object(linalg, "GRAM_BYTES", GRAM_BYTES if table else 0):
        return pilot_kernel(cols)


def random_hpd(rng, dim, extra=3):
    x = rng.normal(size=(dim, dim + extra)) + 1j * rng.normal(size=(dim, dim + extra))
    a = x @ x.conj().T / (dim + extra)
    return a + 0.1 * np.eye(dim)


def random_psd(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x @ x.conj().T / dim


class TestLogdet:
    def test_identity(self):
        assert logdet(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_identity(self):
        assert logdet(2.0 * np.eye(3, dtype=complex)) == pytest.approx(3 * np.log(2.0))

    def test_matches_eigenvalue_product_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_hpd(rng, 5)
            oracle = float(np.sum(np.log(np.linalg.eigvalsh(a))))
            assert abs(logdet(a) - oracle) < 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            logdet(np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_tiny_pivot(self):
        a = np.diag([1.0, 1e-16]).astype(complex)
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(a)

    def test_pure_function(self):
        rng = np.random.default_rng(5)
        a = random_hpd(rng, 6)
        assert logdet(a) == logdet(a.copy())

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(14)
        stack = np.stack([random_hpd(rng, 5) for _ in range(4)])
        np.testing.assert_allclose(logdet(stack), [logdet(a) for a in stack], rtol=1e-12)

    def test_stack_names_the_bad_matrix(self):
        stack = np.stack([np.eye(3, dtype=complex), np.diag([1.0, 1e-16, 1.0]).astype(complex)])
        with pytest.raises(NotPositiveDefinite, match=r"at \(1,\)"):
            cholesky_factor(stack)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky_factor(np.ones((3, 4), dtype=complex))

    # NaN fails every comparison and does not stop the factorization, and a
    # NaN above the diagonal is not even read by it.
    @pytest.mark.parametrize("at, value", [((1, 1), np.nan), ((2, 0), np.nan), ((0, 2), np.nan),
                                           ((2, 0), np.inf), ((1, 1), np.inf)],
                             ids=["nan_diagonal", "nan_lower", "nan_upper", "inf_lower",
                                  "inf_diagonal"])
    def test_rejects_non_finite(self, at, value):
        stack = np.stack([np.eye(3, dtype=complex)] * 2)
        stack[(1, *at)] = value
        with pytest.raises(NotPositiveDefinite, match=r"at \(1,\): non-finite entry"):
            cholesky_factor(stack)


class TestSolve:
    """Solving A X = I from the factor: the inverse ``inverse_from_factor`` forms."""

    def test_identity(self):
        for dim in (1, 2, 4, 5):
            np.testing.assert_array_equal(inverse(np.eye(dim, dtype=complex)), np.eye(dim))

    def test_scaled_identity(self):
        np.testing.assert_allclose(inverse(2 * np.eye(4, dtype=complex)), np.eye(4) / 2,
                                   rtol=1e-15)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for dim in (1, 2, 3, 6, 7):
            stack = np.stack([random_hpd(rng, dim) for _ in range(3)])
            np.testing.assert_allclose(inverse(stack), np.linalg.inv(stack),
                                       rtol=1e-9, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for dim in (1, 8, 9):
            a = random_hpd(rng, dim)
            assert np.linalg.norm(a @ inverse(a) - np.eye(dim)) <= 1e-10 * np.sqrt(dim)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 6, 7, 13, 24, 48, 64]),
           st.integers(1, 30))
    def test_each_matrix_of_a_stack_is_its_own(self, seed, dim, count):
        # The recursion joins halves of different matrices into one LAPACK
        # call; each matrix must still get what it gets alone, bit for bit.
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hpd(rng, dim) for _ in range(count)])
        got = inverse(stack)
        for a, inv in zip(stack, got):
            want = np.linalg.inv(a)
            assert np.abs(inv - want).max() <= 1e-10 * np.abs(want).max()
            assert inverse(a).tobytes() == inv.tobytes()

    @pytest.mark.parametrize("dim", [24, 48, 64])
    def test_one_lu_call_per_stack_when_every_split_is_even(self, dim):
        low = cholesky_factor(np.stack([np.eye(dim, dtype=complex)] * 3))
        with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as lu:
            inverse_from_factor(low)
        assert lu.call_count == 1


hpd_stacks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                       st.sampled_from([1, 2, 3, 7, 24, 64]))


class TestGradientMatrix:
    @given(hpd_stacks)
    def test_matches_the_explicit_inverse(self, case):
        # D through the factor's inverse against D through np.linalg.inv.
        seed, count, dim = case
        rng = np.random.default_rng(seed)
        a = np.stack([random_hpd(rng, dim) for _ in range(count)])
        b = np.stack([random_psd(rng, dim) for _ in range(count)])
        want = gradient_matrix(a, b)
        np.testing.assert_allclose(package_gradient_matrix(a, b), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 3),
           st.sampled_from(["hermitian", "negative", "tiny", "nan", "inf", "rank_deficient"]))
    def test_rejects_what_the_factorization_rejects(self, seed, dim, where, kind):
        # The same matrices raise the same error, and the broken ones do raise.
        rng = np.random.default_rng(seed)
        a = random_hpd(rng, dim)
        k = where % dim
        if kind == "hermitian":  # indefinite or not, as the draw falls
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = x + x.conj().T
        elif kind == "negative":
            a[k, k] = -abs(a[k, k])
        elif kind == "tiny":
            a = np.diag(np.r_[np.ones(dim - 1), 1e-17]).astype(complex)
        elif kind == "rank_deficient":
            v = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
            a = v @ v.conj().T
        else:
            a[k, (k + where) % dim] = np.nan if kind == "nan" else np.inf
        stack = np.stack([np.eye(dim, dtype=complex), a])
        b = np.stack([np.eye(dim, dtype=complex)] * 2)
        rejected = []
        for call in (lambda: cholesky_factor(stack), lambda: package_gradient_matrix(stack, b)):
            try:
                call()
            except NotPositiveDefinite as err:
                rejected.append(str(err))
            else:
                rejected.append(None)
        assert rejected[0] == rejected[1]
        if kind in ("negative", "nan", "inf") or kind == "tiny" and dim > 1:
            assert rejected[0] is not None


class TestRank1Update:
    def test_sequence_matches_direct_assembly(self):
        # Stacked assembly equals noise plus one rank-one update per device.
        rng = np.random.default_rng(4)
        l, n = 6, 9
        pilots = (rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n))) / np.sqrt(2)
        gammas = rng.uniform(0.1, 2.0, size=(3, n))
        sigma2 = 0.5
        assembled = assemble_covariance(pilots, gammas, sigma2)
        for g, got in zip(gammas, assembled):
            direct = sigma2 * np.eye(l, dtype=complex)
            for k in range(n):
                direct = direct + g[k] * np.outer(pilots[:, k], pilots[:, k].conj())
            np.testing.assert_allclose(got, direct, atol=1e-10)


class TestDowndateQuadforms:
    """The gradient against the downdated forms of the coordinate-descent detector.

    q1/(1 + gamma q1) - q2/(1 + gamma q1)^2, with q1 and q2 taken through
    the explicit inverse of the formed downdate, is alpha - beta for every
    admissible gamma: the downdate cancels.
    """

    def test_gamma_zero_reduces_to_plain_quadforms(self):
        rng = np.random.default_rng(6)
        a = random_hpd(rng, 5)
        b = random_psd(rng, 5)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        ainv = np.linalg.inv(a)
        alpha = np.real(v.conj() @ ainv @ v)
        beta = np.real(v.conj() @ ainv @ b @ ainv @ v)
        assert forms(ainv, v[:, None])[0] == pytest.approx(alpha, rel=1e-10)
        assert forms(ainv @ b @ ainv, v[:, None])[0] == pytest.approx(beta, rel=1e-10)
        grad = gradient_forms(a, b, v[:, None])[0]
        assert grad == pytest.approx(downdated_gradient(a, 0.0, v, b), rel=1e-10)
        assert grad == pytest.approx(alpha - beta, rel=1e-10)

    def test_identity_unit_vector(self):
        v = np.zeros((4, 1), dtype=complex)
        v[1] = 1.0
        eye = np.eye(4, dtype=complex)
        assert forms(eye, v)[0] == pytest.approx(1.0)
        assert gradient_forms(eye, eye, v)[0] == pytest.approx(0.0)

    def test_matches_explicit_downdate_oracle(self):
        # gamma and v scaled so the downdate stays PD, as the caller guarantees.
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_hpd(rng, 6)
            b = random_psd(rng, 6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            gamma = 0.3
            v *= np.sqrt(0.5 / (gamma * np.real(v.conj() @ np.linalg.solve(a, v))))
            grad = gradient_forms(a, b, v[:, None])[0]
            assert grad == pytest.approx(downdated_gradient(a, gamma, v, b), rel=1e-9)

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(8)
        a = random_hpd(rng, 5)
        b = random_psd(rng, 5)
        cols = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        for x in (np.linalg.inv(a), b):
            for kernel in (None, pilot_gram(cols)):
                assert np.all(forms(operands(x, kernel), cols, kernel) >= 0.0)

    def test_batch_matches_scalar(self):
        # Every column of every stacked matrix, on both paths, against the
        # downdated forms through the dense inverse.
        aps, l, n = 3, 6, 8
        a, b, cols, gammas, _ = gram_case(9, aps, l, n)
        for kernel in (None, pilot_gram(cols)):
            grads = gradient_forms(a, b, cols, kernel)
            assert grads.shape == (aps, n)
            for i in range(aps):
                for k in range(n):
                    want = downdated_gradient(a[i], gammas[i, k], cols[:, k], b[i])
                    assert grads[i, k] == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestIdentities:
    def test_sherman_morrison_vector_identity(self):
        # Implicit downdated solve equals the explicit one.
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_hpd(rng, 6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            gamma = float(rng.uniform(0.0, 0.5))
            u = np.linalg.solve(a, v)
            alpha = np.real(v.conj() @ u)
            implicit = u / (1 - gamma * alpha)
            explicit = np.linalg.solve(a - gamma * np.outer(v, v.conj()), v)
            np.testing.assert_allclose(implicit, explicit, rtol=1e-9, atol=1e-12)

    def test_logdet_rank1_identity(self):
        # ln det(A + g v v^H) - ln det(A) == ln(1 + g v^H A^-1 v)
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_hpd(rng, 6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            gamma = float(rng.uniform(0.0, 1.0))
            lhs = logdet(a + gamma * np.outer(v, v.conj())) - logdet(a)
            rhs = np.log(1 + gamma * np.real(v.conj() @ np.linalg.solve(a, v)))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_update_then_downdate_roundtrip(self):
        rng = np.random.default_rng(13)
        a = random_hpd(rng, 6)
        b = random_psd(rng, 6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        gamma = 0.4
        # The gradient at A + gamma v v^H is the downdated expression of
        # the plain forms at A.
        updated = a + gamma * np.outer(v, v.conj())
        ainv = np.linalg.inv(a)
        q1 = np.real(v.conj() @ ainv @ v)
        q2 = np.real(v.conj() @ ainv @ b @ ainv @ v)
        grad = gradient_forms(updated, b, v[:, None])[0]
        assert grad == pytest.approx(q1 / (1 + gamma * q1) - q2 / (1 + gamma * q1) ** 2,
                                     rel=1e-9)


def gram_case(seed, aps, l, n):
    """Stacked HPD covariances, PSD matrices, admissible coefficients and pilots."""
    rng = np.random.default_rng(seed)
    a = np.stack([random_hpd(rng, l) for _ in range(aps)])
    b = np.stack([random_psd(rng, l) for _ in range(aps)])
    cols = rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n))
    quad = np.real(np.einsum("ln,clm,mn->cn", cols.conj(), np.linalg.inv(a), cols))
    gammas = rng.uniform(0.0, 0.5, size=(aps, n)) / quad     # 1 - gamma * quad >= 0.5
    return a, b, cols, gammas, rng.normal(size=(aps, n))


cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 9),
                  st.integers(1, 12))


class TestPilotGram:
    @given(cases)
    def test_matches_complex_path_and_dense_oracle(self, case):
        a, b, cols, _, _ = gram_case(*case)
        x = gradient_matrix(a, b)
        gram = pilot_gram(cols)
        got, want = forms(operands(x, gram), cols, gram), forms(x, cols)
        scale = 0.0
        for i in range(len(a)):
            inv = np.linalg.inv(a[i])
            for k in range(cols.shape[1]):
                v = cols[:, k]
                alpha = np.real(v.conj() @ inv @ v)
                beta = np.real(v.conj() @ inv @ b[i] @ inv @ v)
                scale = max(scale, alpha + beta)
                for path in (got, want):
                    assert path[i, k] == pytest.approx(alpha - beta, rel=1e-12,
                                                       abs=1e-12 * (alpha + beta))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @given(cases, st.booleans())
    def test_each_row_ignores_the_other_rows_bitwise(self, case, table):
        # At a fixed stack size, new inputs in the other rows leave a row's bits alone.
        a, b, cols, _, delta = gram_case(*case)
        other_a, other_b, _, _, other_delta = gram_case(case[0] + 1, *case[1:])
        kernel = kernel_of(cols, table)
        got = forms(operands(gradient_matrix(a, b), kernel), cols, kernel)
        sigma = add_outer_sums(a, outer_sums(delta, cols, kernel), kernel)
        for i in range(len(a)):
            mixed_a, mixed_b, mixed_delta = other_a.copy(), other_b.copy(), other_delta.copy()
            mixed_a[i], mixed_b[i], mixed_delta[i] = a[i], b[i], delta[i]
            np.testing.assert_array_equal(
                forms(operands(gradient_matrix(mixed_a, mixed_b), kernel), cols, kernel)[i],
                got[i])
            np.testing.assert_array_equal(
                add_outer_sums(mixed_a, outer_sums(mixed_delta, cols, kernel), kernel)[i],
                sigma[i])

    @given(cases, st.booleans())
    def test_each_row_matches_its_one_matrix_call(self, case, table):
        a, b, cols, _, delta = gram_case(*case)
        kernel = kernel_of(cols, table)
        x = gradient_matrix(a, b)
        got = forms(operands(x, kernel), cols, kernel)
        sigma = add_outer_sums(a, outer_sums(delta, cols, kernel), kernel)
        for i in range(len(a)):
            # The forms are differences alpha - beta, so they are compared
            # against the size of the row's terms.
            scale = np.abs(x[i]).sum() * np.abs(cols).max() ** 2
            np.testing.assert_allclose(forms(operands(x[i], kernel), cols, kernel), got[i],
                                       rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(
                add_outer_sums(a[i], outer_sums(delta[i], cols, kernel), kernel), sigma[i],
                rtol=1e-12, atol=1e-12 * np.abs(sigma[i]).max())

    @given(cases, st.booleans())
    def test_outer_sum_is_exactly_hermitian(self, case, table):
        a, _, cols, _, delta = gram_case(*case)
        kernel = kernel_of(cols, table)
        step = add_outer_sums(np.zeros_like(a), outer_sums(delta, cols, kernel), kernel)
        np.testing.assert_array_equal(step, np.conj(np.swapaxes(step, -1, -2)))
        want = (cols * delta[:, None, :]) @ cols.conj().T
        np.testing.assert_allclose(step, want, rtol=0, atol=1e-12 * np.abs(want).max())
        hermitian = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        sigma = add_outer_sums(hermitian, outer_sums(delta, cols, kernel), kernel)
        np.testing.assert_array_equal(sigma, np.conj(np.swapaxes(sigma, -1, -2)))

    @given(cases, st.booleans(), st.data())
    def test_one_readback_is_each_products_update_bitwise(self, case, table, data):
        # The products' outer sums, written into one buffer and added at
        # once, equal each product's own sums added, bit for bit.
        a, _, cols, _, delta = gram_case(*case)
        kernel = kernel_of(cols, table)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(a) - 1))) if len(a) > 1 else set())
        products = list(zip([0, *cuts], [*cuts, len(a)]))
        buf = np.empty_like(outer_sums(delta, cols, kernel))
        for k0, k1 in products:
            outer_sums(delta[k0:k1], cols, kernel, out=buf[k0:k1])
        sigma = a.copy()
        rows = np.arange(len(a))
        sigma[rows] = add_outer_sums(sigma[rows], buf, kernel)
        for k0, k1 in products:
            own = add_outer_sums(a[k0:k1], outer_sums(delta[k0:k1], cols, kernel), kernel)
            np.testing.assert_array_equal(sigma[k0:k1], own)

    @pytest.mark.parametrize("l, n, built", [(24, 100, True), (24, 200, True),
                                             (64, 1000, False)])
    def test_table_only_within_the_byte_budget(self, l, n, built):
        cols = np.ones((l, n), dtype=complex)
        table, kernel = pilot_gram(cols), pilot_kernel(cols)
        assert (table is not None) == built == (8 * l * l * n <= GRAM_BYTES) == is_table(kernel)
        if built:
            # Row-major: one row of doubled coordinates per device.
            assert table.shape == (n, l * l) and table.flags.c_contiguous
            np.testing.assert_array_equal(kernel, table)
        else:
            np.testing.assert_array_equal(kernel, cols.conj().T)
