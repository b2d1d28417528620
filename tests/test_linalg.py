"""Kernel tests against independent dense-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopdetect.errors import DimensionMismatch, NotPositiveDefinite
from coopdetect.linalg import (
    GRAM_BYTES,
    cholesky_factor,
    is_table,
    logdet_from_factor,
    outer_sum,
    pilot_gram,
    pilot_kernel,
    quadforms,
    solve_from_factor,
)
from coopdetect.objective import assemble_covariance, ml_gradient, update_covariance


def logdet(a):
    return logdet_from_factor(cholesky_factor(a))


def solve(a, v):
    return solve_from_factor(cholesky_factor(a), v)


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


class TestSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(solve(np.eye(4, dtype=complex), v), v)

    def test_scaled_identity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(solve(2 * np.eye(4, dtype=complex), v), v / 2)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_hpd(rng, 6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            np.testing.assert_allclose(solve(a, v), np.linalg.inv(a) @ v,
                                       rtol=1e-9, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = random_hpd(rng, 8)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        x = solve(a, v)
        assert np.linalg.norm(a @ x - v) <= 1e-10 * np.linalg.norm(v)


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
        assert quadforms(ainv, v[:, None])[0] == pytest.approx(alpha, rel=1e-10)
        assert quadforms(ainv @ b @ ainv, v[:, None])[0] == pytest.approx(beta, rel=1e-10)
        grad = ml_gradient(a, b, v[:, None])[0]
        assert grad == pytest.approx(downdated_gradient(a, 0.0, v, b), rel=1e-10)
        assert grad == pytest.approx(alpha - beta, rel=1e-10)

    def test_identity_unit_vector(self):
        v = np.zeros((4, 1), dtype=complex)
        v[1] = 1.0
        eye = np.eye(4, dtype=complex)
        assert quadforms(eye, v)[0] == pytest.approx(1.0)
        assert ml_gradient(eye, eye, v)[0] == pytest.approx(0.0)

    def test_matches_explicit_downdate_oracle(self):
        # gamma and v scaled so the downdate stays PD, as the caller guarantees.
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_hpd(rng, 6)
            b = random_psd(rng, 6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            gamma = 0.3
            v *= np.sqrt(0.5 / (gamma * np.real(v.conj() @ np.linalg.solve(a, v))))
            grad = ml_gradient(a, b, v[:, None])[0]
            assert grad == pytest.approx(downdated_gradient(a, gamma, v, b), rel=1e-9)

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(8)
        a = random_hpd(rng, 5)
        b = random_psd(rng, 5)
        cols = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        for x in (np.linalg.inv(a), b):
            for kernel in (None, pilot_gram(cols)):
                assert np.all(quadforms(x, cols, kernel) >= 0.0)

    def test_batch_matches_scalar(self):
        # Every column of every stacked matrix, on both paths, against the
        # downdated forms through the dense inverse.
        aps, l, n = 3, 6, 8
        a, b, cols, gammas, _ = gram_case(9, aps, l, n)
        for kernel in (None, pilot_gram(cols)):
            grads = ml_gradient(a, b, cols, kernel)
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
        grad = ml_gradient(updated, b, v[:, None])[0]
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
        got, want = quadforms(x, cols, pilot_gram(cols)), quadforms(x, cols)
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

    @given(cases)
    def test_each_row_is_its_one_matrix_call_bitwise(self, case):
        a, b, cols, _, delta = gram_case(*case)
        gram = pilot_gram(cols)
        x = gradient_matrix(a, b)
        forms = quadforms(x, cols, gram)
        sigma = update_covariance(a, cols, delta, gram)
        for i in range(len(a)):
            np.testing.assert_array_equal(quadforms(x[i], cols, gram), forms[i])
            np.testing.assert_array_equal(update_covariance(a[i], cols, delta[i], gram),
                                          sigma[i])

    @given(cases)
    def test_outer_sum_is_exactly_hermitian(self, case):
        a, _, cols, _, delta = gram_case(*case)
        gram = pilot_gram(cols)
        step = outer_sum(delta, gram)
        np.testing.assert_array_equal(step, np.conj(np.swapaxes(step, -1, -2)))
        want = (cols * delta[:, None, :]) @ cols.conj().T
        np.testing.assert_allclose(step, want, rtol=0, atol=1e-12 * np.abs(want).max())
        hermitian = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        sigma = update_covariance(hermitian, cols, delta, gram)
        np.testing.assert_array_equal(sigma, np.conj(np.swapaxes(sigma, -1, -2)))

    @pytest.mark.parametrize("l, n, built", [(24, 100, True), (24, 200, True),
                                             (64, 1000, False)])
    def test_table_only_within_the_byte_budget(self, l, n, built):
        cols = np.ones((l, n), dtype=complex)
        table, kernel = pilot_gram(cols), pilot_kernel(cols)
        assert (table is not None) == built == (8 * l * l * n <= GRAM_BYTES) == is_table(kernel)
        if built:
            assert table.shape == (l * l, n)
            np.testing.assert_array_equal(kernel, table)
        else:
            np.testing.assert_array_equal(kernel, cols.conj().T)
