"""Objective math: cost, gradient, shrink steps, prox, combiners."""

import math
import warnings

import numpy as np
import pytest

from coopdetect.linalg import forms
from coopdetect.objective import (
    Hyperparams,
    assemble_covariance,
    combiner_weights,
    gradient_matrix,
    ml_cost,
    row_norms,
    similarity_prox,
    sparsity_penalty,
    sparsity_step,
    stochastic_step_size,
    subgradient_aggregate_update,
    subgradient_local_update,
)


def random_instance(rng, num_devices=8, pilot_len=6, noise_power=0.8):
    pilots = (rng.normal(size=(pilot_len, num_devices))
              + 1j * rng.normal(size=(pilot_len, num_devices))) / np.sqrt(2)
    gamma = rng.uniform(0.0, 1.0, size=num_devices)
    y = rng.normal(size=(pilot_len, 3 * pilot_len)) + 1j * rng.normal(size=(pilot_len, 3 * pilot_len))
    sample_cov = y @ y.conj().T / (3 * pilot_len)
    return gamma, pilots, noise_power, sample_cov


def gradient_at(gamma, pilots, noise_power, sample_cov):
    """The likelihood's gradient at the model covariance of ``gamma``: the forms of D."""
    return forms(gradient_matrix(assemble_covariance(pilots, gamma, noise_power), sample_cov),
                 pilots)


def direct_cost(gamma, pilots, noise_power, sample_cov):
    """Independent dense evaluation: loop assembly, slogdet, explicit inverse."""
    l, n = pilots.shape
    sigma = noise_power * np.eye(l, dtype=complex)
    for k in range(n):
        sigma = sigma + gamma[k] * np.outer(pilots[:, k], pilots[:, k].conj())
    _, ld = np.linalg.slogdet(sigma)
    return float(ld + np.real(np.trace(np.linalg.inv(sigma) @ sample_cov)))


def prox_oracle(v, anchor, step, tol=1e-10):
    """Grid plus golden-section minimizer of |u-anchor| + (u-v)^2/(2 step) over u >= 0."""

    def obj(u):
        return abs(u - anchor) + (u - v) ** 2 / (2.0 * step)

    hi = 2.0 * max(abs(v), abs(anchor), step) + 1.0
    grid = np.linspace(0.0, hi, 4001)
    vals = np.array([obj(u) for u in grid])
    i = int(np.argmin(vals))
    lo, up = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > tol:
        if obj(c) <= obj(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


class TestMlCost:
    def test_zero_gamma_closed_form(self):
        rng = np.random.default_rng(0)
        gamma, pilots, sigma2, sample_cov = random_instance(rng)
        expected = (pilots.shape[0] * np.log(sigma2)
                    + np.real(np.trace(sample_cov)) / sigma2)
        assert ml_cost(np.zeros_like(gamma), pilots, sigma2, sample_cov) == \
            pytest.approx(expected, rel=1e-12)

    def test_matched_covariance(self):
        rng = np.random.default_rng(1)
        gamma, pilots, sigma2, _ = random_instance(rng)
        model = assemble_covariance(pilots, gamma, sigma2)
        got = ml_cost(gamma, pilots, sigma2, model)
        _, ld = np.linalg.slogdet(model)
        assert got == pytest.approx(ld + pilots.shape[0], rel=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            gamma, pilots, sigma2, sample_cov = random_instance(rng)
            assert ml_cost(gamma, pilots, sigma2, sample_cov) == \
                pytest.approx(direct_cost(gamma, pilots, sigma2, sample_cov), abs=1e-9)


class TestMlGradient:
    def test_stationary_at_matched_noise(self):
        # Scalar case: one pilot of unit power, sample covariance equal to noise.
        pilots = np.ones((1, 1), dtype=complex)
        grad = gradient_at(np.zeros(1), pilots, 1.0, np.eye(1, dtype=complex))
        assert grad[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(5):
            gamma, pilots, sigma2, sample_cov = random_instance(rng)
            grad = gradient_at(gamma, pilots, sigma2, sample_cov)
            for n in range(gamma.size):
                ep = gamma.copy()
                em = gamma.copy()
                ep[n] += h
                em[n] -= h
                fd = (ml_cost(ep, pilots, sigma2, sample_cov)
                      - ml_cost(em, pilots, sigma2, sample_cov)) / (2 * h)
                assert grad[n] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_sample_cov_scaling_only_hits_quadratic_term(self):
        rng = np.random.default_rng(4)
        gamma, pilots, sigma2, sample_cov = random_instance(rng)
        zero = np.zeros_like(gamma)
        g1 = gradient_at(zero, pilots, sigma2, sample_cov)
        g2 = gradient_at(zero, pilots, sigma2, 2.0 * sample_cov)
        # At gamma = 0, grad = q1 - q2 with q1 = ||s_n||^2 / sigma^2 fixed
        # and q2 linear in the sample covariance, so g2 = 2 g1 - q1.
        q1 = np.sum(np.abs(pilots) ** 2, axis=0) / sigma2
        np.testing.assert_allclose(g2, 2.0 * g1 - q1, rtol=1e-10)


class TestSparsityPenalty:
    def test_zero_panel(self):
        assert sparsity_penalty(np.zeros((5, 3)), theta=2.0) == 0.0

    def test_single_row_closed_form(self):
        panel = np.zeros((4, 1))
        panel[2, 0] = 1.0
        assert sparsity_penalty(panel, theta=1.0) == pytest.approx(1.0 - np.log(2.0))

    def test_matches_definition(self):
        rng = np.random.default_rng(5)
        panel = rng.uniform(0, 2, size=(7, 3))
        theta = 1.0 / 0.039
        expected = sum(
            np.linalg.norm(panel[i]) - np.log(1 + theta * np.linalg.norm(panel[i])) / theta
            for i in range(7)
        )
        assert sparsity_penalty(panel, theta) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            panel = rng.uniform(0, 1, size=(6, 2)) * (rng.random((6, 2)) > 0.5)
            val = sparsity_penalty(panel, theta=3.0)
            assert val >= 0.0
            assert (val == 0.0) == bool(np.all(row_norms(panel) == 0.0))


class TestSparsityStep:
    def test_passthrough_when_disabled(self):
        gamma = np.array([0.2, 0.7, 0.0])
        panel = gamma[:, None]
        z = sparsity_step(gamma, np.zeros(3), np.zeros(3), panel,
                          beta=0.0, tau=0.5, eta=0.1)
        np.testing.assert_array_equal(z, gamma)

    def test_unit_row_shrink(self):
        # One coordinate with sigma = 1, row norm 1, eta*beta = 0.1 -> 0.9.
        gamma = np.array([1.0])
        panel = np.array([[1.0]])
        z = sparsity_step(gamma, np.zeros(1), np.zeros(1), panel,
                          beta=1.0, tau=0.0, eta=0.1)
        assert z[0] == pytest.approx(0.9)

    def test_matches_definition(self):
        rng = np.random.default_rng(7)
        n = 9
        gamma = rng.uniform(0, 1, n)
        grad = rng.normal(size=n)
        x_agg = rng.normal(size=n)
        panel = np.column_stack([rng.uniform(0, 1, n), gamma])
        beta, tau, eta = 0.038, 0.0075, 0.003
        z = sparsity_step(gamma, grad, x_agg, panel, beta, tau, eta)
        sig = gamma - eta * grad - tau * eta * x_agg
        expected = sig - eta * beta * sig / np.linalg.norm(panel, axis=1)
        np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_zero_row_guard(self):
        gamma = np.zeros(2)
        panel = np.zeros((2, 2))
        grad = np.array([-1.0, 1.0])
        z = sparsity_step(gamma, grad, np.zeros(2), panel, beta=0.5, tau=0.0, eta=0.1)
        # Rows are zero: no shrink term, pure gradient step.
        np.testing.assert_allclose(z, np.array([0.1, -0.1]))


class TestSimilarityProx:
    def test_anchor_equal_is_identity(self):
        out, clamped = similarity_prox(np.array([0.5]), np.zeros(1),
                                       np.array([0.5]), 0.1)
        assert out[0] == pytest.approx(0.5)
        assert clamped == 0

    def test_shrinks_from_above(self):
        out, _ = similarity_prox(np.array([1.0]), np.zeros(1), np.array([0.0]), 0.1)
        assert out[0] == pytest.approx(0.9)

    def test_zero_input_stays_zero(self):
        out, _ = similarity_prox(np.array([0.0]), np.zeros(1), np.array([1.0]), 0.1)
        assert out[0] == 0.0

    def test_moves_toward_larger_anchor(self):
        out, _ = similarity_prox(np.array([0.05]), np.zeros(1), np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(0.15)
        # Matches the constrained numerical minimizer away from the anchor band.
        assert out[0] == pytest.approx(prox_oracle(0.05, 1.0, 0.1), abs=1e-6)

    def test_matches_numerical_minimizer_outside_band(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            step = 10.0 ** rng.uniform(-5, -1)
            anchor = rng.uniform(0.0, 1.0)
            v = rng.uniform(0.0, 1.5)
            if abs(v - anchor) < step:
                v = anchor + np.sign(v - anchor or 1.0) * (step + rng.uniform(0.1, 1.0))
            out, _ = similarity_prox(np.array([v]), np.zeros(1), np.array([anchor]), step)
            assert out[0] == pytest.approx(prox_oracle(v, anchor, step), abs=1e-6)

    def test_never_negative_and_counts(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=50)
        anchors = np.abs(rng.normal(size=50))
        out, clamped = similarity_prox(v, np.zeros(50), anchors, 0.05)
        assert np.all(out >= 0.0)
        assert clamped == 0  # the min() construction already clamps


class TestSubgradients:
    def test_fixed_point_leaves_x(self):
        x = np.array([0.3, -0.1])
        z = np.array([1.0, 2.0])
        out = subgradient_local_update(x, z, z, 0.1)
        np.testing.assert_array_equal(out, x)

    def test_direct_value(self):
        out = subgradient_local_update(np.zeros(1), np.array([0.3]), np.array([0.1]), 0.1)
        assert out[0] == pytest.approx(2.0)

    def test_interior_solution_gives_valid_subgradient(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            step = 10.0 ** rng.uniform(-4, -1)
            anchor = rng.uniform(0, 1)
            v = anchor + (step + rng.uniform(0.1, 1.0)) * rng.choice([-1.0, 1.0])
            if v < 0:
                continue
            out, _ = similarity_prox(np.array([v]), np.zeros(1), np.array([anchor]), step)
            if out[0] <= 0.0:
                continue
            x = subgradient_local_update(np.zeros(1), np.array([v]), out, step)
            assert -1.0 - 1e-12 <= x[0] <= 1.0 + 1e-12

    def test_aggregate_no_change_cases(self):
        x_agg = np.array([0.5])
        same = np.array([1.0])
        np.testing.assert_array_equal(
            subgradient_aggregate_update(x_agg, 0.7, same, same), x_agg)
        np.testing.assert_array_equal(
            subgradient_aggregate_update(x_agg, 0.0, np.array([2.0]), same), x_agg)


def with_self(own, nbrs, rho):
    """One AP's weights over [neighbors..., self]: the self weight is what the k leave."""
    w = combiner_weights(own, nbrs, len(nbrs), rho=rho)
    return np.append(w, 1.0 - w.sum())


class TestCombiners:
    def test_equal_estimates_split_evenly(self):
        own = np.array([1.0, 2.0])
        w = with_self(own, np.stack([own, own, own]), rho=500.0)
        np.testing.assert_allclose(w[:3], 1.0 / 3.0)
        assert w[3] == pytest.approx(0.0, abs=1e-15)

    def test_distant_neighbor_gets_nothing(self):
        own = np.zeros(3)
        far = np.full((1, 3), 1e6)
        w = with_self(own, far, rho=500.0)
        assert w[0] == pytest.approx(0.0, abs=1e-300)
        assert w[1] == pytest.approx(1.0)

    def test_mixed_distances(self):
        own = np.zeros(2)
        nbrs = np.stack([own, own + 10.0])
        w = with_self(own, nbrs, rho=500.0)
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(0.0, abs=1e-300)
        assert w[2] == pytest.approx(0.5)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_probability_vector_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(1, 6)
            own = rng.uniform(0, 1, 4)
            nbrs = rng.uniform(0, 1, (k, 4))
            w = with_self(own, nbrs, rho=rng.uniform(1, 1000))
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0.0)
            assert np.all(w[:-1] <= 1.0 / k + 1e-12)

    def test_no_neighbors_all_self(self):
        # A round in which no AP picks a neighbor makes an empty call.
        w = combiner_weights(np.ones((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int), 500.0)
        assert w.shape == (0,)
        np.testing.assert_array_equal(np.append(w, 1.0 - w.sum()), np.array([1.0]))

    def test_desk_scale_distance_gives_exactly_zero_without_warning(self):
        # At rho=500 a neighbour about 100 gain units away overflows exp.
        own = np.zeros(4)
        nbrs = np.stack([own + 50.0, own + 60.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = with_self(own, nbrs, rho=500.0)
        np.testing.assert_array_equal(w, [0.0, 0.0, 1.0])

    def test_sigmoid_matches_scalar_formula(self):
        # One neighbour at distance -x with rho=1 gets 2 * sigmoid(x).
        xs = np.linspace(-700.0, 0.0, 1401)
        for x in xs:
            w = combiner_weights(np.zeros(1), np.array([[-x]]), 1, rho=1.0)
            assert w[0] / 2.0 == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-15, abs=0)


class TestNormsAreNumpys:
    """The norms objective computes itself are ``np.linalg.norm``'s, bit for bit."""

    def test_row_norms(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            c, k, n = rng.integers(1, 7), rng.integers(1, 8), rng.integers(1, 60)
            # Stored (c, K, N) as the round stores panels, read (c, N, K).
            panel = rng.normal(size=(c, k, n)) * rng.exponential(size=(c, 1, n))
            panel[:, :, rng.random(n) < 0.3] = 0.0                    # zero rows
            panel[:, rng.integers(1, k + 1):] = 0.0                   # padding
            for view in (panel.swapaxes(1, 2), panel[0].T, np.ascontiguousarray(panel[0].T)):
                assert row_norms(view).tobytes() == np.linalg.norm(view, axis=-1).tobytes()

    def test_combiner_distances(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            b, n = rng.integers(1, 6), rng.integers(1, 60)
            own = rng.uniform(0, 1, (b, n)) * (rng.random((b, n)) < 0.7)
            receivers = np.sort(rng.integers(0, b, rng.integers(1, 12)))
            nbrs = own[receivers] + rng.normal(scale=0.01, size=(len(receivers), n))
            same = rng.random(len(receivers)) < 0.3
            nbrs[same] = own[receivers[same]]                         # distance 0
            rho = 500.0
            k = np.bincount(receivers, minlength=b)
            dists = np.linalg.norm(nbrs - own[receivers], axis=1)
            with np.errstate(over="ignore"):
                want = (2.0 / k[receivers]) * (1.0 / (1.0 + np.exp(rho * dists)))
            got = combiner_weights(own[receivers], nbrs, k[receivers], rho)
            assert got.tobytes() == want.tobytes()


class TestStepSize:
    def test_matched_prob(self):
        assert stochastic_step_size(0.25, 0.003, 0.25) == pytest.approx(0.003)

    def test_zero_weight_degenerates(self):
        assert stochastic_step_size(0.0, 0.003, 0.25) == 0.0

    def test_expectation_recovers_eta(self):
        rng = np.random.default_rng(12)
        own = rng.uniform(0, 1, 5)
        nbrs = rng.uniform(0, 1, (3, 5))
        w = with_self(own, nbrs, rho=20.0)
        probs = np.full(4, 0.25)
        expected = sum(p * stochastic_step_size(c, 0.003, p) for c, p in zip(w, probs))
        assert expected == pytest.approx(0.003, rel=1e-12)


class TestGradientDescentSanity:
    def test_cost_non_increasing_on_matched_instance(self):
        # Infinite-sample regime: sample covariance equals the model one.
        rng = np.random.default_rng(13)
        pilot_len, n = 6, 8
        pilots = (rng.normal(size=(pilot_len, n))
                  + 1j * rng.normal(size=(pilot_len, n))) / np.sqrt(2)
        truth = np.zeros(n)
        truth[[1, 5]] = 0.5
        sigma2 = 1.0
        sample_cov = assemble_covariance(pilots, truth, sigma2)
        gamma = np.zeros(n)
        costs = [ml_cost(gamma, pilots, sigma2, sample_cov)]
        for _ in range(60):
            gamma = np.maximum(0.0, gamma - 0.003 * gradient_at(gamma, pilots, sigma2, sample_cov))
            costs.append(ml_cost(gamma, pilots, sigma2, sample_cov))
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-6)
        assert costs[-1] < costs[0]
