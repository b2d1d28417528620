"""Local cost, gradients, proximal steps and combiners for one AP.

The regularized local cost at an AP is

    F(gamma) = ml_cost(gamma) + beta * sparsity_penalty + tau * similarity,

where ``gamma`` is the device state vector (activity indicator times
large-scale gain, one entry per device).  The solver minimizes F with a
forward gradient step on the likelihood term followed by two closed-form
backward steps: a row-norm shrink over the neighbor panel (joint sparsity)
and an elementwise shrink toward one randomly selected neighbor's estimate
(similarity), with running subgradient estimators tying the two together.

All functions are pure and take one AP's arrays or a stack of them along
a leading AP axis (giving one result per AP); the round lives in ``solver``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    cholesky_factor,
    is_table,
    logdet_from_factor,
    outer_sum,
    quadforms,
    solve_from_factor,
)
from .scenario import is_finite

ROWNORM_FLOOR = 1e-12  # below this a panel row counts as zero (no shrink term)


@dataclass
class Hyperparams:
    """Solver hyperparameters with their reference defaults."""

    beta: float = 0.038          # sparsity weight
    tau: float = 0.0075          # similarity weight
    theta: float = 1.0 / 0.039   # log-penalty curvature
    eta: float = 0.003           # gradient step size
    rho: float = 500.0           # combiner sharpness
    num_iters: int = 40          # synchronized rounds

    def problems(self) -> list[str]:
        """One message per value out of range; empty when all are usable.

        The step size and the penalty's curvature must be positive, the
        weights nonnegative (rho >= 0 keeps :func:`combiner_weights` a
        probability vector), all of them finite, and a solve needs a round.
        """
        problems = []
        for name in ("eta", "theta"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0):
                problems.append(f"{name} must be positive and finite, got {value}")
        for name in ("beta", "tau", "rho"):
            value = getattr(self, name)
            if not (is_finite(value) and value >= 0):
                problems.append(f"{name} must be nonnegative and finite, got {value}")
        if self.num_iters < 1:
            problems.append(f"num_iters must be >= 1, got {self.num_iters}")
        return problems


def assemble_covariance(pilots: np.ndarray, gamma: np.ndarray, noise_power: float) -> np.ndarray:
    """Model covariance ``pilots @ diag(gamma) @ pilots^H + noise_power * I``."""
    l = pilots.shape[0]
    return (pilots * np.asarray(gamma)[..., None, :]) @ pilots.conj().T + noise_power * np.eye(l)


def update_covariance(sigma, pilots, delta, kernel) -> np.ndarray:
    """``sigma + pilots @ diag(delta) @ pilots^H`` for a covariance or a stack of them.

    ``kernel`` is the pilots' ``linalg.pilot_kernel``.  Where it is their
    table, the increments are one real GEMM over the rows of ``delta`` and
    exactly Hermitian, so the sums stay Hermitian.  Otherwise it is the
    pilots' conjugate transpose: the increment is one complex GEMM over the
    stack and the sum is re-symmetrized.
    """
    if is_table(kernel):
        total = outer_sum(delta, kernel)
        total += sigma
        return total
    n = pilots.shape[1]
    total = sigma + ((pilots * delta[..., None, :]).reshape(-1, n) @ kernel).reshape(sigma.shape)
    return 0.5 * (total + np.conj(np.swapaxes(total, -1, -2)))


def ml_cost(gamma, pilots, noise_power, sample_cov) -> float:
    """Negative log-likelihood ``ln det(Sigma) + tr(Sigma^-1 SampleCov)``."""
    sigma = assemble_covariance(pilots, np.asarray(gamma, dtype=float), noise_power)
    return ml_cost_given_factor(cholesky_factor(sigma), sample_cov)


def ml_cost_given_factor(low, sample_cov):
    """Same as :func:`ml_cost` given the Cholesky factor of the model covariance."""
    fit = np.real(np.trace(solve_from_factor(low, sample_cov), axis1=-2, axis2=-1))
    return logdet_from_factor(low) + fit


def gradient_matrix(sigma, sample_cov) -> np.ndarray:
    """D = Sigma^-1 - Sigma^-1 S Sigma^-1, whose quadratic forms are :func:`ml_gradient`.

    One inverse of the covariance and two (L, L) products, after a Cholesky
    factorization has checked that the covariance is positive definite.
    Each matrix of a stack is its own: its bits do not depend on the stack.
    """
    cholesky_factor(sigma)  # raises NotPositiveDefinite
    inv = np.linalg.inv(sigma)
    return inv - inv @ sample_cov @ inv


def ml_gradient(sigma, sample_cov, pilots, kernel=None) -> np.ndarray:
    """Coordinate gradient of :func:`ml_cost` at the model covariance ``sigma``.

    Entry n is  alpha_n - beta_n = Re a_n^H D a_n  with alpha_n = a_n^H Sigma^-1 a_n,
    beta_n = a_n^H Sigma^-1 S Sigma^-1 a_n and D from :func:`gradient_matrix`.
    The downdate cancels: coordinate descent's q1/(1 + gamma_n q1) - q2/(1 + gamma_n q1)^2,
    with q1, q2 the forms without device n, is the same alpha_n - beta_n.
    ``kernel`` is the pilots' ``linalg.pilot_kernel``.
    """
    return quadforms(gradient_matrix(sigma, sample_cov), pilots, kernel)


def row_norms(panel: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (N, |neighbors|+1) estimate panel.

    Stacked panels may be padded with zero columns to a common width.
    """
    return np.linalg.norm(np.atleast_2d(panel.T).T, axis=-1)


def sparsity_penalty(panel: np.ndarray, theta: float):
    """Log-regularized row-norm penalty; zero iff every row is zero."""
    r = row_norms(panel)
    return np.sum(r - np.log1p(theta * r) / theta, axis=-1)


def sparsity_step(gamma, grad, x_agg, panel, beta, tau, eta) -> np.ndarray:
    """Forward step plus the closed-form row-norm shrink.

    With  s = gamma - eta * grad - tau * eta * x_agg  the result is
    ``s_n - eta * beta * s_n / ||panel row n||`` per coordinate; rows with
    norm below ``ROWNORM_FLOOR`` contribute no shrink term.  The output may
    go negative; positivity is restored by the similarity step.
    """
    s = np.asarray(gamma, dtype=float) - eta * np.asarray(grad) - tau * eta * np.asarray(x_agg)
    r = row_norms(panel)
    ratio = np.divide(s, r, out=np.zeros_like(s), where=r >= ROWNORM_FLOOR)
    return s - eta * beta * ratio


def similarity_prox(z, x_sel, anchor, tau_eta) -> tuple[np.ndarray, int]:
    """Elementwise shrink of ``z + tau_eta * x_sel`` toward ``anchor``.

    For v = z + tau_eta * x_sel the update is

        v - min(tau_eta * sign(v - anchor), v)   if v != 0
        0                                        if v == 0

    with sign(0) = 0, so hitting the anchor exactly returns v.  The min
    keeps the result nonnegative for v >= 0; any residual negative entry is
    clamped to zero and counted.  Returns (estimate, clamp count); stacked
    rows take a (B, 1) ``tau_eta`` and get one count each.
    """
    v = np.asarray(z, dtype=float) + tau_eta * np.asarray(x_sel, dtype=float)
    shift = np.minimum(tau_eta * np.sign(v - np.asarray(anchor, dtype=float)), v)
    out = np.where(v == 0.0, 0.0, v - shift)
    negative = out < 0.0
    return np.where(negative, 0.0, out), np.count_nonzero(negative, axis=-1)


def subgradient_local_update(x_old, z, gamma_new, tau_eta) -> np.ndarray:
    """Running estimator of the selected neighbor's similarity subgradient."""
    return np.asarray(x_old) + (np.asarray(z) - np.asarray(gamma_new)) / tau_eta


def subgradient_aggregate_update(x_agg, weight, x_new, x_old) -> np.ndarray:
    """Fold one neighbor's refreshed estimator into the combined one.

    Maintains ``x_agg = sum_l c_l x^l`` exactly while the combiner weights
    stay constant, since only the selected neighbor's term changed.
    """
    return np.asarray(x_agg) + weight * (np.asarray(x_new) - np.asarray(x_old))


def combiner_weights(own_gamma, neighbor_gammas, rho, receivers=None) -> np.ndarray:
    """Adaptive convex weights over [neighbors..., self].

    Each neighbor gets ``(2/k) * sigmoid(-rho * ||own - theirs||_2)`` where
    k is the neighbor count; the remainder goes to self.  Identical
    estimates split the mass evenly over the neighbors; distant estimates
    push all mass back to self.  Always a probability vector with each
    neighbor weight in [0, 1/k].

    For B APs, ``own_gamma`` is (B, N), ``neighbor_gammas`` has one row per
    edge and ``receivers`` the AP it feeds; the result is the edge weights,
    then the B self weights (one AP by default: [neighbors..., self]).
    """
    own = np.atleast_2d(np.asarray(own_gamma, dtype=float))
    nbrs = np.asarray(neighbor_gammas, dtype=float).reshape(-1, own.shape[-1])
    if receivers is None:
        receivers = np.zeros(len(nbrs), dtype=int)
    k = np.bincount(receivers, minlength=len(own))
    dists = np.linalg.norm(nbrs - own[receivers], axis=1)
    # The sigmoid of -rho * dists; exp overflows to inf for distant
    # estimates, which gives a weight of exactly 0.
    with np.errstate(over="ignore"):
        w = (2.0 / k[receivers]) * (1.0 / (1.0 + np.exp(rho * dists)))
    return np.concatenate([w, 1.0 - np.bincount(receivers, w, minlength=len(own))])


def stochastic_step_size(weight: float, eta: float, prob: float) -> float:
    """Per-selection step ``weight * eta / prob``; unbiased for eta in expectation."""
    return weight * eta / prob
