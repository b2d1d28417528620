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

from .errors import is_finite, is_integer
from .linalg import cholesky_factor, inverse_from_factor, logdet_from_factor

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
        weights nonnegative (rho >= 0 keeps each :func:`combiner_weights`
        weight in [0, 1/k]), all of them finite, and a solve needs a whole
        number of rounds, at least one (a bool is not a count).
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
        if not is_integer(self.num_iters):
            problems.append(f"num_iters must be an integer, got {self.num_iters!r}")
        elif self.num_iters < 1:
            problems.append(f"num_iters must be >= 1, got {self.num_iters}")
        return problems


def assemble_covariance(pilots: np.ndarray, gamma: np.ndarray, noise_power: float) -> np.ndarray:
    """Model covariance ``pilots @ diag(gamma) @ pilots^H + noise_power * I``."""
    l = pilots.shape[0]
    return (pilots * np.asarray(gamma)[..., None, :]) @ pilots.conj().T + noise_power * np.eye(l)


def ml_cost(gamma, pilots, noise_power, sample_cov) -> float:
    """Negative log-likelihood ``ln det(Sigma) + tr(Sigma^-1 SampleCov)``."""
    sigma = assemble_covariance(pilots, np.asarray(gamma, dtype=float), noise_power)
    return ml_cost_given_factor(cholesky_factor(sigma), sample_cov)


def ml_cost_given_factor(low, sample_cov):
    """Same as :func:`ml_cost` given the Cholesky factor of the model covariance."""
    # tr(Sigma^-1 S) as the sum of the elementwise product with S transposed.
    inv = inverse_from_factor(low)
    fit = np.real(np.sum(inv * np.swapaxes(sample_cov, -1, -2), axis=(-2, -1)))
    return logdet_from_factor(low) + fit


def gradient_matrix(sigma, sample_cov) -> np.ndarray:
    """D = Sigma^-1 - Sigma^-1 S Sigma^-1, whose quadratic forms are :func:`ml_cost`'s gradient.

    Entry n of the coordinate gradient at the model covariance ``sigma`` is
    alpha_n - beta_n = Re a_n^H D a_n, with alpha_n = a_n^H Sigma^-1 a_n and
    beta_n = a_n^H Sigma^-1 S Sigma^-1 a_n (``linalg.forms``).  The downdate
    cancels: coordinate descent's q1/(1 + gamma_n q1) - q2/(1 + gamma_n q1)^2,
    with q1, q2 the forms without device n, is the same alpha_n - beta_n.

    The Cholesky factorization that checks that the covariance is positive
    definite also gives its inverse (``linalg.inverse_from_factor``), then
    two (L, L) products.  Each matrix of a stack is its own: its bits do not
    depend on the stack.
    """
    inv = inverse_from_factor(cholesky_factor(sigma))  # raises NotPositiveDefinite
    return inv - inv @ sample_cov @ inv


def noise_gradient_matrix(sigma, sample_cov) -> np.ndarray:
    """:func:`gradient_matrix` at a noise-only ``sigma`` = sigma^2 I, in closed form, with its bits.

    There D = w^2 I - (S w^2) w^2 with w = 1/sqrt(sigma^2), computed in the
    order that the factor, its inverse and W^H W take on a scaled identity.
    Only the first diagonal entry of each matrix is read, and not checked:
    sigma^2 must be positive and finite.
    """
    w = 1.0 / np.sqrt(sigma[..., :1, :1].real)
    w2 = w * w
    return w2 * np.eye(sigma.shape[-1]) - (sample_cov * w2) * w2


def row_norms(panel: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (N, |neighbors|+1) estimate panel.

    Stacked panels may be padded with zero columns to a common width.  This
    is what ``np.linalg.norm(panel, axis=-1)`` computes on real input, bit
    for bit, without its ``conj()`` pass.
    """
    x = np.atleast_2d(panel.T).T
    return np.sqrt(np.add.reduce(x * x, axis=-1))


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
    return np.where(negative, 0.0, out), negative.sum(axis=-1)


def subgradient_local_update(x_old, z, gamma_new, tau_eta) -> np.ndarray:
    """Running estimator of the selected neighbor's similarity subgradient."""
    return np.asarray(x_old) + (np.asarray(z) - np.asarray(gamma_new)) / tau_eta


def subgradient_aggregate_update(x_agg, weight, x_new, x_old) -> np.ndarray:
    """Fold one neighbor's refreshed estimator into the combined one.

    Maintains ``x_agg = sum_l c_l x^l`` exactly while the combiner weights
    stay constant, since only the selected neighbor's term changed.
    """
    return np.asarray(x_agg) + weight * (np.asarray(x_new) - np.asarray(x_old))


def combiner_weights(own_rows, neighbor_rows, degree, rho) -> np.ndarray:
    """Each edge's combiner weight, ``(2/k) * sigmoid(-rho * ||own - theirs||_2)``.

    Row r of ``neighbor_rows`` (R, N) is an estimate an AP received, row r of
    ``own_rows`` (or one (N,) row for all) its own and ``degree`` its neighbor
    count k (per row, or one for all).  Each weight lies in [0, 1/k], so an
    AP's weights leave it a self weight, which no step reads.  A row's bits do
    not depend on the other rows.
    """
    # Euclidean distances with row_norms' bits, squared in place so that no
    # second (R, N) temporary is made.
    diff = neighbor_rows - own_rows
    diff *= diff
    dists = np.sqrt(np.add.reduce(diff, axis=1))
    # The sigmoid of -rho * dists; exp overflows to inf for distant
    # estimates, which gives a weight of exactly 0.
    with np.errstate(over="ignore"):
        return (2.0 / degree) * (1.0 / (1.0 + np.exp(rho * dists)))


def stochastic_step_size(weight: float, eta: float, prob: float) -> float:
    """Per-selection step ``weight * eta / prob``; unbiased for eta in expectation."""
    return weight * eta / prob
