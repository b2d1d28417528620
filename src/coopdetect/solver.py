"""Synchronized multi-AP solver: each round is one batched step over all live APs.

Each round, every live AP takes a likelihood gradient step folded with the
joint-sparsity shrink (the z step), samples one neighbor, shrinks toward
that neighbor's last received estimate, maintains its model covariance,
refreshes its subgradient estimators and hands its new estimate to the
backhaul.  Rounds are bulk-synchronous: all APs compute on previous-round
neighbor data, then all messages are delivered at once.

Layout, for B APs, N devices, L pilot symbols and E directed backhaul edges
(a ``netsim.Backhaul``, ordered by receiver): estimates and combined
subgradient estimators are (B, N), covariances (B, L, L).  The estimate last
received over each edge and the receiver's subgradient estimator for that
neighbor are edge-indexed (E, N), so memory grows with the edges, not B^2;
an AP's estimator for itself never moves and is not stored.  Each step calls
its objective function once for all live APs.

Random streams do not depend on the batching.  AP i pre-draws its selection
uniforms as ``rng.random(num_iters)`` from ``SeedSequence([_SELECTION_SALT,
seed, i])``; comparing the round-t value with the CDF of its inclusive
degree equals the t-th ``rng.choice`` of a per-AP loop, as a crashed AP never
draws again.  Drops take one draw per surviving message, in (src, dst) order.

The gradient and the covariance update need (L, N) complex temporaries per
AP, so they run over chunks of live APs that keep one (chunk, L, N)
temporary near ``CHUNK_BYTES``: all B at once would grow peak memory with B
(5 MB per temporary for 64 APs at L=24, N=200) for no speed, as a chunk of a
few APs already amortizes the per-call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import netsim
from .errors import ConfigMismatch, StateConsistencyError
from .linalg import cholesky_factor
from .objective import (
    Hyperparams,
    assemble_covariance,
    combiner_weights,
    ml_cost_given_factor,
    ml_gradient,
    similarity_prox,
    sparsity_penalty,
    sparsity_step,
    stochastic_step_size,
    subgradient_aggregate_update,
    subgradient_local_update,
)
from .scenario import ApObservation, Scenario

_SELECTION_SALT = 0x5E1EC7
_NETSIM_SALT = 0xD80B
CHUNK_BYTES = 1 << 19


@dataclass
class SolverOptions:
    """Behavior knobs that are not model hyperparameters."""

    lag_transmit: bool = False        # transmit the pre-update estimate instead
    check_state_every: int = 0        # verify covariance consistency every k rounds
    early_stop_tol: float | None = None
    record_cost: bool = True


@dataclass
class ApSolverState:
    """One AP's final iterates; :attr:`RunResult.states` holds one per AP."""

    ap_id: int
    neighbors: tuple[int, ...]        # one-hop neighbors, self excluded
    gamma: np.ndarray                 # (N,) current device state estimate
    sigma: np.ndarray                 # (L, L) maintained model covariance
    x_agg: np.ndarray                 # (N,) combined subgradient estimator
    x_local: dict                     # neighbor id -> (N,) estimator (self stays 0)
    last_received: dict               # neighbor id -> (N,) their last estimate
    t: int = 0
    clamp_count: int = 0
    degenerate_count: int = 0
    last_delta: float = float("inf")  # inf-norm of the latest estimate change


@dataclass
class IterationTrace:
    """Append-only per-round records of arrays over the APs live in that round."""

    records: list = field(default_factory=list)

    def round_costs(self) -> np.ndarray:
        """Total cost across APs per round, ordered by round."""
        return np.array([float(np.sum(r["cost"])) for r in self.records])


@dataclass
class RunResult:
    """Final estimates plus everything needed to audit the run."""

    gamma: np.ndarray                 # (B, N) final estimates, row per AP
    trace: IterationTrace
    ledger: netsim.CommLedger
    states: list
    rounds_completed: int


@dataclass
class _Batch:
    """All APs' iterates and counters as flat arrays (see the module docstring)."""

    edges: netsim.Backhaul
    draws: np.ndarray                 # (B, T) pre-drawn selection uniforms
    cdfs: np.ndarray                  # (B, max degree + 1) selection CDFs
    gamma: np.ndarray                 # (B, N)
    sigma: np.ndarray                 # (B, L, L)
    x_agg: np.ndarray                 # (B, N)
    x_local: np.ndarray               # (E, N) receiver's estimator per neighbor
    received: np.ndarray              # (E, N) last estimate over each edge
    t: np.ndarray                     # (B,) rounds computed
    clamped: np.ndarray               # (B,)
    degenerate: np.ndarray            # (B,)
    delta: np.ndarray                 # (B,) inf-norm of the last estimate change

    @classmethod
    def initial(cls, scenario: Scenario, num_iters: int) -> "_Batch":
        """Zero estimates, noise-only covariances, zero estimators."""
        b, n, l = scenario.num_aps, scenario.num_devices, scenario.pilot_len
        edges = netsim.Backhaul.from_neighbors(scenario.neighbors)
        draws = np.stack([np.random.default_rng(np.random.SeedSequence(
            [_SELECTION_SALT, scenario.seed, i])).random(num_iters) for i in range(b)])
        sigma = np.tile(scenario.noise_power * np.eye(l, dtype=complex), (b, 1, 1))
        e = len(edges.src)
        return cls(edges, draws, _selection_cdfs(np.bincount(edges.dst, minlength=b)),
                   np.zeros((b, n)), sigma, np.zeros((b, n)), np.zeros((e, n)),
                   np.zeros((e, n)), np.zeros(b, dtype=int), np.zeros(b, dtype=int),
                   np.zeros(b, dtype=int), np.full(b, np.inf))

    def states(self, neighbors) -> list[ApSolverState]:
        """Per-AP views of the arrays (rows are shared, not copied)."""
        out, first = [], 0
        for i, nbrs in enumerate(neighbors):
            own = range(first, first + len(nbrs))
            first += len(nbrs)
            out.append(ApSolverState(
                ap_id=i, neighbors=tuple(nbrs), gamma=self.gamma[i], sigma=self.sigma[i],
                x_agg=self.x_agg[i],
                x_local={**{j: self.x_local[k] for j, k in zip(nbrs, own)},
                         i: np.zeros_like(self.gamma[i])},
                last_received={j: self.received[k] for j, k in zip(nbrs, own)},
                t=int(self.t[i]), clamp_count=int(self.clamped[i]),
                degenerate_count=int(self.degenerate[i]), last_delta=float(self.delta[i]),
            ))
        return out


def _selection_cdfs(degree: np.ndarray) -> np.ndarray:
    """(B, max degree + 1) uniform CDFs over [neighbors..., self], +inf padded.

    Built as ``Generator.choice`` builds them: the count of entries at or
    below one uniform draw is ``rng.choice(degree + 1, p=uniform)``.
    """
    cdfs = np.full((len(degree), int(degree.max(initial=0)) + 1), np.inf)
    for count in np.unique(degree + 1):
        cdf = np.full(count, 1.0 / count).cumsum()
        cdfs[degree + 1 == count, :count] = cdf / cdf[-1]
    return cdfs


def verify_state(state: ApSolverState, scenario: Scenario, rtol: float = 1e-8) -> float:
    """Relative Frobenius gap between maintained and reassembled covariance.

    Raises StateConsistencyError when the gap exceeds ``rtol``.
    """
    fresh = assemble_covariance(scenario.pilots, state.gamma, scenario.noise_power)
    gap = float(np.linalg.norm(state.sigma - fresh) / np.linalg.norm(fresh))
    if gap > rtol:
        raise StateConsistencyError(
            f"AP {state.ap_id}: maintained covariance drifted (relative gap {gap:.3e})"
        )
    return gap


def _round(st: _Batch, live: np.ndarray, t: int, scenario: Scenario, covs: list,
           hyper: Hyperparams, options: SolverOptions, trace: IterationTrace) -> np.ndarray:
    """Advance the (nonempty) ``live`` APs by round ``t``; returns their outgoing estimates.

    Selecting the own AP (or drawing a zero combiner weight) degenerates the
    similarity step to the identity: the similarity penalty against oneself
    is identically zero, so the new estimate is the clamped z step and the
    estimators stay untouched.
    """
    pilots, (l, n) = scenario.pilots, scenario.pilots.shape
    src, dst = st.edges.src, st.edges.dst
    b, e, c = len(st.gamma), len(src), len(live)
    degree = np.bincount(dst, minlength=b)
    first = np.cumsum(degree) - degree
    row = np.full(b, -1)
    row[live] = np.arange(c)
    ein = slice(None) if c == b else np.flatnonzero(row[dst] >= 0)   # edges into live APs
    erow, eslot, own_col = row[dst[ein]], (np.arange(e) - first[dst])[ein], degree[live]
    step = max(1, CHUNK_BYTES // (16 * l * n))
    chunks = [slice(k, k + step) for k in range(0, c, step)]

    g_old = st.gamma[live]
    grad = np.empty_like(g_old)
    for sl in chunks:
        grad[sl] = ml_gradient(g_old[sl], pilots, None, np.stack(covs[sl]),
                               cov=st.sigma[live[sl]])
    # Panels zero-padded to the largest inclusive degree, stored (c, K, N)
    # so the row norms reduce over contiguous rows.
    panel = np.zeros((c, st.cdfs.shape[1], n))
    panel[erow, eslot] = st.received[ein]
    panel[np.arange(c), own_col] = g_old
    z = sparsity_step(g_old, grad, st.x_agg[live], panel.swapaxes(1, 2),
                      hyper.beta, hyper.tau, hyper.eta)

    count = own_col + 1
    sel = np.count_nonzero(st.cdfs[live] <= st.draws[live, t - 1, None], axis=1)
    own = sel == own_col
    pick = np.where(own, e + live, first[live] + sel)     # index into the weights
    w = combiner_weights(g_old, st.received[ein], hyper.rho, receivers=erow)
    weights = np.empty(e + b)
    weights[:e][ein], weights[e + live] = w[:len(erow)], w[len(erow):]
    w_sel = weights[pick]
    tau_eta = hyper.tau * stochastic_step_size(w_sel, hyper.eta, 1.0 / count)

    # Identity similarity step (self selected or zero weight): clamp z.
    negative = z < 0.0
    g_new = np.where(negative, 0.0, z)
    ident = own | (tau_eta == 0.0)
    st.clamped[live[ident]] += np.count_nonzero(negative[ident], axis=1)
    st.degenerate[live[ident & ~own]] += 1
    p = np.flatnonzero(~ident)
    if p.size:
        ep, te = pick[p], tau_eta[p, None]
        g_new[p], clamps = similarity_prox(z[p], st.x_local[ep], st.received[ep], te)
        st.clamped[live[p]] += clamps
        x_new = subgradient_local_update(st.x_local[ep], z[p], g_new[p], te)
        # Interior prox solutions land in [-1, 1] on their own; when the
        # positivity clamp binds the raw recursion is unbounded, so project
        # onto the range of valid absolute-value subgradients.
        np.clip(x_new, -1.0, 1.0, out=x_new)
        st.x_agg[live[p]] = subgradient_aggregate_update(
            st.x_agg[live[p]], w_sel[p, None], x_new, st.x_local[ep])
        st.x_local[ep] = x_new

    delta = g_new - g_old
    for sl in chunks:
        sigma = st.sigma[live[sl]] + (
            (pilots * delta[sl, None, :]).reshape(-1, n) @ pilots.conj().T).reshape(-1, l, l)
        st.sigma[live[sl]] = 0.5 * (sigma + np.conj(np.swapaxes(sigma, -1, -2)))
    st.gamma[live] = g_new
    st.t[live] += 1
    st.delta[live] = np.max(np.abs(delta), axis=1, initial=0.0)

    cost = np.full(c, np.nan)
    if options.record_cost:
        for sl in chunks:
            cost[sl] = ml_cost_given_factor(cholesky_factor(st.sigma[live[sl]]),
                                            np.stack(covs[sl]))
        panel[np.arange(c), own_col] = g_new
        cost += hyper.beta * sparsity_penalty(panel.swapaxes(1, 2), hyper.theta)
        sim = np.abs(g_new[erow] - st.received[ein]).sum(axis=1)
        cost += hyper.tau * np.bincount(erow, w[:len(erow)] * sim, minlength=c)
    selected = live.copy()
    selected[~own] = src[pick[~own]]
    trace.records.append(dict(round=t, ap=live, cost=cost, selected=selected,
                              clamped=st.clamped[live], degenerate=st.degenerate[live]))
    return g_old if options.lag_transmit else g_new


def run(
    scenario: Scenario,
    observations: list[ApObservation],
    hyper: Hyperparams,
    plan: netsim.FailurePlan | None = None,
    options: SolverOptions | None = None,
) -> RunResult:
    """Drive all APs for ``hyper.num_iters`` synchronized rounds.

    Every round each live AP adapts on previous-round neighbor data, then
    all messages cross the backhaul at once (subject to the failure plan);
    missed messages leave the stale copy in place.  Deterministic for a
    fixed scenario seed.
    """
    if hyper.num_iters < 1:
        raise ConfigMismatch(f"num_iters must be >= 1, got {hyper.num_iters}")
    options = options or SolverOptions()
    plan = plan or netsim.EMPTY_PLAN
    plan.validate(scenario.neighbors, hyper.num_iters)
    b, l = scenario.num_aps, scenario.pilot_len
    if len(observations) != b:
        raise ConfigMismatch(f"{len(observations)} observations for {b} APs")
    for i, obs in enumerate(observations):
        if obs.ap_id != i:
            raise ConfigMismatch(f"observation {i} carries ap_id {obs.ap_id}")
        if obs.sample_cov.shape != (l, l):
            raise ConfigMismatch(
                f"sample covariance at AP {i} has shape {obs.sample_cov.shape}, expected {(l, l)}"
            )

    st = _Batch.initial(scenario, hyper.num_iters)
    trace = IterationTrace()
    ledger = netsim.CommLedger()
    net_rng = np.random.default_rng(np.random.SeedSequence([_NETSIM_SALT, scenario.seed]))

    rounds_completed = 0
    for t in range(1, hyper.num_iters + 1):
        is_live = ~plan.aps_down(t, b)
        live = np.flatnonzero(is_live)
        if live.size:
            outgoing = _round(st, live, t, scenario, [observations[i].sample_cov for i in live],
                              hyper, options, trace)
        delivered = netsim.deliver_round(is_live[st.edges.src], plan, t, net_rng, st.edges,
                                         ledger, scenario.num_devices)
        if delivered.any():
            st.received[delivered] = outgoing[(np.cumsum(is_live) - 1)[st.edges.src[delivered]]]
        rounds_completed = t
        if options.check_state_every and t % options.check_state_every == 0:
            for state in st.states(scenario.neighbors):
                if is_live[state.ap_id]:
                    verify_state(state, scenario)
        if (options.early_stop_tol is not None and live.size
                and st.delta[live].max() < options.early_stop_tol):
            break

    return RunResult(gamma=st.gamma.copy(), trace=trace, ledger=ledger,
                     states=st.states(scenario.neighbors), rounds_completed=rounds_completed)
