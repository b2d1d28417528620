"""Test-only oracle: the per-AP loop solver the batched round replaced.

This is the earlier ``solver`` loop path: ``init_states``, ``ap_iteration``
and the ``run`` driver, which advance one AP at a time with dicts of
per-neighbor arrays, plus the dict-based ``deliver_round`` they used.  The
batched ``coopdetect.solver.run`` must reproduce it.  Differences from the
original: neighbor selection is always uniform (the package has no other
selection distribution), the failure-plan checks ``ap_down`` and
``link_down`` are local helpers, and the per-AP scratch fields the batched
solver does not report (``rng``, ``z`` and the last selection, weights and
cost) live on ``LoopState``.  ``run`` stacks the states into the batched
solver's ``RunResult`` arrays and fills the same trace arrays and ledger
counts, so results compare array by array.  Where the scenario's pilots
have a table (``pilot_gram``), the gradient and the covariance update are
the package's own ``linalg`` operations called per AP with it; the solver
multiplies the table once per problem, so a solve matches the loop to
rounding, not bit for bit.  Past the table's byte budget the loop runs the
complex path, with its own covariance update, so the table path can also
be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coopdetect import netsim
from coopdetect.errors import ConfigMismatch, UnknownEdge
from coopdetect.linalg import (
    add_outer_sums,
    cholesky_factor,
    forms,
    operands,
    outer_sums,
    pilot_gram,
)
from coopdetect.netsim import CommLedger, FailurePlan
from coopdetect.objective import (
    Hyperparams,
    combiner_weights,
    gradient_matrix,
    ml_cost_given_factor,
    similarity_prox,
    sparsity_penalty,
    sparsity_step,
    stochastic_step_size,
    subgradient_aggregate_update,
    subgradient_local_update,
)
from coopdetect.scenario import Scenario
from coopdetect.solver import (
    _NETSIM_SALT,
    _SELECTION_SALT,
    IterationTrace,
    RunResult,
    SolverOptions,
    verify_state,
)


@dataclass
class LoopState:
    """An AP's state in the loop, with its own selection stream."""

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
    rng: np.random.Generator | None = None
    z: np.ndarray | None = None
    last_selected: int = -1
    last_weights: np.ndarray | None = None
    last_cost: float = float("nan")

    @property
    def inclusive_order(self) -> tuple[int, ...]:
        """Sampling order over the inclusive neighbor set: neighbors, self last."""
        return self.neighbors + (self.ap_id,)


def ap_down(plan: FailurePlan, ap: int, rnd: int) -> bool:
    return any(a == ap and rnd >= r for a, r in plan.ap_failures)


def link_down(plan: FailurePlan, edge, rnd: int) -> bool:
    e = tuple(sorted(int(x) for x in edge))
    return any(tuple(sorted(fe)) == e and r0 <= rnd <= r1
               for fe, r0, r1 in plan.link_failures)


def deliver_round(
    messages: dict,
    plan: FailurePlan,
    rnd: int,
    rng: np.random.Generator,
    neighbors,
    ledger: CommLedger | None = None,
) -> dict:
    """Deliver one round of messages keyed by directed edge (src, dst)."""
    delivered = {}
    for (src, dst) in sorted(messages):
        if dst not in neighbors[src]:
            raise UnknownEdge(f"({src}, {dst}) is not a backhaul edge")
    for (src, dst) in sorted(messages):
        payload = messages[(src, dst)]
        if ap_down(plan, src, rnd) or ap_down(plan, dst, rnd):
            continue
        if link_down(plan, (src, dst), rnd):
            continue
        if plan.drop_prob > 0.0 and rng.random() < plan.drop_prob:
            continue
        delivered[(src, dst)] = payload
    if ledger is not None:
        # Edges are numbered by receiver, in each receiver's neighbor order.
        edge = {(j, i): e for e, (j, i) in enumerate(
            (j, i) for i, nbrs in enumerate(neighbors) for j in nbrs)}
        ledger.attempted.append(len(messages))
        ledger.delivered.append(len(delivered))
        for key in delivered:
            ledger.per_edge[edge[key]] += 1
    return delivered


def init_states(scenario: Scenario, covs: np.ndarray, hyper: Hyperparams) -> list[LoopState]:
    """Fresh solver states: zero estimates, noise-only covariance, zero estimators.

    ``covs`` is the scenario's (num_aps, L, L) stack of sample covariances.
    """
    b, n, l = scenario.num_aps, scenario.num_devices, scenario.pilot_len
    if np.shape(covs) != (b, l, l):
        raise ConfigMismatch(f"sample covariances have shape {np.shape(covs)}, "
                             f"expected {(b, l, l)}")
    states = []
    for i in range(b):
        nbrs = tuple(scenario.neighbors[i])
        states.append(
            LoopState(
                ap_id=i,
                neighbors=nbrs,
                gamma=np.zeros(n),
                sigma=scenario.noise_power * np.eye(l, dtype=complex),
                z=np.zeros(n),
                x_agg=np.zeros(n),
                x_local={j: np.zeros(n) for j in nbrs + (i,)},
                last_received={j: np.zeros(n) for j in nbrs},
                rng=np.random.default_rng(
                    np.random.SeedSequence([_SELECTION_SALT, scenario.seed, i])
                ),
            )
        )
    return states


def _selection_probs(hyper: Hyperparams, count: int) -> np.ndarray:
    return np.full(count, 1.0 / count)


def ap_iteration(
    state: LoopState,
    sample_cov: np.ndarray,
    pilots: np.ndarray,
    hyper: Hyperparams,
    neighbor_data: dict,
    options: SolverOptions | None = None,
) -> np.ndarray:
    """Run one adaptation round for a single AP; returns the outgoing payload."""
    options = options or SolverOptions()
    gram = pilot_gram(pilots)
    gamma_old = state.gamma
    grad = forms(operands(gradient_matrix(state.sigma, sample_cov), gram), pilots, gram)

    order = state.inclusive_order
    nbr_mat = (
        np.stack([neighbor_data[j] for j in state.neighbors])
        if state.neighbors
        else np.zeros((0, gamma_old.shape[0]))
    )
    panel = np.column_stack([*nbr_mat, gamma_old])
    z = sparsity_step(gamma_old, grad, state.x_agg, panel, hyper.beta, hyper.tau, hyper.eta)

    probs = _selection_probs(hyper, len(order))
    sel_idx = int(state.rng.choice(len(order), p=probs))
    selected = order[sel_idx]

    # [neighbors..., self]: the self weight is what the neighbors leave.
    k = len(state.neighbors)
    edge_w = combiner_weights(gamma_old, nbr_mat, k, hyper.rho) if k else np.zeros(0)
    weights = np.append(edge_w, 1.0 - edge_w.sum())
    eta_sel = stochastic_step_size(float(weights[sel_idx]), hyper.eta, float(probs[sel_idx]))
    tau_eta = hyper.tau * eta_sel

    if selected == state.ap_id or tau_eta == 0.0:
        # Identity similarity step; clamp any negative z entries.
        negative = z < 0.0
        state.clamp_count += int(np.count_nonzero(negative))
        gamma_new = np.where(negative, 0.0, z)
        if tau_eta == 0.0 and selected != state.ap_id:
            state.degenerate_count += 1
    else:
        gamma_new, clamped = similarity_prox(
            z, state.x_local[selected], neighbor_data[selected], tau_eta
        )
        state.clamp_count += clamped
        x_new = subgradient_local_update(state.x_local[selected], z, gamma_new, tau_eta)
        np.clip(x_new, -1.0, 1.0, out=x_new)
        state.x_agg = subgradient_aggregate_update(
            state.x_agg, float(weights[sel_idx]), x_new, state.x_local[selected]
        )
        state.x_local[selected] = x_new

    delta = gamma_new - gamma_old
    if gram is None:
        sigma = state.sigma + (pilots * delta) @ pilots.conj().T
        state.sigma = 0.5 * (sigma + sigma.conj().T)
    else:
        state.sigma = add_outer_sums(state.sigma, outer_sums(delta, pilots, gram), gram)
    state.gamma = gamma_new
    state.z = z
    state.t += 1
    state.last_selected = selected
    state.last_weights = weights
    state.last_delta = float(np.max(np.abs(delta))) if delta.size else 0.0

    if options.record_cost:
        cost = ml_cost_given_factor(cholesky_factor(state.sigma), sample_cov)
        panel_new = np.column_stack([*nbr_mat, gamma_new])
        cost += hyper.beta * sparsity_penalty(panel_new, hyper.theta)
        if state.neighbors:
            sim = np.abs(gamma_new - nbr_mat).sum(axis=1)
            cost += hyper.tau * float(np.dot(weights[:-1], sim))
        state.last_cost = float(cost)
    else:
        state.last_cost = float("nan")

    return (gamma_old if options.lag_transmit else gamma_new).copy()


def run(
    scenario: Scenario,
    covs: np.ndarray,
    hyper: Hyperparams,
    plan: netsim.FailurePlan | None = None,
    options: SolverOptions | None = None,
) -> RunResult:
    """Drive all APs for ``hyper.num_iters`` synchronized rounds, one AP at a time."""
    if hyper.num_iters < 1:
        raise ConfigMismatch(f"num_iters must be >= 1, got {hyper.num_iters}")
    options = options or SolverOptions()
    plan = plan or netsim.EMPTY_PLAN
    plan.validate(scenario.neighbors, hyper.num_iters)

    states = init_states(scenario, covs, hyper)
    edges = netsim.Backhaul.from_neighbors(scenario.neighbors)
    shape = (hyper.num_iters, scenario.num_aps)
    trace = IterationTrace(np.full(shape, np.nan), *(np.full(shape, -1) for _ in range(3)),
                           np.full(shape, np.nan))
    ledger = netsim.CommLedger(len(edges.src), scenario.num_devices)
    net_rng = np.random.default_rng(np.random.SeedSequence([_NETSIM_SALT, scenario.seed]))

    rounds_completed = 0
    for t in range(1, hyper.num_iters + 1):
        messages = {}
        for state in states:
            if ap_down(plan, state.ap_id, t):
                continue
            payload = ap_iteration(
                state,
                covs[state.ap_id],
                scenario.pilots,
                hyper,
                state.last_received,
                options,
            )
            for nb in state.neighbors:
                messages[(state.ap_id, nb)] = payload
            row = t - 1, state.ap_id
            trace.cost[row], trace.selected[row] = state.last_cost, state.last_selected
            trace.clamped[row], trace.degenerate[row] = state.clamp_count, state.degenerate_count
            trace.delta[row] = state.last_delta
        delivered = deliver_round(messages, plan, t, net_rng, scenario.neighbors, ledger)
        for (src, dst), payload in delivered.items():
            states[dst].last_received[src] = payload
        rounds_completed = t
        if options.check_state_every and t % options.check_state_every == 0:
            verify_state(np.stack([s.sigma for s in states]), np.stack([s.gamma for s in states]),
                         scenario, [not ap_down(plan, s.ap_id, t) for s in states])
        if options.early_stop_tol is not None:
            live = [s for s in states if not ap_down(plan, s.ap_id, t)]
            if live and max(s.last_delta for s in live) < options.early_stop_tol:
                break

    def per_edge(field: str) -> np.ndarray:
        rows = [getattr(states[dst], field)[src] for src, dst in zip(edges.src, edges.dst)]
        return np.array(rows).reshape(len(rows), scenario.num_devices)

    return RunResult(
        gamma=np.stack([s.gamma for s in states]), trace=trace[:rounds_completed],
        ledger=ledger, rounds_completed=rounds_completed, edges=edges,
        sigma=np.stack([s.sigma for s in states]), x_agg=np.stack([s.x_agg for s in states]),
        t=np.array([s.t for s in states]), clamped=np.array([s.clamp_count for s in states]),
        degenerate=np.array([s.degenerate_count for s in states]),
        delta=np.array([s.last_delta for s in states]),
        x_local=per_edge("x_local"), received=per_edge("last_received"))
