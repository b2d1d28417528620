"""Synchronized multi-AP solver: each round is one batched step over all live APs.

Each round, every live AP takes a likelihood gradient step folded with the
joint-sparsity shrink (the z step), samples one neighbor, shrinks toward
that neighbor's last received estimate, maintains its model covariance,
refreshes its subgradient estimators and hands its new estimate to the
backhaul.  Rounds are bulk-synchronous: all APs compute on previous-round
neighbor data, then all messages are delivered at once.

``run_batch`` solves several independent problems (scenario, observations,
failure plan) of one L and N together, such as the trials and modes of a
sweep point; ``run`` is a batch of one.  The problems' APs and edges are
stacked in order into one batch, so a round is one step over all of them.

Layout, for B APs, N devices, L pilot symbols and E directed backhaul edges
(a ``netsim.Backhaul``, ordered by receiver, block-diagonal over problems):
estimates and combined subgradient estimators are (B, N), covariances
(B, L, L).  The estimate last received over each edge and the receiver's
subgradient estimator for that neighbor are edge-indexed (E, N), so memory
grows with the edges, not B^2; an AP's estimator for itself never moves and
is not stored.  Each step calls its objective function once for all live
APs.  What is not shared stays per problem: its failure plan, drop stream,
ledger, trace, early stop and round count.

A round reads what depends only on which APs are live from a round plan
(``_RoundPlan``): the live rows and each AP's position among them, the edges
into live APs with their receivers' positions and panel slots, each live
AP's own column (its in-degree), the live rows of the selection CDFs, each
problem's first live position and its masks of live APs and of edges that
carry a message, and the gradient and covariance-update calls.  The live
set changes only when a failure plan crashes an AP, in a round known before
the solve, or when a problem stops early, so the plan is built in round 1
and again only in a crash round and in the round after an early stop; the
in-degrees and first edges, which never change, are kept on the batch.
The plan lives in one solve and is dropped with it.

Random streams do not depend on the batching.  AP i of a problem pre-draws
its selection uniforms as ``rng.random(num_iters)`` from
``SeedSequence([_SELECTION_SALT, seed, i])`` with its scenario's seed;
comparing the round-t value with the CDF of its inclusive degree equals the
t-th ``rng.choice`` of a per-AP loop, as a crashed AP never draws again.
An AP without neighbors always selects itself, so it draws nothing.
Drops take one draw per surviving message of a problem, in (src, dst) order,
from that problem's stream.  So each problem's result is bitwise what it
gets solved alone.

The gradient and the covariance update read a problem's pilots through a
kernel built once per solve for each distinct pilot matrix
(``linalg.pilot_kernel``): its table or, past the table's byte budget, its
conjugate transpose for the complex path.  Each call covers consecutive
live APs, so their covariances are slices of the batch's stacks.  With a
table, every product in a call is per AP, so an AP's bits do not depend on
which APs share its call, and the problems that share the table (the modes
of a trial) share calls.  Products stay per AP rather than one product
over a call's APs because BLAS results change with the row count: a batched
product would be faster, but a problem's bits would then depend on what it
is batched with.  The complex path multiplies a call's stack at once, so
its calls stay within one problem.  Calls are cut so that their
temporaries stay near ``CHUNK_BYTES``: all B APs at once would grow peak
memory with B (3 MB of temporaries for 64 APs at L=24 with a table, 5 MB
per (L, N) temporary at N=200 without) for little speed: at that shape one
gradient call over 64 APs took 0.95x the time of four calls over 16.  Each
problem's table counts against a batch's size in APs (:func:`batch_aps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import netsim
from .errors import ConfigMismatch, StateConsistencyError
from .linalg import cholesky_factor, gram_bytes, is_table, pilot_kernel
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
    update_covariance,
)
from .scenario import ApObservation, Scenario

_SELECTION_SALT = 0x5E1EC7
_NETSIM_SALT = 0xD80B
CHUNK_BYTES = 1 << 20


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
    degree: np.ndarray                # (B,) neighbors of each AP: its edges in
    first: np.ndarray                 # (B,) each AP's first edge in
    draws: np.ndarray                 # (B, T) pre-drawn selection uniforms, 0 without neighbors
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
    def initial(cls, *scenarios: Scenario, num_iters: int) -> "_Batch":
        """Zero estimates, noise-only covariances and zero estimators.

        The APs of ``scenarios`` are stacked in turn and their backhauls
        joined block-diagonally.
        """
        nets = [netsim.Backhaul.from_neighbors(sc.neighbors) for sc in scenarios]
        aps = np.cumsum([0] + [sc.num_aps for sc in scenarios])
        links = np.cumsum([0] + [len(net.src) for net in nets])
        b, e = int(aps[-1]), int(links[-1])
        n, l = scenarios[0].num_devices, scenarios[0].pilot_len
        # Receiver order and (src, dst) send order hold across the join, as
        # each scenario's AP ids follow the previous one's.
        edges = netsim.Backhaul(b, np.concatenate([net.src + a for net, a in zip(nets, aps)]),
                                np.concatenate([net.dst + a for net, a in zip(nets, aps)]),
                                np.concatenate([net.send_order + k
                                                for net, k in zip(nets, links)]))
        degree = np.bincount(edges.dst, minlength=b)
        # An AP without neighbors always selects itself, whatever it draws.
        draws = np.zeros((b, num_iters))
        for sc, a in zip(scenarios, aps):
            for i in np.flatnonzero(degree[a:a + sc.num_aps]):
                draws[a + i] = np.random.default_rng(np.random.SeedSequence(
                    [_SELECTION_SALT, sc.seed, int(i)])).random(num_iters)
        noise = np.repeat([sc.noise_power for sc in scenarios], np.diff(aps))
        sigma = noise[:, None, None] * np.eye(l, dtype=complex)
        return cls(edges, degree, np.cumsum(degree) - degree, draws, _selection_cdfs(degree),
                   np.zeros((b, n)), sigma, np.zeros((b, n)), np.zeros((e, n)),
                   np.zeros((e, n)), np.zeros(b, dtype=int), np.zeros(b, dtype=int),
                   np.zeros(b, dtype=int), np.full(b, np.inf))

    def states(self, neighbors, ap0: int = 0, link0: int = 0) -> list[ApSolverState]:
        """Per-AP views of the rows of the APs from ``ap0`` and their edges from ``link0``."""
        out, first = [], link0
        for i, nbrs in enumerate(neighbors):
            own = range(first, first + len(nbrs))
            first += len(nbrs)
            k = ap0 + i
            out.append(ApSolverState(
                ap_id=i, neighbors=tuple(nbrs), gamma=self.gamma[k], sigma=self.sigma[k],
                x_agg=self.x_agg[k],
                x_local={**{j: self.x_local[e] for j, e in zip(nbrs, own)},
                         i: np.zeros_like(self.gamma[k])},
                last_received={j: self.received[e] for j, e in zip(nbrs, own)},
                t=int(self.t[k]), clamp_count=int(self.clamped[k]),
                degenerate_count=int(self.degenerate[k]), last_delta=float(self.delta[k]),
            ))
        return out


@dataclass
class _Solve:
    """One problem's own part of a batched solve: its rows, plan, streams and records."""

    scenario: Scenario
    plan: netsim.FailurePlan
    edges: netsim.Backhaul            # its own edges, local AP ids
    aps: slice                        # its rows of the batch's AP arrays
    links: slice                      # its rows of the batch's edge arrays
    kernel: np.ndarray                # its pilots' linalg.pilot_kernel
    rng: np.random.Generator          # drop stream
    trace: IterationTrace = field(default_factory=IterationTrace)
    ledger: netsim.CommLedger = field(default_factory=netsim.CommLedger)
    rounds_completed: int = 0
    running: bool = True


@dataclass
class _RoundPlan:
    """What a round needs that depends only on which APs are live (see the module docstring)."""

    live: np.ndarray                  # (c,) live rows of the batch, ascending
    row: np.ndarray                   # (B,) each AP's position in ``live``, -1 if not live
    ein: slice | np.ndarray           # edges into live APs
    erow: np.ndarray                  # their receivers' positions in ``live``
    eslot: np.ndarray                 # their slots in the receivers' panels
    own_col: np.ndarray               # (c,) each live AP's own slot: its in-degree
    cdfs: np.ndarray                  # (c, max degree + 1) the live APs' selection CDFs
    bounds: np.ndarray                # the problems' first positions in ``live``, then c
    mine: list                        # per problem, the mask of its live APs
    sent: list                        # per problem, the mask of its edges that carry a message
    calls: list                       # (problem, live positions, rows) per kernel call


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


@cache
def _retain_freed_memory() -> None:
    """Keep freed heap memory for reuse instead of handing it back to the system.

    A round allocates and frees the same few hundred kB of temporaries.
    glibc trims the heap top once its free part passes a threshold that it
    adapts to the largest block it has unmapped so far; at desk scale that
    stays below a round's swing, so the heap was trimmed at the end of each
    round and page-faulted back in during the next (about 1700 faults and a
    fifth of the wall time of an experiment; importing scipy used to raise
    the threshold as a side effect).  So the process keeps up to 8 MB of
    free heap and serves blocks below 4 MB from it.  A no-op where the C
    library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


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


def _kernel_calls(live: np.ndarray, solves: list[_Solve], bounds: np.ndarray, l: int,
                  n: int) -> list[tuple[_Solve, slice, slice]]:
    """The gradient and covariance-update calls of a round: (problem, live positions, rows).

    A call covers consecutive live APs, so its rows of the batch's arrays are
    a slice and their stacks are views.  Problems that share a pilot table
    (the modes of a trial) share calls; on the complex path a call stays
    within one problem.  Calls are cut to keep their temporaries near
    ``CHUNK_BYTES``: about four (L, L) complex arrays per AP with a table,
    two (L, N) without.  ``bounds`` are the problems' first positions in
    ``live``, and its length.
    """
    # Problems with the same pilot table share a key; each other problem has its own.
    keys: dict[int, int] = {}
    key = [keys.setdefault(id(s.kernel) if is_table(s.kernel) else id(s), len(keys))
           for s in solves]
    owner = np.repeat(np.arange(len(solves)), np.diff(bounds))     # problem per live AP
    first = np.flatnonzero((np.diff(live, prepend=-2) != 1)
                           | (np.diff(np.take(key, owner), prepend=-1) != 0))
    calls = []
    for r0, r1 in zip(first, np.append(first[1:], len(live))):
        s = solves[owner[r0]]
        step = max(1, CHUNK_BYTES // (64 * l * l if is_table(s.kernel) else 32 * l * n))
        calls += [(s, slice(k, min(k + step, r1)), slice(live[k], live[min(k + step, r1) - 1] + 1))
                  for k in range(r0, r1, step)]
    return calls


def _round_plan(st: _Batch, solves: list[_Solve], t: int) -> _RoundPlan:
    """The plan of round ``t``: the live APs of the running problems, and what follows."""
    b = len(st.gamma)
    is_live = np.zeros(b, dtype=bool)
    for s in solves:
        if s.running:
            is_live[s.aps] = ~s.plan.aps_down(t, s.scenario.num_aps)
    live = np.flatnonzero(is_live)
    c, dst = len(live), st.edges.dst
    row = np.full(b, -1)
    row[live] = np.arange(c)
    ein = slice(None) if c == b else np.flatnonzero(row[dst] >= 0)     # edges into live APs
    slot = np.arange(len(dst)) - st.first[dst]
    bounds = np.searchsorted(live, [s.aps.start for s in solves] + [b])
    return _RoundPlan(live, row, ein, row[dst[ein]], slot[ein], st.degree[live], st.cdfs[live],
                      bounds, [is_live[s.aps] for s in solves],
                      [is_live[st.edges.src[s.links]] for s in solves],
                      _kernel_calls(live, solves, bounds, st.sigma.shape[-1], st.gamma.shape[1]))


def _round(st: _Batch, rplan: _RoundPlan, t: int, solves: list[_Solve], covs: np.ndarray,
           hyper: Hyperparams, options: SolverOptions) -> np.ndarray:
    """Advance the (nonempty) live APs of ``rplan`` by round ``t``; returns what they send.

    Selecting the own AP (or drawing a zero combiner weight) degenerates the
    similarity step to the identity: the similarity penalty against oneself
    is identically zero, so the new estimate is the clamped z step and the
    estimators stay untouched.
    """
    n = st.gamma.shape[1]
    src, live, ein, erow = st.edges.src, rplan.live, rplan.ein, rplan.erow
    own_col = rplan.own_col
    b, e, c = len(st.gamma), len(src), len(live)

    g_old = st.gamma[live]
    grad = np.empty_like(g_old)
    for s, sl, rows in rplan.calls:
        grad[sl] = ml_gradient(g_old[sl], s.scenario.pilots, None, covs[rows],
                               cov=st.sigma[rows], kernel=s.kernel)
    # The weights come before the panel, so that their temporaries and the
    # panel are never held at once.
    w = combiner_weights(g_old, st.received[ein], hyper.rho, receivers=erow)
    # Panels zero-padded to the largest inclusive degree, stored (c, K, N)
    # so the row norms reduce over contiguous rows.
    panel = np.zeros((c, st.cdfs.shape[1], n))
    panel[erow, rplan.eslot] = st.received[ein]
    panel[np.arange(c), own_col] = g_old
    z = sparsity_step(g_old, grad, st.x_agg[live], panel.swapaxes(1, 2),
                      hyper.beta, hyper.tau, hyper.eta)

    count = own_col + 1
    sel = np.count_nonzero(rplan.cdfs <= st.draws[live, t - 1, None], axis=1)
    own = sel == own_col
    pick = np.where(own, e + live, st.first[live] + sel)     # index into the weights
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
    for s, sl, rows in rplan.calls:
        st.sigma[rows] = update_covariance(st.sigma[rows], s.scenario.pilots, delta[sl],
                                           s.kernel)
    st.gamma[live] = g_new
    st.t[live] += 1
    st.delta[live] = np.max(np.abs(delta), axis=1, initial=0.0)

    cost = np.full(c, np.nan)
    if options.record_cost:
        for _, sl, rows in rplan.calls:
            cost[sl] = ml_cost_given_factor(cholesky_factor(st.sigma[rows]), covs[rows])
        panel[np.arange(c), own_col] = g_new
        cost += hyper.beta * sparsity_penalty(panel.swapaxes(1, 2), hyper.theta)
        sim = np.abs(g_new[erow] - st.received[ein]).sum(axis=1)
        cost += hyper.tau * np.bincount(erow, w[:len(erow)] * sim, minlength=c)
    selected = live.copy()
    selected[~own] = src[pick[~own]]
    for s, r0, r1 in zip(solves, rplan.bounds[:-1], rplan.bounds[1:]):
        if r1 > r0:
            mine = live[r0:r1]
            s.trace.records.append(dict(
                round=t, ap=mine - s.aps.start, cost=cost[r0:r1],
                selected=selected[r0:r1] - s.aps.start, clamped=st.clamped[mine],
                degenerate=st.degenerate[mine]))
    return g_old if options.lag_transmit else g_new


# One independent solve: a scenario, its per-AP observations and its failure plan.
Problem = tuple[Scenario, list[ApObservation], netsim.FailurePlan | None]


def _check(scenario: Scenario, observations: list[ApObservation], plan: netsim.FailurePlan,
           num_iters: int) -> None:
    """Raise unless the plan and the observations fit the scenario."""
    plan.validate(scenario.neighbors, num_iters)
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


def _setup(problems: list[Problem], num_iters: int) -> tuple[_Batch, list[_Solve]]:
    """The initial batch of all problems, and each problem's part of it."""
    st = _Batch.initial(*(sc for sc, _, _ in problems), num_iters=num_iters)
    aps = np.cumsum([0] + [sc.num_aps for sc, _, _ in problems])
    links = np.searchsorted(st.edges.dst, aps)        # edges are ordered by receiver
    # Modes of one trial share their scenario's pilots, and so the kernel.
    pilots = {id(sc.pilots): sc.pilots for sc, _, _ in problems}
    kernels = {key: pilot_kernel(cols) for key, cols in pilots.items()}
    solves = []
    for (sc, _, plan), a, e0, e1 in zip(problems, aps, links, links[1:]):
        edges = netsim.Backhaul(sc.num_aps, st.edges.src[e0:e1] - a, st.edges.dst[e0:e1] - a,
                                st.edges.send_order[e0:e1] - e0)
        solves.append(_Solve(sc, plan, edges, slice(a, a + sc.num_aps), slice(e0, e1),
                             kernels[id(sc.pilots)], np.random.default_rng(
                                 np.random.SeedSequence([_NETSIM_SALT, sc.seed]))))
    return st, solves


def batch_aps(num_aps: int, pilot_len: int, num_devices: int) -> int:
    """APs that problems sharing one pilot matrix count for in a batched solve's size.

    Their ``num_aps`` APs, plus the pilot table the solve builds for the
    matrix (``linalg.pilot_gram``, 8 L^2 N bytes), counted as the APs whose
    two (L, N) complex arrays take as many bytes: L/4 of them.  32 L N bytes
    is about what a batch holds per AP: at L=24, N=100 (77 KB) its peak RSS
    grew by 75 KB per AP over 20 rounds.
    """
    return num_aps + (-(-pilot_len // 4) if gram_bytes(pilot_len, num_devices) else 0)


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
    fixed scenario seed.  This is :func:`run_batch` of one problem.
    """
    return run_batch([(scenario, observations, plan)], hyper, options)[0]


def run_batch(problems: list[Problem], hyper: Hyperparams,
              options: SolverOptions | None = None) -> list[RunResult]:
    """Solve independent ``(scenario, observations, plan)`` problems together.

    All problems share L and N; each round advances every live AP of every
    running problem in one step.  Each result equals :func:`run` of its
    problem alone, bit for bit: a problem keeps its own streams, plan,
    ledger, trace, early stop and round count.
    """
    if hyper.num_iters < 1:
        raise ConfigMismatch(f"num_iters must be >= 1, got {hyper.num_iters}")
    options = options or SolverOptions()
    problems = [(sc, obs, plan or netsim.EMPTY_PLAN) for sc, obs, plan in problems]
    l, n = problems[0][0].pilot_len, problems[0][0].num_devices
    for scenario, observations, plan in problems:
        if (scenario.pilot_len, scenario.num_devices) != (l, n):
            raise ConfigMismatch(f"batched problems need one (L, N), got {(l, n)} and "
                                 f"{(scenario.pilot_len, scenario.num_devices)}")
        _check(scenario, observations, plan, hyper.num_iters)

    _retain_freed_memory()
    st, solves = _setup(problems, hyper.num_iters)
    covs = np.stack([o.sample_cov for _, observations, _ in problems for o in observations])

    # The live set changes only in a crash round or after an early stop.
    crashes = {r for s in solves for _, r in s.plan.ap_failures}
    rplan = None
    for t in range(1, hyper.num_iters + 1):
        if rplan is None or t in crashes:
            rplan = _round_plan(st, solves, t)
        if rplan.live.size:
            outgoing = _round(st, rplan, t, solves, covs, hyper, options)
        stopped = False
        for s, sent, mine in zip(solves, rplan.sent, rplan.mine):
            if not s.running:
                continue
            delivered = netsim.deliver_round(sent, s.plan, t, s.rng, s.edges, s.ledger, n)
            if delivered.any():
                k = s.links.start + np.flatnonzero(delivered)
                st.received[k] = outgoing[rplan.row[st.edges.src[k]]]
            s.rounds_completed = t
            if options.check_state_every and t % options.check_state_every == 0:
                for state in st.states(s.scenario.neighbors, s.aps.start, s.links.start):
                    if mine[state.ap_id]:
                        verify_state(state, s.scenario)
            if (options.early_stop_tol is not None and mine.any()
                    and st.delta[s.aps][mine].max() < options.early_stop_tol):
                s.running, stopped = False, True
        if stopped:
            rplan = None
        if not any(s.running for s in solves):
            break

    return [RunResult(gamma=st.gamma[s.aps].copy(), trace=s.trace, ledger=s.ledger,
                      states=st.states(s.scenario.neighbors, s.aps.start, s.links.start),
                      rounds_completed=s.rounds_completed) for s in solves]
