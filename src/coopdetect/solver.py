"""Synchronized multi-AP solver: each round is one batched step over all live APs.

Each round, every live AP takes a likelihood gradient step folded with the
joint-sparsity shrink (the z step), samples one neighbor, shrinks toward
that neighbor's last received estimate, maintains its model covariance,
refreshes its subgradient estimators and hands its new estimate to the
backhaul.  Rounds are bulk-synchronous: all APs compute on previous-round
neighbor data, then all messages are delivered at once.

``run_batch`` solves several independent problems (scenario, covs, failure
plan) of one L and N together, such as the trials and modes of a sweep point;
``run`` is a batch of one.  ``covs`` is the scenario's (num_aps, L, L) stack of
sample covariances, as ``scenario.synthesize`` returns it.  ``_check`` checks
every problem's neighbor sets, then its plan, noise power and covariances,
before any is set up.  The problems' APs, edges and covariances are stacked in
order into one batch, so a round is one step over all of them; a batch of one
holds the caller's covariance array, which the round only reads.

Layout, for B APs, N devices, L pilot symbols and E directed backhaul edges
(two (E,) arrays, sender and receiver, ordered by receiver and
block-diagonal over problems): estimates and combined subgradient
estimators are (B, N), model and sample covariances (B, L, L).  The
estimate last received over each edge and the receiver's subgradient
estimator for that neighbor are edge-indexed (E, N), so memory grows with
the edges, not B^2; an AP's estimator for itself never moves and is not
stored.  Each step calls its objective function once for all live APs,
except the combiner weights, which only the APs that select a neighbor
need: one call over their picked edges.  The trace is four (rounds, B)
arrays of the batch, which each round writes for its live APs.  What is not
shared stays per problem: its failure plan, backhaul, drop stream, ledger,
early stop and round count.  A round reads the batch and its round plan
alone, never a problem.

A round reads what depends only on which APs are live from a round plan
(``_RoundPlan``): the live rows and each AP's position among them, the edges
into live APs with their receivers' positions and panel slots, each live
AP's own column (its in-degree), the live rows of the selection CDFs, each
problem's mask of live APs, which is also what ``netsim.deliver_round``
delivers from, and the chunks and products of the gradient and the
covariance update.  So only the round plan reads the crash schedule.
The live set changes only when a failure plan crashes an AP, in a round
known before the solve, or when a problem stops early, so the plan is built
in round 1 and again only in a crash round and in the round after an early
stop; the in-degrees and first edges, which never change, are kept on the
batch.  The plan lives in one solve and is dropped with it.  When the live
rows are contiguous, as they are until an AP crashes or one problem of a
batch stops before the next, the plan also holds them as one slice, so
that the round reads and writes the batch's per-AP arrays and trace
columns through views and slice assignments instead of gathers and
scatters.  The estimates before the step stay a copy: with
``lag_transmit`` they are sent after ``gamma`` is overwritten.

A problem's :class:`RunResult` is its slices of the batch: its rows of the
per-AP and edge-indexed arrays and its columns of the trace up to its last
round, as views, with its own ``Backhaul``, which maps each of its edges to
(src, dst), and its ledger.  Only ``gamma`` is copied, and ``t`` counted.

Random streams do not depend on the batching.  AP i of a problem pre-draws
its selection uniforms as ``rng.random(num_iters)`` from
``SeedSequence([_SELECTION_SALT, seed, i])`` with its scenario's seed (a
nonnegative integer, or InvalidConfig); comparing the round-t value with
the CDF of its inclusive degree equals the t-th ``rng.choice`` of a per-AP
loop, as a crashed AP never draws again.  An AP without neighbors always
selects itself, so it draws nothing.  The states of those SeedSequences
are derived in one pass over a problem's APs with neighbors
(``scenario.seed_states``), with the values ``default_rng`` gives each.
Drops take one draw per surviving message of a problem, in (src, dst)
order, from that problem's stream.  So each problem's result is bitwise
what it gets solved alone.

The gradient and the covariance update read a problem's pilots through a
kernel built once per solve for each distinct pilot matrix
(``linalg.pilot_kernel``), and through ``linalg``'s operations alone, so the
round runs one sequence whatever the kernel's kind.  Its work splits in two.
The per-matrix work (the Cholesky check, the inverse from its factor and
D = Sigma^-1 - Sigma^-1 S Sigma^-1, the operands the forms read of D, and
the recorded cost) acts matrix by matrix, so its bits do not depend on how
it is cut: it runs in chunks of consecutive live APs, which may span
problems, and whose covariances are row slices of the batch's two stacks.
In round 1 every AP is at its noise-only covariance sigma^2 I, so D takes
the closed form ``objective.noise_gradient_matrix``, with the same bits and
no factor; ``_check`` rejects a noise power the factor would have refused.
The pilot products are not: BLAS picks its kernels and blocking by the row
count, so a row's bits depend on how many rows share its product and where
it sits among them.  So products are per problem, over its live APs in
order, cut only at positions counted from its own first live AP, and carry
that problem's pilots and kernel; a problem's bits are then what it gets
alone, but not what a per-AP loop gets to the last bit.  A product makes one
``linalg.forms`` call for its APs' gradients and one ``linalg.outer_sums``
call for their covariance increments, written into one buffer of the round
that first held D's operands; one ``linalg.add_outer_sums`` then adds every
live AP's increment to its covariance.  That works element by element, so
each covariance gets the bits of its product's own call.  Chunks and
products are cut so that their temporaries stay near ``CHUNK_BYTES``: all B
APs at once would grow peak memory with B (3 MB of temporaries for 64 APs
at L=24 with a table, 5 MB per (L, N) temporary at N=200 without) for
little speed: at that shape one gradient call over 64 APs took 0.95x the
time of four calls over 16.  Each problem's table counts against a batch's
size in APs (:func:`batch_aps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import netsim
from .errors import (ConfigMismatch, InvalidConfig, NotPositiveDefinite, StateConsistencyError,
                     UnknownEdge, is_finite, seed_problems)
from .linalg import (
    add_outer_sums,
    cholesky_factor,
    forms,
    gram_bytes,
    operands,
    outer_sums,
    pilot_kernel,
    row_bytes,
)
from .objective import (
    Hyperparams,
    assemble_covariance,
    combiner_weights,
    gradient_matrix,
    ml_cost_given_factor,
    noise_gradient_matrix,
    similarity_prox,
    sparsity_penalty,
    sparsity_step,
    stochastic_step_size,
    subgradient_aggregate_update,
    subgradient_local_update,
)
from .scenario import Scenario, entropy_rows, seed_words, streams

_SELECTION_SALT = 0x5E1EC7
_NETSIM_SALT = 0xD80B
CHUNK_BYTES = 1 << 20
STATE_RTOL = 1e-8                     # verify_state's largest relative gap


@dataclass
class SolverOptions:
    """Behavior knobs that are not model hyperparameters."""

    lag_transmit: bool = False        # transmit the pre-update estimate instead
    check_state_every: int = 0        # verify covariance consistency every k rounds
    early_stop_tol: float | None = None
    record_cost: bool = True


@dataclass
class IterationTrace:
    """Per-round records: entry (t - 1, i) is what AP i recorded in round t.

    An AP records its cost (NaN unless ``record_cost``), the AP it selected
    (itself included), its clamp and degenerate-step counts so far and the
    largest change of its estimate in the round, max |gamma_new - gamma_old|.
    An AP that did not compute in a round, as it had crashed, records -1
    there (NaN for ``cost`` and ``delta``).
    """

    cost: np.ndarray                  # (rounds, B)
    selected: np.ndarray              # (rounds, B)
    clamped: np.ndarray               # (rounds, B)
    degenerate: np.ndarray            # (rounds, B)
    delta: np.ndarray                 # (rounds, B)

    def __getitem__(self, key) -> "IterationTrace":
        """The records at ``key`` of each array, such as ``trace[:rounds, aps]``."""
        return IterationTrace(self.cost[key], self.selected[key], self.clamped[key],
                              self.degenerate[key], self.delta[key])

    def round_costs(self) -> np.ndarray:
        """Total cost across the APs that computed, per round in which any did."""
        return np.array([float(np.sum(cost[computed]))
                         for cost, computed in zip(self.cost, self.selected >= 0)
                         if computed.any()])


@dataclass
class RunResult:
    """Final estimates plus everything needed to audit the run.

    Per-AP arrays have a row per AP id, edge-indexed ones a row per edge e
    of ``edges``, which carries ``edges.src[e]``'s estimate to
    ``edges.dst[e]``.  All but ``gamma`` and ``t`` are views of the batch's arrays.
    """

    gamma: np.ndarray                 # (B, N) final estimates, row per AP
    trace: IterationTrace
    ledger: netsim.CommLedger
    rounds_completed: int
    edges: netsim.Backhaul            # the problem's directed edges
    sigma: np.ndarray                 # (B, L, L) maintained model covariances
    x_agg: np.ndarray                 # (B, N) combined subgradient estimators
    t: np.ndarray                     # (B,) rounds computed: trace rows with a selection
    clamped: np.ndarray               # (B,) entries clamped to zero
    degenerate: np.ndarray            # (B,) zero-weight similarity steps
    delta: np.ndarray                 # (B,) inf-norm of the last estimate change
    x_local: np.ndarray               # (E, N) receiver's estimator per neighbor
    received: np.ndarray              # (E, N) last estimate over each edge


@dataclass
class _Batch:
    """All APs' iterates and counters as flat arrays (see the module docstring)."""

    src: np.ndarray                   # (E,) each edge's sender
    dst: np.ndarray                   # (E,) each edge's receiver, ascending
    covs: np.ndarray                  # (B, L, L) sample covariances, only read
    degree: np.ndarray                # (B,) neighbors of each AP: its edges in
    first: np.ndarray                 # (B,) each AP's first edge in
    draws: np.ndarray                 # (B, T) pre-drawn selection uniforms, 0 without neighbors
    cdfs: np.ndarray                  # (B, max degree + 1) selection CDFs
    gamma: np.ndarray                 # (B, N)
    sigma: np.ndarray                 # (B, L, L)
    x_agg: np.ndarray                 # (B, N)
    x_local: np.ndarray               # (E, N) receiver's estimator per neighbor
    received: np.ndarray              # (E, N) last estimate over each edge
    clamped: np.ndarray               # (B,)
    degenerate: np.ndarray            # (B,)
    delta: np.ndarray                 # (B,) inf-norm of the last estimate change
    base: np.ndarray                  # (B,) first AP of each AP's problem
    trace: IterationTrace             # (num_iters, B) records


@dataclass
class _Solve:
    """One problem's own part of a batched solve: its rows, plan, stream and ledger."""

    scenario: Scenario
    plan: netsim.FailurePlan
    edges: netsim.Backhaul            # its own edges, local AP ids
    aps: slice                        # its rows of the batch's AP arrays
    links: slice                      # its rows of the batch's edge arrays
    kernel: np.ndarray                # its pilots' linalg.pilot_kernel
    rng: np.random.Generator          # drop stream
    ledger: netsim.CommLedger
    rounds_completed: int = 0
    running: bool = True


@dataclass
class _RoundPlan:
    """What a round reads besides the batch: what depends only on which APs are live."""

    live: np.ndarray                  # (c,) live rows of the batch, ascending
    rows: slice | np.ndarray          # ``live`` as a slice when its rows are contiguous
    row: np.ndarray                   # (B,) each AP's position in ``live``, -1 if not live
    ein: slice | np.ndarray           # edges into live APs
    erow: np.ndarray                  # their receivers' positions in ``live``
    eslot: np.ndarray                 # their slots in the receivers' panels
    own_col: np.ndarray               # (c,) each live AP's own slot: its in-degree
    cdfs: np.ndarray                  # (c, max degree + 1) the live APs' selection CDFs
    mine: list                        # per problem, the mask of its live APs
    chunks: list                      # (live positions, rows) of per-matrix work
    products: list                    # (live positions, pilots, kernel) of pilot products


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


def verify_state(sigma: np.ndarray, gamma: np.ndarray, scenario: Scenario,
                 live: np.ndarray | None = None) -> np.ndarray:
    """Relative Frobenius gaps between maintained and reassembled covariances.

    ``sigma`` (B, L, L) and ``gamma`` (B, N) are a problem's APs; ``live``
    masks the ones to check (all by default).  Returns their gaps, and
    raises StateConsistencyError naming the first AP whose gap exceeds
    ``STATE_RTOL`` or is not a number.
    """
    aps = np.arange(len(gamma)) if live is None else np.flatnonzero(live)
    fresh = assemble_covariance(scenario.pilots, gamma[aps], scenario.noise_power)
    gaps = (np.linalg.norm(sigma[aps] - fresh, axis=(-2, -1))
            / np.linalg.norm(fresh, axis=(-2, -1)))
    drifted = np.flatnonzero(~(gaps <= STATE_RTOL))
    if drifted.size:
        k = drifted[0]
        raise StateConsistencyError(
            f"AP {aps[k]}: maintained covariance drifted (relative gap {gaps[k]:.3e})"
        )
    return gaps


def _spans(starts, stops, step: int) -> list[tuple[int, int]]:
    """Each range [start, stop) cut into pieces of ``step`` positions counted from its start."""
    return [(k, min(k + step, stop)) for start, stop in zip(starts, stops)
            for k in range(start, stop, step)]


def _kernel_calls(live: np.ndarray, solves: list[_Solve], bounds: np.ndarray,
                  l: int) -> tuple[list, list]:
    """The chunks of per-matrix work and the pilot products of a round (module docstring).

    A chunk is (live positions, rows): consecutive live APs, so its rows of
    the batch's two covariance stacks are a slice.  A product is (live
    positions, pilots, kernel) of one problem, cut at positions counted from
    its first live AP.  The steps keep temporaries near ``CHUNK_BYTES``:
    about four (L, L) complex arrays per AP in a chunk, and a kernel's
    ``linalg.row_bytes`` per AP in a product, which sets the GEMMs' row
    counts and so the bits.  The round's buffer and readback hold a few more
    (L, L) arrays per live AP.  ``bounds`` are the problems' first positions
    in ``live``, and its length.
    """
    c = len(live)
    gaps = np.flatnonzero(np.diff(live) != 1) + 1
    chunks = [(slice(k0, k1), slice(live[k0], live[k1 - 1] + 1)) for k0, k1
              in _spans([0, *gaps], [*gaps, c], max(1, CHUNK_BYTES // (64 * l * l)))]
    step = max(1, CHUNK_BYTES // row_bytes(solves[0].kernel))
    products = [(slice(k0, k1), s.scenario.pilots, s.kernel)
                for s, k, stop in zip(solves, bounds, bounds[1:])
                for k0, k1 in _spans([k], [stop], step)]
    return chunks, products


def _round_plan(st: _Batch, solves: list[_Solve], t: int) -> _RoundPlan:
    """The plan of round ``t``: the live APs of the running problems, and what follows."""
    b = len(st.gamma)
    is_live = np.zeros(b, dtype=bool)
    for s in solves:
        if s.running:
            is_live[s.aps] = ~s.plan.aps_down(t, s.scenario.num_aps)
    live = np.flatnonzero(is_live)
    c, dst = len(live), st.dst
    row = np.full(b, -1)
    row[live] = np.arange(c)
    ein = slice(None) if c == b else np.flatnonzero(row[dst] >= 0)     # edges into live APs
    slot = np.arange(len(dst)) - st.first[dst]
    bounds = np.searchsorted(live, [s.aps.start for s in solves] + [b])
    rows = slice(live[0], live[-1] + 1) if c and live[-1] - live[0] == c - 1 else live
    return _RoundPlan(live, rows, row, ein, row[dst[ein]], slot[ein], st.degree[live],
                      st.cdfs[live], [is_live[s.aps] for s in solves],
                      *_kernel_calls(live, solves, bounds, st.sigma.shape[-1]))


def _round(st: _Batch, rplan: _RoundPlan, t: int, hyper: Hyperparams,
           options: SolverOptions) -> np.ndarray:
    """Advance the (nonempty) live APs of ``rplan`` by round ``t``; returns what they send.

    Selecting the own AP (or drawing a zero combiner weight) degenerates the
    similarity step to the identity: the similarity penalty against oneself
    is identically zero, so the new estimate is the clamped z step and the
    estimators stay untouched.  So only the APs that select a neighbor get a
    combiner weight, that of the picked edge; the others get 0.
    """
    src, live, rows, ein, erow = st.src, rplan.live, rplan.rows, rplan.ein, rplan.erow
    own_col, c = rplan.own_col, len(live)

    g_old = st.gamma[live]
    grad = np.empty_like(g_old)
    # D per matrix in chunks, then each problem's forms, one call per product.
    # The problems share (L, N), so their kernels are of one kind.
    # Round 1 starts every AP at sigma^2 I: D in closed form (module docstring).
    kind = rplan.products[0][2]
    d_at = noise_gradient_matrix if t == 1 else gradient_matrix
    buf = np.concatenate([operands(d_at(st.sigma[chunk], st.covs[chunk]), kind)
                          for _, chunk in rplan.chunks])
    for sl, pilots, kernel in rplan.products:
        grad[sl] = forms(buf[sl], pilots, kernel)
    # Panels zero-padded to the largest inclusive degree, stored (c, K, N)
    # so the row norms reduce over contiguous rows.
    panel = np.zeros((c, st.cdfs.shape[1], st.gamma.shape[1]))
    panel[erow, rplan.eslot] = st.received[ein]
    panel[np.arange(c), own_col] = g_old
    z = sparsity_step(g_old, grad, st.x_agg[rows], panel.swapaxes(1, 2),
                      hyper.beta, hyper.tau, hyper.eta)

    sel = (rplan.cdfs <= st.draws[rows, t - 1, None]).sum(axis=1)
    nbr = sel < own_col                             # own_col is the AP itself
    pick = st.first[rows] + sel                     # the picked edge, where nbr
    w_sel = np.zeros(c)
    w_sel[nbr] = combiner_weights(g_old[nbr], st.received[pick[nbr]], own_col[nbr], hyper.rho)
    tau_eta = hyper.tau * stochastic_step_size(w_sel, hyper.eta, 1.0 / (own_col + 1))

    # Identity similarity step (self selected, or a zero weight): clamp z.
    negative = z < 0.0
    g_new = np.where(negative, 0.0, z)
    ident = tau_eta == 0.0
    st.clamped[live[ident]] += negative[ident].sum(axis=1)
    st.degenerate[live[ident & nbr]] += 1
    p = np.flatnonzero(~ident)
    if p.size:
        ep, lp, zp, te = pick[p], live[p], z[p], tau_eta[p, None]
        x_sel = st.x_local[ep]
        g_sel, clamps = similarity_prox(zp, x_sel, st.received[ep], te)
        g_new[p] = g_sel
        st.clamped[lp] += clamps
        x_new = subgradient_local_update(x_sel, zp, g_sel, te)
        # Interior prox solutions land in [-1, 1] on their own; when the
        # positivity clamp binds the raw recursion is unbounded, so project
        # onto the range of valid absolute-value subgradients.
        np.clip(x_new, -1.0, 1.0, out=x_new)
        st.x_agg[lp] = subgradient_aggregate_update(st.x_agg[lp], w_sel[p, None], x_new, x_sel)
        st.x_local[ep] = x_new

    delta = g_new - g_old
    # Each product's increments go into the spent operands, then one readback
    # for all live APs: element by element, so each AP's covariance is what
    # its product's own linalg.add_outer_sums gives it.
    for sl, pilots, kernel in rplan.products:
        outer_sums(delta[sl], pilots, kernel, out=buf[sl])
    st.sigma[rows] = add_outer_sums(st.sigma[rows], buf, kind)
    st.gamma[rows] = g_new
    st.delta[rows] = np.max(np.abs(delta), axis=1, initial=0.0)

    cost = np.full(c, np.nan)
    if options.record_cost:
        for sl, chunk in rplan.chunks:
            cost[sl] = ml_cost_given_factor(cholesky_factor(st.sigma[chunk]), st.covs[chunk])
        panel[np.arange(c), own_col] = g_new
        cost += hyper.beta * sparsity_penalty(panel.swapaxes(1, 2), hyper.theta)
        w = combiner_weights(g_old[erow], st.received[ein], own_col[erow], hyper.rho)
        sim = np.abs(g_new[erow] - st.received[ein]).sum(axis=1)
        cost += hyper.tau * np.bincount(erow, w * sim, minlength=c)
    selected = live.copy()
    selected[nbr] = src[pick[nbr]]
    trace = st.trace
    trace.cost[t - 1, rows] = cost
    trace.selected[t - 1, rows] = selected - st.base[rows]
    trace.clamped[t - 1, rows] = st.clamped[rows]
    trace.degenerate[t - 1, rows] = st.degenerate[rows]
    trace.delta[t - 1, rows] = st.delta[rows]
    return g_old if options.lag_transmit else g_new


# One independent solve: a scenario, its (num_aps, L, L) sample covariances
# (row b is AP b's) and its failure plan.
Problem = tuple[Scenario, np.ndarray, netsim.FailurePlan | None]


def _check(scenario: Scenario, covs: np.ndarray, plan: netsim.FailurePlan,
           num_iters: int) -> None:
    """Before set-up: raise unless the neighbor sets, then seed, plan, noise power and covs fit."""
    bad = netsim.neighbor_problems(scenario.neighbors, scenario.num_aps)
    if bad:
        raise UnknownEdge("; ".join(bad))
    bad = seed_problems({"seed": scenario.seed})
    if bad:
        raise InvalidConfig("; ".join(bad))
    plan.validate(scenario.neighbors, num_iters)
    if not (is_finite(scenario.noise_power) and scenario.noise_power > 0):
        raise NotPositiveDefinite(
            f"noise power must be positive and finite, got {scenario.noise_power!r}")
    want = (scenario.num_aps, scenario.pilot_len, scenario.pilot_len)
    if np.shape(covs) != want:
        raise ConfigMismatch(f"sample covariances have shape {np.shape(covs)}, expected {want}")
    if not np.isfinite(covs).all():
        raise NotPositiveDefinite("sample covariances have non-finite entries")


def _setup(problems: list[Problem], num_iters: int) -> tuple[_Batch, list[_Solve]]:
    """The initial batch of all problems, and each problem's part of it.

    Zero estimates, noise-only covariances and zero estimators.  The
    problems' APs and sample covariances are stacked in turn and their edges
    joined block-diagonally; one problem's covariances are its own array.
    """
    scenarios, stacks, _ = zip(*problems)
    nets = [netsim.Backhaul.from_neighbors(sc.neighbors) for sc in scenarios]
    aps = np.cumsum([0] + [sc.num_aps for sc in scenarios])
    links = np.cumsum([0] + [len(net.src) for net in nets])
    b, e = int(aps[-1]), int(links[-1])
    n, l = scenarios[0].num_devices, scenarios[0].pilot_len
    # Receiver order holds across the join, as each scenario's AP ids follow
    # the previous one's.
    src = np.concatenate([net.src + a for net, a in zip(nets, aps)])
    dst = np.concatenate([net.dst + a for net, a in zip(nets, aps)])
    covs = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    degree = np.bincount(dst, minlength=b)
    # An AP without neighbors always selects itself, whatever it draws.
    draws = np.zeros((b, num_iters))
    for sc, a in zip(scenarios, aps):
        ids = np.flatnonzero(degree[a:a + sc.num_aps])
        if ids.size:
            rngs = streams(entropy_rows([_SELECTION_SALT, *seed_words(sc.seed)], ids))
            for i, rng in zip(ids, rngs):
                rng.random(out=draws[a + i])
    noise = np.repeat([sc.noise_power for sc in scenarios], np.diff(aps))
    sigma = noise[:, None, None] * np.eye(l, dtype=complex)
    unset = np.full((num_iters, b), -1)
    trace = IterationTrace(np.full((num_iters, b), np.nan), unset, unset.copy(), unset.copy(),
                           np.full((num_iters, b), np.nan))
    st = _Batch(src, dst, covs, degree, np.cumsum(degree) - degree, draws, _selection_cdfs(degree),
                np.zeros((b, n)), sigma, np.zeros((b, n)), np.zeros((e, n)), np.zeros((e, n)),
                np.zeros(b, dtype=int), np.zeros(b, dtype=int), np.full(b, np.inf),
                np.repeat(aps[:-1], np.diff(aps)), trace)
    # Modes of one trial share their scenario's pilots, and so the kernel.
    pilots = {id(sc.pilots): sc.pilots for sc in scenarios}
    kernels = {key: pilot_kernel(cols) for key, cols in pilots.items()}
    solves = [_Solve(sc, plan, net, slice(a0, a1), slice(e0, e1), kernels[id(sc.pilots)],
                     np.random.default_rng(np.random.SeedSequence([_NETSIM_SALT, sc.seed])),
                     netsim.CommLedger(len(net.src), n))
              for (sc, _, plan), net, a0, a1, e0, e1
              in zip(problems, nets, aps, aps[1:], links, links[1:])]
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
    covs: np.ndarray,
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
    return run_batch([(scenario, covs, plan)], hyper, options)[0]


def run_batch(problems: list[Problem], hyper: Hyperparams,
              options: SolverOptions | None = None) -> list[RunResult]:
    """Solve independent ``(scenario, covs, plan)`` problems together.

    All problems share L and N; each round advances every live AP of every
    running problem in one step.  Each result equals :func:`run` of its
    problem alone, bit for bit: a problem keeps its own streams, plan,
    ledger, trace, early stop and round count.
    """
    bad = hyper.problems()
    if bad:
        raise ConfigMismatch("; ".join(bad))
    if not problems:
        return []
    options = options or SolverOptions()
    problems = [(sc, np.asarray(covs), plan or netsim.EMPTY_PLAN) for sc, covs, plan in problems]
    l, n = problems[0][0].pilot_len, problems[0][0].num_devices
    for scenario, covs, plan in problems:
        if (scenario.pilot_len, scenario.num_devices) != (l, n):
            raise ConfigMismatch(f"batched problems need one (L, N), got {(l, n)} and "
                                 f"{(scenario.pilot_len, scenario.num_devices)}")
        _check(scenario, covs, plan, hyper.num_iters)

    _retain_freed_memory()
    st, solves = _setup(problems, hyper.num_iters)

    # The live set changes only in a crash round or after an early stop.
    crashes = {r for s in solves for _, r in s.plan.ap_failures}
    rplan = None
    for t in range(1, hyper.num_iters + 1):
        if rplan is None or t in crashes:
            rplan = _round_plan(st, solves, t)
        if rplan.live.size:
            outgoing = _round(st, rplan, t, hyper, options)
        stopped = False
        for s, mine in zip(solves, rplan.mine):
            if not s.running:
                continue
            delivered = netsim.deliver_round(mine, s.plan, t, s.rng, s.edges, s.ledger)
            if delivered.any():
                k = s.links.start + np.flatnonzero(delivered)
                st.received[k] = outgoing[rplan.row[st.src[k]]]
            s.rounds_completed = t
            if options.check_state_every and t % options.check_state_every == 0:
                verify_state(st.sigma[s.aps], st.gamma[s.aps], s.scenario, mine)
            if (options.early_stop_tol is not None and mine.any()
                    and st.delta[s.aps][mine].max() < options.early_stop_tol):
                s.running, stopped = False, True
        if stopped:
            rplan = None
        if not any(s.running for s in solves):
            break

    return [RunResult(gamma=st.gamma[s.aps].copy(), trace=st.trace[:s.rounds_completed, s.aps],
                      ledger=s.ledger, rounds_completed=s.rounds_completed, edges=s.edges,
                      sigma=st.sigma[s.aps], x_agg=st.x_agg[s.aps], clamped=st.clamped[s.aps],
                      t=(st.trace.selected[:s.rounds_completed, s.aps] >= 0).sum(axis=0),
                      degenerate=st.degenerate[s.aps], delta=st.delta[s.aps],
                      x_local=st.x_local[s.links], received=st.received[s.links]) for s in solves]
