"""Property tests of the batched round on random small scenarios.

Each example draws a topology (up to 8 APs, 12 for the combiner calls, any
degree), a failure plan with crashes, link windows and random drops,
hyperparameters and solver options, then checks the batched solver, on the
pilot-table path and on the complex path, against the per-AP loop in
``reference_loop`` on the complex path, a batch of such problems against
each one solved alone on either path, and the invariants of the round's
parts.
"""

from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdetect import linalg, solver
from coopdetect.netsim import Backhaul, CommLedger, FailurePlan, deliver_round
from coopdetect.objective import Hyperparams, combiner_weights, similarity_prox
from coopdetect.scenario import TopologyConfig, isolated, make_scenario, synthesize
from coopdetect.solver import SolverOptions, run, run_batch, verify_state

import reference_loop

finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def problems(draw, sizes=st.integers(4, 16), pilot_lens=st.integers(2, 6),
             round_counts=st.integers(1, 40), ap_counts=st.integers(1, 8)):
    """(scenario, observations, plan, hyperparameters, options)."""
    b = draw(ap_counts)
    n = draw(sizes)
    rounds = draw(round_counts)
    topo = TopologyConfig(num_aps=b, degree=draw(st.integers(0, b - 1)),
                          layout=draw(st.sampled_from(["grid", "ring"])),
                          seed=draw(st.integers(0, 2**32 - 1)))
    scenario = make_scenario(topo, num_devices=n, num_active=draw(st.integers(1, n - 1)),
                             pilot_len=draw(pilot_lens),
                             num_antennas=draw(st.integers(1, 8)), snr_db=10.0,
                             gain_ref=50.0, pathloss_exponent=3.0)
    edges = [(i, j) for i, nbrs in enumerate(scenario.neighbors) for j in nbrs if i < j]
    window = st.tuples(st.integers(1, rounds), st.integers(1, rounds)).map(sorted)
    links = st.tuples(st.sampled_from(edges), window).map(lambda x: (x[0], *x[1]))
    plan = FailurePlan(
        ap_failures=tuple(draw(st.lists(st.tuples(st.integers(0, b - 1), st.integers(1, rounds)),
                                        max_size=2, unique_by=lambda x: x[0]))),
        link_failures=tuple(draw(st.lists(links, max_size=2))) if edges else (),
        drop_prob=draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
    )
    hyper = Hyperparams(tau=draw(st.sampled_from([0.0, 0.0075, 10.0])),
                        rho=draw(st.sampled_from([0.0, 0.2, 500.0])), num_iters=rounds)
    options = SolverOptions(lag_transmit=draw(st.booleans()),
                            record_cost=draw(st.booleans()))
    return scenario, synthesize(scenario), plan, hyper, options


TRACE = ("cost", "selected", "clamped", "degenerate")


def assert_same_ledger(got, want):
    assert got.attempted == want.attempted
    assert got.delivered == want.delivered
    np.testing.assert_array_equal(got.per_edge, want.per_edge)
    assert got.total_scalars == want.total_scalars


def kernel_path(table: bool) -> ExitStack:
    """The pilot-table path, or the complex path forced by a zero table budget."""
    stack = ExitStack()
    if not table:
        stack.enter_context(mock.patch.object(linalg, "GRAM_BYTES", 0))
    return stack


@given(problems(), st.booleans())
def test_batched_round_matches_the_loop(problem, table):
    # The loop always runs the complex path, with its own covariance update,
    # so the table path is checked against an independent computation.
    scenario, observations, plan, hyper, options = problem
    with kernel_path(table):
        got = run(scenario, observations, hyper, plan=plan, options=options)
    with kernel_path(False):
        want = reference_loop.run(scenario, observations, hyper, plan=plan, options=options)
    scale = max(float(np.abs(want.gamma).max()), 1e-300)
    np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-9, atol=1e-9 * scale)
    assert_same_ledger(got.ledger, want.ledger)
    assert got.rounds_completed == want.rounds_completed
    for name in ("t", "clamped", "degenerate"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.edges.src, want.edges.src)
    np.testing.assert_array_equal(got.edges.dst, want.edges.dst)
    np.testing.assert_allclose(got.received, want.received, rtol=1e-9, atol=1e-9 * scale)
    for name in ("selected", "clamped", "degenerate"):
        np.testing.assert_array_equal(getattr(got.trace, name), getattr(want.trace, name))
    # Each AP's max |delta gamma| per round, NaN exactly where it did not compute.
    np.testing.assert_array_equal(np.isnan(got.trace.delta), got.trace.selected < 0)
    np.testing.assert_allclose(got.trace.delta, want.trace.delta, rtol=1e-9, atol=1e-9 * scale)
    # An AP records a round exactly when it computes, and never after its crash.
    np.testing.assert_array_equal(np.count_nonzero(got.trace.selected >= 0, axis=0), got.t)
    for ap, crash in plan.ap_failures:
        assert np.all(got.trace.selected[crash - 1:, ap] == -1)
    if options.record_cost:
        np.testing.assert_allclose(got.trace.round_costs(), want.trace.round_costs(),
                                   rtol=1e-9)


@given(st.data())
def test_batch_matches_each_problem_alone(data):
    n, l, rounds = data.draw(st.tuples(st.integers(4, 16), st.integers(2, 6),
                                       st.integers(1, 40)))
    drawn = data.draw(st.lists(problems(st.just(n), st.just(l), st.just(rounds)),
                               min_size=1, max_size=4))
    hyper = drawn[0][3]
    options = replace(drawn[0][4],
                      early_stop_tol=data.draw(st.sampled_from([None, 1e-3, 0.05, 1.0])))
    batch = [(scenario, observations, plan) for scenario, observations, plan, _, _ in drawn]
    if data.draw(st.booleans()):
        # The second mode of the first trial: same pilots, so calls shared with it.
        batch.insert(1, (isolated(batch[0][0]), batch[0][1], None))
    table = data.draw(st.booleans())
    with kernel_path(table):
        got = run_batch(batch, hyper, options)
    assert len(got) == len(batch)
    for (scenario, observations, plan), g in zip(batch, got):
        with kernel_path(table):
            want = run(scenario, observations, hyper, plan=plan, options=options)
        np.testing.assert_array_equal(g.gamma, want.gamma)
        assert_same_ledger(g.ledger, want.ledger)
        assert g.rounds_completed == want.rounds_completed
        assert g.edges.num_aps == want.edges.num_aps
        for name in ("src", "dst", "send_order"):
            np.testing.assert_array_equal(getattr(g.edges, name), getattr(want.edges, name))
        for name in ("sigma", "x_agg", "t", "clamped", "degenerate", "delta", "x_local",
                     "received"):
            np.testing.assert_array_equal(getattr(g, name), getattr(want, name))
        for name in TRACE:
            np.testing.assert_array_equal(getattr(g.trace, name), getattr(want.trace, name))


@given(problems())
def test_maintained_covariance_stays_consistent(problem):
    # check_state_every=1 raises StateConsistencyError on any drift mid-run.
    scenario, observations, plan, hyper, options = problem
    result = run(scenario, observations, hyper, plan=plan,
                 options=replace(options, check_state_every=1))
    assert np.all(verify_state(result.sigma, result.gamma, scenario) <= 1e-8)


@settings(max_examples=60)
@given(problems(), st.integers(0, 2**32 - 1))
def test_delivered_plus_dropped_is_attempted(problem, seed):
    scenario, _, plan, hyper, _ = problem
    edges = Backhaul.from_neighbors(scenario.neighbors)
    rng = np.random.default_rng(seed)
    ledger = CommLedger(len(edges.src), 3)
    masks = np.zeros(len(edges.src), dtype=int)
    for rnd in range(1, hyper.num_iters + 1):
        up = rng.random(scenario.num_aps) < 0.8
        delivered = deliver_round(up, plan, rnd, rng, edges, ledger)
        assert not np.any(delivered & ~(up[edges.src] & up[edges.dst]))
        assert ledger.attempted[-1] == np.count_nonzero(up[edges.src])
        assert ledger.delivered[-1] == np.count_nonzero(delivered)
        masks += delivered
    assert len(ledger.attempted) == len(ledger.delivered) == hyper.num_iters
    np.testing.assert_array_equal(ledger.per_edge, masks)
    assert ledger.total_messages + ledger.total_dropped == sum(ledger.attempted)
    assert ledger.total_scalars == 3 * ledger.total_messages


@settings(max_examples=100)
@given(st.integers(1, 6), st.integers(1, 12), st.floats(0.0, 1e4), st.data())
def test_combiner_weights_are_probability_vectors(num_aps, n, rho, data):
    receivers = np.array(data.draw(st.lists(st.integers(0, num_aps - 1), max_size=20)),
                         dtype=int)
    own = np.array(data.draw(st.lists(finite, min_size=num_aps * n, max_size=num_aps * n)))
    nbrs = np.array(data.draw(st.lists(finite, min_size=len(receivers) * n,
                                       max_size=len(receivers) * n)))
    # Each AP's self weight is the remainder of its edges' weights.
    k = np.bincount(receivers, minlength=num_aps)
    edge_w = combiner_weights(own.reshape(num_aps, n)[receivers], nbrs.reshape(-1, n),
                              k[receivers], rho)
    self_w = 1.0 - np.bincount(receivers, edge_w, minlength=num_aps)
    assert np.all(edge_w >= 0.0) and np.all(edge_w <= 1.0 / k[receivers] + 1e-12)
    assert np.all(self_w >= -1e-12)
    totals = self_w + np.bincount(receivers, edge_w, minlength=num_aps)
    np.testing.assert_allclose(totals, 1.0, atol=1e-12)


def check_picked_weights(scenario, observations, plan, hyper, options) -> int:
    """Assert that each round's picked-edge weights are their rows of the all-edge call.

    With cost recording a round calls ``combiner_weights`` twice: over the
    edges its APs picked, then over every edge into a live AP for the cost.
    Returns the number of rounds in which no AP picked a neighbor.
    """
    calls, weights = [], solver.combiner_weights

    def spy(*args, **kwargs):
        calls.append(weights(*args, **kwargs))
        return calls[-1]

    with mock.patch.object(solver, "combiner_weights", spy):
        result = run(scenario, observations, hyper, plan=plan,
                     options=replace(options, record_cost=True))
    sel, src, dst = result.trace.selected, result.edges.src, result.edges.dst
    rounds = np.flatnonzero((sel >= 0).any(axis=1))
    assert len(calls) == 2 * len(rounds)
    empty = 0
    for picked, every, t in zip(calls[::2], calls[1::2], rounds):
        live = sel[t] >= 0
        takers = np.flatnonzero(live & (sel[t] != np.arange(scenario.num_aps)))
        edges = [np.flatnonzero((src == sel[t, a]) & (dst == a))[0] for a in takers]
        rows = np.searchsorted(np.flatnonzero(live[dst]), edges).astype(int)
        assert picked.tobytes() == every[rows].tobytes()
        empty += not takers.size
    return empty


@given(problems(ap_counts=st.integers(1, 12)))
def test_picked_weights_are_their_rows_of_one_call_over_all_edges(problem):
    # A row's distance is reduced alone, so it does not depend on its call's rows.
    scenario, observations, plan, hyper, options = problem
    check_picked_weights(scenario, observations, plan, hyper, options)


def test_rounds_where_every_ap_picks_itself_make_empty_calls():
    def problem(degree):
        topo = TopologyConfig(num_aps=2, degree=degree, layout="ring", seed=5)
        scenario = make_scenario(topo, num_devices=8, num_active=2, pilot_len=4,
                                 num_antennas=4, snr_db=10.0, gain_ref=50.0,
                                 pathloss_exponent=3.0)
        return scenario, synthesize(scenario)

    # Each AP of a 2-AP ring picks itself with probability 1/2 a round.
    empty = check_picked_weights(*problem(1), FailurePlan(ap_failures=((1, 30),)),
                                 Hyperparams(num_iters=40), SolverOptions())
    assert 0 < empty < 40
    assert check_picked_weights(*problem(0), None, Hyperparams(num_iters=5),
                                SolverOptions()) == 5


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 12), st.data())
def test_prox_output_is_never_negative(rows, n, data):
    def block():
        return np.array(data.draw(st.lists(finite, min_size=rows * n,
                                           max_size=rows * n))).reshape(rows, n)

    z, x_sel, anchor = block(), np.clip(block(), -1.0, 1.0), np.abs(block())
    tau_eta = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=rows,
                                          max_size=rows)))[:, None]
    out, clamped = similarity_prox(z, x_sel, anchor, tau_eta)
    assert np.all(out >= 0.0)
    assert clamped.shape == (rows,)
    for r in range(rows):  # each row is the single-AP step
        single, count = similarity_prox(z[r], x_sel[r], anchor[r], float(tau_eta[r, 0]))
        np.testing.assert_array_equal(single, out[r])
        assert count == clamped[r]
