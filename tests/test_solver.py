"""Solver state machine: initialization, rounds, consistency, determinism."""

import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from coopdetect import linalg, solver
from coopdetect.errors import (ConfigMismatch, InvalidConfig, NotPositiveDefinite,
                               StateConsistencyError, UnknownEdge)
from coopdetect.linalg import add_outer_sums, outer_sums, pilot_gram
from coopdetect.netsim import FailurePlan
from coopdetect.objective import Hyperparams, ml_cost
from coopdetect.scenario import TopologyConfig, isolated, make_scenario, synthesize
from coopdetect.solver import SolverOptions, _setup, run, run_batch, verify_state

import reference_loop
from reference_loop import ap_iteration, init_states


def small_scenario(seed=0, num_aps=3, degree=2, num_devices=24, num_active=4,
                   pilot_len=10, num_antennas=8):
    topo = TopologyConfig(num_aps=num_aps, degree=degree, seed=seed)
    return make_scenario(topo, num_devices=num_devices, num_active=num_active,
                         pilot_len=pilot_len, num_antennas=num_antennas,
                         snr_db=10.0, gain_ref=50.0, pathloss_exponent=3.0)


@pytest.fixture(scope="module")
def setup():
    sc = small_scenario()
    return sc, synthesize(sc)


class TestInit:
    def test_zero_start(self, setup):
        sc, covs = setup
        st, (solve,) = _setup([(sc, covs, FailurePlan())], num_iters=1)
        assert np.all(st.gamma == 0.0)
        for sigma in st.sigma:
            np.testing.assert_array_equal(sigma, sc.noise_power * np.eye(sc.pilot_len))
        assert np.all(st.x_agg == 0.0)
        assert st.x_local.shape == st.received.shape == (len(st.src), sc.num_devices)
        assert np.all(st.x_local == 0.0) and np.all(st.received == 0.0)
        # A batch of one joins just its problem's own edges.
        np.testing.assert_array_equal(st.src, solve.edges.src)
        np.testing.assert_array_equal(st.dst, solve.edges.dst)

    def test_one_problem_reads_the_callers_covariances(self, setup):
        sc, covs = setup
        before = covs.copy()
        st, _ = _setup([(sc, covs, FailurePlan())], num_iters=1)
        assert np.shares_memory(st.covs, covs)
        run_batch([(sc, covs, None)], Hyperparams(num_iters=3))
        np.testing.assert_array_equal(covs, before)

    def test_problems_covariances_stack_in_problem_order(self, setup):
        sc, covs = setup
        other = small_scenario(seed=1)
        other_covs = synthesize(other)
        batch = [(other, other_covs, None), (sc, covs, None), (isolated(sc), covs, None)]
        st, _ = _setup(batch, num_iters=1)
        np.testing.assert_array_equal(st.covs, np.concatenate([other_covs, covs, covs]))

    def test_initial_cost_closed_form(self, setup):
        sc, covs = setup
        expected = (sc.pilot_len * np.log(sc.noise_power)
                    + np.real(np.trace(covs[0])) / sc.noise_power)
        got = ml_cost(np.zeros(sc.num_devices), sc.pilots, sc.noise_power,
                      covs[0])
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1, :-1]], ids=["wrong_B", "wrong_L"])
    def test_stack_shape_mismatch(self, setup, cut):
        # The message names the stack's shape and the (num_aps, L, L) expected.
        sc, covs = setup
        message = f"shape {covs[cut].shape}, expected {(sc.num_aps, sc.pilot_len, sc.pilot_len)}"
        with pytest.raises(ConfigMismatch, match=re.escape(message)):
            run(sc, covs[cut], Hyperparams())

    def test_run_requires_at_least_one_round(self, setup):
        sc, covs = setup
        with pytest.raises(ConfigMismatch):
            run(sc, covs, Hyperparams(num_iters=0))

    def test_empty_batch_has_no_results(self):
        assert run_batch([], Hyperparams()) == []


class TestRounds:
    def test_deterministic_rerun_bitwise(self, setup):
        sc, covs = setup
        hyper = Hyperparams(num_iters=6)
        g1 = run(sc, covs, hyper).gamma
        g2 = run(sc, covs, hyper).gamma
        np.testing.assert_array_equal(g1, g2)

    def test_gamma_stays_nonnegative(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=10))
        assert np.all(res.gamma >= 0.0)

    def test_covariance_consistency_every_round(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=8),
                  options=SolverOptions(check_state_every=1))
        gaps = verify_state(res.sigma, res.gamma, sc)
        assert gaps.shape == (sc.num_aps,) and np.all(gaps <= 1e-8)

    def test_verify_state_raises_on_corruption(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=2))
        sigma = res.sigma.copy()
        sigma[0] += 0.5 * np.eye(sc.pilot_len)
        with pytest.raises(StateConsistencyError):
            verify_state(sigma, res.gamma, sc)

    def test_verify_state_names_the_drifted_ap(self):
        sc = small_scenario(seed=4, num_aps=5, degree=2)
        res = run(sc, synthesize(sc), Hyperparams(num_iters=3))
        sigma = res.sigma.copy()
        sigma[3] += 0.5 * np.eye(sc.pilot_len)
        with pytest.raises(StateConsistencyError, match=r"^AP 3: "):
            verify_state(sigma, res.gamma, sc)
        # Checking only some APs still names the AP, not its position among them.
        live = np.array([False, True, False, True, True])
        with pytest.raises(StateConsistencyError, match=r"^AP 3: "):
            verify_state(sigma, res.gamma, sc, live)
        assert verify_state(sigma, res.gamma, sc, ~live).shape == (2,)
        # A covariance gone to NaN has no gap below any tolerance.
        sigma[3] = np.nan
        with pytest.raises(StateConsistencyError, match=r"^AP 3: "):
            verify_state(sigma, res.gamma, sc)

    def test_frozen_combiners_aggregate_identity(self, setup):
        sc, covs = setup
        # rho = 0 holds every weight constant: 1/k per neighbor, 0 for self.
        res = run(sc, covs, Hyperparams(num_iters=12, rho=0.0))
        dst = res.edges.dst
        k = np.bincount(dst, minlength=sc.num_aps)
        recomputed = np.zeros_like(res.x_agg)
        np.add.at(recomputed, dst, res.x_local / k[dst, None])
        np.testing.assert_allclose(res.x_agg, recomputed, atol=1e-10)

    def test_cost_trajectory_improves(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=25),
                  options=SolverOptions(record_cost=True))
        costs = res.trace.round_costs()
        assert costs[-1] < costs[0]

    def test_projected_gradient_monotone_single_ap(self):
        # One AP, no regularizers: rounds reduce to projected gradient descent.
        sc = small_scenario(seed=5, num_aps=1, degree=0)
        covs = synthesize(sc)
        hyper = Hyperparams(tau=0.0, beta=0.0, num_iters=40)
        res = run(sc, covs, hyper, options=SolverOptions(record_cost=True))
        costs = res.trace.round_costs()
        assert np.all(np.diff(costs) <= 1e-6)

    def test_early_stop(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=500),
                  options=SolverOptions(early_stop_tol=1e3))
        assert res.rounds_completed == 1  # absurdly loose tolerance stops at once


class TestMessaging:
    def test_payload_counters_match_graph(self, setup):
        sc, covs = setup
        rounds = 5
        res = run(sc, covs, Hyperparams(num_iters=rounds))
        edges = sum(len(nb) for nb in sc.neighbors)
        assert res.ledger.total_messages == rounds * edges
        assert res.ledger.total_scalars == rounds * edges * sc.num_devices
        assert res.ledger.attempted == res.ledger.delivered == [edges] * rounds
        np.testing.assert_array_equal(res.ledger.per_edge, np.full(edges, rounds))

    def test_counters_invariant_to_antenna_count(self):
        ledgers = []
        for m in (4, 16):
            sc = small_scenario(seed=7, num_antennas=m)
            covs = synthesize(sc)
            res = run(sc, covs, Hyperparams(num_iters=4))
            ledgers.append(res.ledger)
        assert ledgers[0].attempted == ledgers[1].attempted
        assert ledgers[0].delivered == ledgers[1].delivered
        np.testing.assert_array_equal(ledgers[0].per_edge, ledgers[1].per_edge)

    def test_lag_transmit_sends_previous_estimate(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=1),
                  options=SolverOptions(lag_transmit=True))
        # Round 1 transmits the pre-update (all-zero) estimates.
        assert res.received.size and np.all(res.received == 0.0)
        res2 = run(sc, covs, Hyperparams(num_iters=1))
        assert np.any(res2.received != 0.0)

    def test_messages_are_copies(self, setup):
        sc, covs = setup
        res = run(sc, covs, Hyperparams(num_iters=3))
        # Without failures each edge holds its sender's final estimate, in
        # its own buffer.
        np.testing.assert_array_equal(res.received, res.gamma[res.edges.src])
        assert not np.shares_memory(res.received, res.gamma)


class TestFailures:
    def test_crashed_ap_freezes(self, setup):
        sc, covs = setup
        plan = FailurePlan(ap_failures=((1, 3),))
        hyper = Hyperparams(num_iters=6)
        res = run(sc, covs, hyper, plan=plan)
        baseline = run(sc, covs, Hyperparams(num_iters=2)).gamma[1]
        np.testing.assert_array_equal(res.gamma[1], baseline)
        assert list(res.t) == [6, 2, 6]

    def test_crashed_ap_estimate_stays_usable(self, setup):
        sc, covs = setup
        plan = FailurePlan(ap_failures=((1, 3),))
        res = run(sc, covs, Hyperparams(num_iters=6), plan=plan)
        from_1 = res.edges.src == 1
        assert from_1.any()
        for copy in res.received[from_1]:
            np.testing.assert_array_equal(copy, res.gamma[1])

    def test_full_drop_equals_all_links_failed(self, setup):
        sc, covs = setup
        hyper = Hyperparams(num_iters=5)
        full_drop = run(sc, covs, hyper, plan=FailurePlan(drop_prob=1.0))
        edges = tuple(
            ((i, j), 1, hyper.num_iters)
            for i, nb in enumerate(sc.neighbors) for j in nb if i < j
        )
        all_links = run(sc, covs, hyper, plan=FailurePlan(link_failures=edges))
        np.testing.assert_array_equal(full_drop.gamma, all_links.gamma)

    @pytest.mark.parametrize("record_cost", [False, True])
    @pytest.mark.parametrize("num_iters", [1, 5])
    def test_non_finite_sample_covariance_raises(self, setup, record_cost, num_iters):
        sc, covs = setup
        broken = covs.copy()
        broken[1, 2, 0] = np.nan
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            run(sc, broken, Hyperparams(num_iters=num_iters), options=SolverOptions(
                record_cost=record_cost))

    @pytest.mark.parametrize("name, value, message", [
        ("eta", float("nan"), "eta must be positive and finite, got nan"),
        ("theta", 0.0, "theta must be positive and finite, got 0.0"),
        ("tau", float("nan"), "tau must be nonnegative and finite, got nan"),
        ("rho", float("inf"), "rho must be nonnegative and finite, got inf"),
        ("beta", -1.0, "beta must be nonnegative and finite, got -1.0"),
        ("num_iters", 2.5, "num_iters must be an integer, got 2.5"),
        ("num_iters", float("nan"), "num_iters must be an integer, got nan"),
        ("num_iters", True, "num_iters must be an integer, got True"),
    ], ids=["eta_nan", "theta_zero", "tau_nan", "rho_inf", "beta_negative", "iters_fractional",
            "iters_nan", "iters_bool"])
    def test_bad_hyperparameter_rejected_before_any_round(self, setup, name, value, message):
        sc, covs = setup
        with mock.patch.object(solver, "_round", side_effect=AssertionError("round ran")):
            with pytest.raises(ConfigMismatch, match=re.escape(message)):
                run(sc, covs, Hyperparams(**{"num_iters": 5, name: value}))

    @pytest.mark.parametrize("noise_power", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_noise_power_rejected_before_any_round(self, setup, noise_power):
        # Round 1 takes no Cholesky factor, so the check before the solve is
        # what refuses these; no warning escapes on the way.
        sc, covs = setup
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(solver, "_setup", side_effect=AssertionError("set up")):
                with pytest.raises(NotPositiveDefinite,
                                   match="noise power must be positive and finite"):
                    run_batch([(replace(sc, noise_power=noise_power), covs, None)],
                              Hyperparams(num_iters=3))

    def test_string_hyperparameter_is_a_package_error(self, setup):
        sc, covs = setup
        assert Hyperparams(eta="x").problems() == ["eta must be positive and finite, got x"]
        with pytest.raises(ConfigMismatch, match="eta must be positive and finite, got x"):
            run(sc, covs, Hyperparams(eta="x", num_iters=5))

    # A code-built scenario meets the rule its file would (netsim.neighbor_problems).
    def test_repeated_neighbor_rejected(self, setup):
        # The doubled edge 1 -> 0 would carry two messages a round.
        sc, covs = setup
        message = "neighbors of AP 0 must be distinct ids of other APs, got (1, 1)"
        with pytest.raises(UnknownEdge, match=re.escape(message)):
            run(replace(sc, neighbors=((1, 1), (0,), ())), covs, Hyperparams(num_iters=3))

    def test_missing_neighbor_entry_rejected(self, setup):
        # AP 2 would run alone.
        sc, covs = setup
        with pytest.raises(UnknownEdge, match=re.escape("neighbors has 2 entries, expected 3")):
            run(replace(sc, neighbors=((1,), (0,))), covs, Hyperparams(num_iters=3))

    def test_extra_neighbor_entry_rejected_before_any_set_up(self, setup):
        # Joined with the next problem's APs, AP 3 would index past the batch.
        sc, covs = setup
        batch = [(replace(sc, neighbors=((1,), (0,), (3,), (2,))), covs, None), (sc, covs, None)]
        with mock.patch.object(solver, "_setup", side_effect=AssertionError("set up")):
            with pytest.raises(UnknownEdge,
                               match=re.escape("neighbors has 4 entries, expected 3")):
                run_batch(batch, Hyperparams(num_iters=3))

    @pytest.mark.parametrize("seed", [-3, 2.5, True, np.int64(-1)],
                             ids=["negative", "fractional", "bool", "numpy_negative"])
    def test_bad_seed_rejected_before_any_set_up(self, setup, seed):
        sc, covs = setup
        with mock.patch.object(solver, "_setup", side_effect=AssertionError("set up")):
            message = f"seed must be a nonnegative integer, got {seed!r}"
            with pytest.raises(InvalidConfig, match=re.escape(message)):
                run(replace(sc, seed=seed), covs, Hyperparams(num_iters=3))

    def test_plan_validated_against_rounds(self, setup):
        sc, covs = setup
        plan = FailurePlan(ap_failures=((0, 99),))
        with pytest.raises(Exception):
            run(sc, covs, Hyperparams(num_iters=5), plan=plan)


class TestIsolationEquivalences:
    def test_isolated_run_matches_single_ap_iterations(self, setup):
        sc, covs = setup
        iso = isolated(sc)
        hyper = Hyperparams(tau=0.0, num_iters=5)
        full = run(iso, covs, hyper)
        # Drive each AP by hand with no message exchange at all.  The loop's
        # pilot products are per AP, the solver's one per problem, so the
        # last bits may differ.
        states = init_states(iso, covs, hyper)
        for _ in range(5):
            for st in states:
                ap_iteration(st, covs[st.ap_id], iso.pilots, hyper,
                             st.last_received, SolverOptions())
        for st in states:
            np.testing.assert_allclose(st.gamma, full.gamma[st.ap_id], rtol=1e-12)

    def test_isolated_ap_ignores_other_aps_covariances_bitwise(self, setup):
        sc, covs = setup
        iso = isolated(sc)
        hyper = Hyperparams(tau=0.0, num_iters=5)
        full = run(iso, covs, hyper)
        for j in range(iso.num_aps):
            changed = covs.copy()
            changed[j] = 2.0 * covs[j]
            other = run(iso, changed, hyper)
            assert not np.array_equal(other.gamma[j], full.gamma[j])
            for i in set(range(iso.num_aps)) - {j}:
                np.testing.assert_array_equal(other.gamma[i], full.gamma[i])
                np.testing.assert_array_equal(other.sigma[i], full.sigma[i])

    def test_self_selection_is_clamped_z_step(self, setup):
        sc, covs = setup
        iso = isolated(sc)
        hyper = Hyperparams(num_iters=1)
        states = init_states(iso, covs, hyper)
        st = states[0]
        ap_iteration(st, covs[0], iso.pilots, hyper, st.last_received,
                     SolverOptions())
        np.testing.assert_array_equal(st.gamma, np.maximum(st.z, 0.0))
        assert np.all(st.x_local[0] == 0.0)  # self estimator never moves


class TestKernelPath:
    def test_long_pilot_shape_runs_the_complex_path(self):
        # At L=64, N=1000 the pilot table would outgrow its byte budget, so a
        # solve must be bitwise the loop on the complex path.
        sc = small_scenario(seed=3, num_aps=1, degree=0, num_devices=1000, num_active=100,
                            pilot_len=64, num_antennas=8)
        covs = synthesize(sc)
        assert pilot_gram(sc.pilots) is None
        hyper = Hyperparams(num_iters=3)
        got = run(sc, covs, hyper)
        want = reference_loop.run(sc, covs, hyper)
        np.testing.assert_array_equal(got.gamma, want.gamma)
        np.testing.assert_array_equal(got.sigma, want.sigma)

    @pytest.mark.parametrize("table", [True, False])
    def test_cut_calls_keep_each_problem_its_own_bits(self, table):
        # A budget of a few APs cuts the per-matrix chunks across problems and
        # each problem's products at its own positions, around a crashed AP.
        first, second = small_scenario(seed=4, num_aps=5), small_scenario(seed=5, num_aps=5)
        plan = FailurePlan(ap_failures=((1, 3),))
        covs = synthesize(first)
        batch = [(second, synthesize(second), None), (first, covs, plan),
                 (isolated(first), covs, None)]
        l, n = first.pilot_len, first.num_devices
        budget = 72 * l * l if table else 64 * l * n
        hyper = Hyperparams(num_iters=6)
        with mock.patch.object(solver, "CHUNK_BYTES", budget), \
                mock.patch.object(linalg, "GRAM_BYTES", linalg.GRAM_BYTES if table else 0):
            got = run_batch(batch, hyper)
            for (sc, sample_covs, p), g in zip(batch, got):
                want = run(sc, sample_covs, hyper, plan=p)
                np.testing.assert_array_equal(g.gamma, want.gamma)
                np.testing.assert_array_equal(g.sigma, want.sigma)

    @pytest.mark.parametrize("per_product", [5, 2])
    def test_round_readback_is_each_products_update_bitwise(self, per_product):
        # Round 1 starts from zero estimates, so its increments are the new
        # estimates; read back at once, each product's covariances are what
        # its own outer sums, added to the start, give.
        sc = small_scenario(seed=6, num_aps=5)
        l = sc.pilot_len
        with mock.patch.object(solver, "CHUNK_BYTES", 24 * l * l * per_product):
            res = run(sc, synthesize(sc), Hyperparams(num_iters=1))
        start = np.broadcast_to(sc.noise_power * np.eye(l, dtype=complex), (per_product, l, l))
        kernel = linalg.pilot_kernel(sc.pilots)
        for k0 in range(0, sc.num_aps, per_product):
            k1 = min(k0 + per_product, sc.num_aps)
            sums = outer_sums(res.gamma[k0:k1], sc.pilots, kernel)
            want = add_outer_sums(start[:k1 - k0], sums, kernel)
            np.testing.assert_array_equal(res.sigma[k0:k1], want)


class TestSetupOnce:
    def test_one_pilot_kernel_per_pilot_matrix(self):
        # Two trials in two modes: the modes of a trial share its pilots.
        batch = []
        for seed in (1, 2):
            sc = small_scenario(seed=seed)
            covs = synthesize(sc)
            batch += [(sc, covs, None), (isolated(sc), covs, None)]
        with mock.patch.object(linalg, "pilot_gram", wraps=linalg.pilot_gram) as gram:
            run_batch(batch, Hyperparams(num_iters=2))
        assert gram.call_count == 2

    @pytest.mark.parametrize("plan, builds", [(None, 1), (FailurePlan(ap_failures=((1, 5),)), 2)])
    def test_round_plan_built_once_per_live_set(self, setup, plan, builds):
        sc, covs = setup
        with mock.patch.object(solver, "_round_plan", wraps=solver._round_plan) as build:
            res = run(sc, covs, Hyperparams(num_iters=12), plan=plan)
        assert res.rounds_completed == 12
        assert build.call_count == builds

    @pytest.mark.parametrize("down, sliced", [((), True), ((0,), True), ((1,), False),
                                              ((0, 1, 2), False)])
    def test_contiguous_live_rows_are_a_slice(self, setup, down, sliced):
        sc, covs = setup
        plan = FailurePlan(ap_failures=tuple((ap, 1) for ap in down))
        st, solves = _setup([(sc, covs, plan)], num_iters=1)
        rplan = solver._round_plan(st, solves, 1)
        assert isinstance(rplan.rows, slice) == sliced
        np.testing.assert_array_equal(np.arange(sc.num_aps)[rplan.rows], rplan.live)

    def test_round_plan_rebuilt_after_an_early_stop(self, setup):
        # Sample covariances that equal the initial covariance leave every estimate at
        # zero, so that problem stops after round 1 while the other one runs on.
        sc, covs = setup
        still = np.broadcast_to(sc.noise_power * np.eye(sc.pilot_len), covs.shape)
        with mock.patch.object(solver, "_round_plan", wraps=solver._round_plan) as build:
            res = run_batch([(sc, covs, None), (sc, still, None)], Hyperparams(num_iters=12),
                            SolverOptions(early_stop_tol=1e-9))
        assert [r.rounds_completed for r in res] == [12, 1]
        assert build.call_count == 2


class TestCombinerCalls:
    def test_weights_only_for_the_aps_that_pick_a_neighbor(self, setup):
        # Without cost recording, a round's one call gets a row for each live AP
        # that selected a neighbor, and none for self picks or crashed APs.
        sc, covs = setup
        got, weights = [], solver.combiner_weights

        def spy(own, nbrs, *args, **kwargs):
            got.append(len(nbrs))
            return weights(own, nbrs, *args, **kwargs)

        with mock.patch.object(solver, "combiner_weights", spy):
            res = run(sc, covs, Hyperparams(num_iters=12), plan=FailurePlan(ap_failures=((1, 5),)),
                      options=SolverOptions(record_cost=False))
        sel = res.trace.selected
        want = np.count_nonzero((sel >= 0) & (sel != np.arange(sc.num_aps)), axis=1)
        assert got == want.tolist()
        assert 0 < sum(got) < 12 * len(res.edges.src)


class TestStreams:
    def test_stream_objects_do_not_grow_with_aps(self):
        # Each AP's channel, noise and selection streams are SeedSequence
        # children whose states come from one pass; only each problem's drop
        # stream builds a SeedSequence (a spawned child counts as one too).
        made = []

        class Counting(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        def constructions(num_aps):
            sc = small_scenario(seed=2**40 + 9, num_aps=num_aps, degree=4)
            made.clear()
            with mock.patch.object(np.random, "SeedSequence", Counting):
                covs = synthesize(sc)
                run_batch([(sc, covs, None), (isolated(sc), covs, None)], Hyperparams(num_iters=2))
            return len(made)

        assert constructions(64) == constructions(5) == 2

    def test_batch_of_one_two_and_three_word_seeds_is_each_alone(self):
        # The selection entropies [salt, seed, i] are 4 words long below 2**64
        # and 5 above it; each problem's pass hashes its own length.
        scs = [small_scenario(seed=seed, num_aps=5, degree=2)
               for seed in (7, 2**32 - 1, 2**40 + 1, 2**64 + 5)]
        batch = [(sc, synthesize(sc), None) for sc in scs]
        hyper = Hyperparams(num_iters=6)
        st, _ = _setup(batch, hyper.num_iters)
        for k, sc in enumerate(scs):
            for i in range(sc.num_aps):
                want = np.random.default_rng(np.random.SeedSequence(
                    [solver._SELECTION_SALT, sc.seed, i])).random(hyper.num_iters)
                assert st.draws[5 * k + i].tobytes() == want.tobytes()
        for (sc, covs, _), got in zip(batch, run_batch(batch, hyper)):
            want = run(sc, covs, hyper)
            np.testing.assert_array_equal(got.gamma, want.gamma)
            np.testing.assert_array_equal(got.trace.selected, want.trace.selected)
            np.testing.assert_array_equal(got.received, want.received)
