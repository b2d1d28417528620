"""Solver state machine: initialization, rounds, consistency, determinism."""

import re
from unittest import mock

import numpy as np
import pytest

from coopdetect import linalg, solver
from coopdetect.errors import ConfigMismatch, NotPositiveDefinite, StateConsistencyError
from coopdetect.linalg import pilot_gram
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
        assert st.x_local.shape == st.received.shape == (len(st.edges.src), sc.num_devices)
        assert np.all(st.x_local == 0.0) and np.all(st.received == 0.0)
        # A batch of one joins just its problem's own backhaul.
        for name in ("src", "dst", "send_order"):
            np.testing.assert_array_equal(getattr(solve.edges, name), getattr(st.edges, name))

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
    ], ids=["eta_nan", "theta_zero", "tau_nan", "rho_inf", "beta_negative"])
    def test_bad_hyperparameter_rejected_before_any_round(self, setup, name, value, message):
        sc, covs = setup
        with mock.patch.object(solver, "_round", side_effect=AssertionError("round ran")):
            with pytest.raises(ConfigMismatch, match=re.escape(message)):
                run(sc, covs, Hyperparams(**{name: value}, num_iters=5))

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
