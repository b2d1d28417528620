"""Solver state machine: initialization, rounds, consistency, determinism."""

from unittest import mock

import numpy as np
import pytest

from coopdetect import linalg, solver
from coopdetect.errors import ConfigMismatch, StateConsistencyError
from coopdetect.linalg import pilot_gram
from coopdetect.netsim import FailurePlan
from coopdetect.objective import Hyperparams, ml_cost
from coopdetect.scenario import (
    ApObservation,
    TopologyConfig,
    isolated,
    make_scenario,
    synthesize,
)
from coopdetect.solver import SolverOptions, _Batch, run, run_batch, verify_state

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
        sc, obs = setup
        states = _Batch.initial(sc, num_iters=1).states(sc.neighbors)
        for st in states:
            assert np.all(st.gamma == 0.0)
            np.testing.assert_array_equal(st.sigma,
                                          sc.noise_power * np.eye(sc.pilot_len))
            assert np.all(st.x_agg == 0.0)
            assert all(np.all(v == 0.0) for v in st.x_local.values())
            assert all(np.all(v == 0.0) for v in st.last_received.values())

    def test_initial_cost_closed_form(self, setup):
        sc, obs = setup
        expected = (sc.pilot_len * np.log(sc.noise_power)
                    + np.real(np.trace(obs[0].sample_cov)) / sc.noise_power)
        got = ml_cost(np.zeros(sc.num_devices), sc.pilots, sc.noise_power,
                      obs[0].sample_cov)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_observation_count_mismatch(self, setup):
        sc, obs = setup
        with pytest.raises(ConfigMismatch):
            run(sc, obs[:-1], Hyperparams())

    def test_ap_id_mismatch(self, setup):
        sc, obs = setup
        shuffled = [obs[1], obs[0], obs[2]]
        with pytest.raises(ConfigMismatch):
            run(sc, shuffled, Hyperparams())

    def test_run_requires_at_least_one_round(self, setup):
        sc, obs = setup
        with pytest.raises(ConfigMismatch):
            run(sc, obs, Hyperparams(num_iters=0))


class TestRounds:
    def test_deterministic_rerun_bitwise(self, setup):
        sc, obs = setup
        hyper = Hyperparams(num_iters=6)
        g1 = run(sc, obs, hyper).gamma
        g2 = run(sc, obs, hyper).gamma
        np.testing.assert_array_equal(g1, g2)

    def test_gamma_stays_nonnegative(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=10))
        assert np.all(res.gamma >= 0.0)

    def test_covariance_consistency_every_round(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=8),
                  options=SolverOptions(check_state_every=1))
        for st in res.states:
            assert verify_state(st, sc) <= 1e-8

    def test_verify_state_raises_on_corruption(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=2))
        st = res.states[0]
        st.sigma = st.sigma + 0.5 * np.eye(sc.pilot_len)
        with pytest.raises(StateConsistencyError):
            verify_state(st, sc)

    def test_frozen_combiners_aggregate_identity(self, setup):
        sc, obs = setup
        # rho = 0 holds every weight constant: 1/k per neighbor, 0 for self.
        res = run(sc, obs, Hyperparams(num_iters=12, rho=0.0))
        for st in res.states:
            k = len(st.neighbors)
            recomputed = sum((1.0 / k) * st.x_local[j] for j in st.neighbors)
            np.testing.assert_allclose(st.x_agg, recomputed, atol=1e-10)

    def test_cost_trajectory_improves(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=25),
                  options=SolverOptions(record_cost=True))
        costs = res.trace.round_costs()
        assert costs[-1] < costs[0]

    def test_projected_gradient_monotone_single_ap(self):
        # One AP, no regularizers: rounds reduce to projected gradient descent.
        sc = small_scenario(seed=5, num_aps=1, degree=0)
        obs = synthesize(sc)
        hyper = Hyperparams(tau=0.0, beta=0.0, num_iters=40)
        res = run(sc, obs, hyper, options=SolverOptions(record_cost=True))
        costs = res.trace.round_costs()
        assert np.all(np.diff(costs) <= 1e-6)

    def test_early_stop(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=500),
                  options=SolverOptions(early_stop_tol=1e3))
        assert res.rounds_completed == 1  # absurdly loose tolerance stops at once


class TestMessaging:
    def test_payload_counters_match_graph(self, setup):
        sc, obs = setup
        rounds = 5
        res = run(sc, obs, Hyperparams(num_iters=rounds))
        edges = sum(len(nb) for nb in sc.neighbors)
        assert res.ledger.total_messages == rounds * edges
        assert res.ledger.total_scalars == rounds * edges * sc.num_devices
        for rec in res.ledger.rounds:
            assert rec["scalars_delivered"] == edges * sc.num_devices

    def test_counters_invariant_to_antenna_count(self):
        ledgers = []
        for m in (4, 16):
            sc = small_scenario(seed=7, num_antennas=m)
            obs = synthesize(sc)
            res = run(sc, obs, Hyperparams(num_iters=4))
            ledgers.append(res.ledger.to_dict())
        assert ledgers[0] == ledgers[1]

    def test_lag_transmit_sends_previous_estimate(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=1),
                  options=SolverOptions(lag_transmit=True))
        # Round 1 transmits the pre-update (all-zero) estimates.
        for st in res.states:
            assert all(np.all(v == 0.0) for v in st.last_received.values())
        res2 = run(sc, obs, Hyperparams(num_iters=1))
        assert any(np.any(v != 0.0) for st in res2.states
                   for v in st.last_received.values())

    def test_messages_are_copies(self, setup):
        sc, obs = setup
        res = run(sc, obs, Hyperparams(num_iters=3))
        st0 = res.states[0]
        for j in st0.neighbors:
            # received buffers are distinct objects from the sender's state
            assert res.states[j].gamma is not st0.last_received[j]


class TestFailures:
    def test_crashed_ap_freezes(self, setup):
        sc, obs = setup
        plan = FailurePlan(ap_failures=((1, 3),))
        hyper = Hyperparams(num_iters=6)
        res = run(sc, obs, hyper, plan=plan)
        baseline = run(sc, obs, Hyperparams(num_iters=2)).states[1].gamma
        np.testing.assert_array_equal(res.states[1].gamma, baseline)
        assert res.states[1].t == 2

    def test_crashed_ap_estimate_stays_usable(self, setup):
        sc, obs = setup
        plan = FailurePlan(ap_failures=((1, 3),))
        res = run(sc, obs, Hyperparams(num_iters=6), plan=plan)
        frozen = res.states[1].gamma
        for st in res.states:
            if 1 in st.neighbors:
                np.testing.assert_array_equal(st.last_received[1], frozen)

    def test_full_drop_equals_all_links_failed(self, setup):
        sc, obs = setup
        hyper = Hyperparams(num_iters=5)
        full_drop = run(sc, obs, hyper, plan=FailurePlan(drop_prob=1.0))
        edges = tuple(
            ((i, j), 1, hyper.num_iters)
            for i, nb in enumerate(sc.neighbors) for j in nb if i < j
        )
        all_links = run(sc, obs, hyper, plan=FailurePlan(link_failures=edges))
        np.testing.assert_array_equal(full_drop.gamma, all_links.gamma)

    def test_plan_validated_against_rounds(self, setup):
        sc, obs = setup
        plan = FailurePlan(ap_failures=((0, 99),))
        with pytest.raises(Exception):
            run(sc, obs, Hyperparams(num_iters=5), plan=plan)


class TestIsolationEquivalences:
    def test_isolated_run_equals_independent_single_ap_iterations(self, setup):
        sc, obs = setup
        iso = isolated(sc)
        hyper = Hyperparams(tau=0.0, num_iters=5)
        full = run(iso, obs, hyper)
        # Drive each AP by hand with no message exchange at all.
        states = init_states(iso, obs, hyper)
        for _ in range(5):
            for st in states:
                ap_iteration(st, obs[st.ap_id].sample_cov, iso.pilots, hyper,
                             st.last_received, SolverOptions())
        for st, ref in zip(states, full.states):
            np.testing.assert_array_equal(st.gamma, ref.gamma)

    def test_self_selection_is_clamped_z_step(self, setup):
        sc, obs = setup
        iso = isolated(sc)
        hyper = Hyperparams(num_iters=1)
        states = init_states(iso, obs, hyper)
        st = states[0]
        ap_iteration(st, obs[0].sample_cov, iso.pilots, hyper, st.last_received,
                     SolverOptions())
        np.testing.assert_array_equal(st.gamma, np.maximum(st.z, 0.0))
        assert np.all(st.x_local[0] == 0.0)  # self estimator never moves


class TestKernelPath:
    def test_long_pilot_shape_runs_the_complex_path(self):
        # At L=64, N=1000 the pilot table would outgrow its byte budget, so a
        # solve must be bitwise the loop on the complex path.
        sc = small_scenario(seed=3, num_aps=1, degree=0, num_devices=1000, num_active=100,
                            pilot_len=64, num_antennas=8)
        obs = synthesize(sc)
        assert pilot_gram(sc.pilots) is None
        hyper = Hyperparams(num_iters=3)
        got = run(sc, obs, hyper)
        want = reference_loop.run(sc, obs, hyper)
        np.testing.assert_array_equal(got.gamma, want.gamma)
        np.testing.assert_array_equal(got.states[0].sigma, want.states[0].sigma)


class TestSetupOnce:
    def test_one_pilot_kernel_per_pilot_matrix(self):
        # Two trials in two modes: the modes of a trial share its pilots.
        batch = []
        for seed in (1, 2):
            sc = small_scenario(seed=seed)
            obs = synthesize(sc)
            batch += [(sc, obs, None), (isolated(sc), obs, None)]
        with mock.patch.object(linalg, "pilot_gram", wraps=linalg.pilot_gram) as gram:
            run_batch(batch, Hyperparams(num_iters=2))
        assert gram.call_count == 2

    @pytest.mark.parametrize("plan, builds", [(None, 1), (FailurePlan(ap_failures=((1, 5),)), 2)])
    def test_round_plan_built_once_per_live_set(self, setup, plan, builds):
        sc, obs = setup
        with mock.patch.object(solver, "_round_plan", wraps=solver._round_plan) as build:
            res = run(sc, obs, Hyperparams(num_iters=12), plan=plan)
        assert res.rounds_completed == 12
        assert build.call_count == builds

    def test_round_plan_rebuilt_after_an_early_stop(self, setup):
        # Observations that equal the initial covariance leave every estimate at
        # zero, so that problem stops after round 1 while the other one runs on.
        sc, obs = setup
        still = [ApObservation(o.ap_id, sc.noise_power * np.eye(sc.pilot_len)) for o in obs]
        with mock.patch.object(solver, "_round_plan", wraps=solver._round_plan) as build:
            res = run_batch([(sc, obs, None), (sc, still, None)], Hyperparams(num_iters=12),
                            SolverOptions(early_stop_tol=1e-9))
        assert [r.rounds_completed for r in res] == [12, 1]
        assert build.call_count == 2
