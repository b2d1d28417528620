"""Backhaul delivery, failure injection, and ledger conservation."""

import re
from dataclasses import replace

import numpy as np
import pytest

from coopdetect.errors import InvalidConfig, UnknownEdge
from coopdetect.netsim import Backhaul, CommLedger, FailurePlan, deliver_round
from coopdetect.objective import Hyperparams
from coopdetect.scenario import TopologyConfig, make_scenario, synthesize
from coopdetect.solver import run

import reference_loop

NEIGHBORS = ((1, 2), (0, 2), (0, 1))  # triangle
EDGES = Backhaul.from_neighbors(NEIGHBORS)


def all_up():
    return np.ones(EDGES.num_aps, dtype=bool)


def ledger(payload_size=1):
    return CommLedger(len(EDGES.src), payload_size)


def pairs(mask):
    return {(int(s), int(d)) for s, d in zip(EDGES.src[mask], EDGES.dst[mask])}


class TestBackhaul:
    def test_edges_ordered_by_receiver(self):
        assert list(EDGES.dst) == [0, 0, 1, 1, 2, 2]
        assert list(EDGES.src) == [1, 2, 0, 2, 0, 1]
        ordered = [(EDGES.src[e], EDGES.dst[e]) for e in EDGES.send_order]
        assert ordered == sorted(ordered)

    def test_isolated_aps_have_no_edges(self):
        edges = Backhaul.from_neighbors(((), (), ()))
        assert len(edges.src) == len(edges.dst) == len(edges.send_order) == 0


class TestDelivery:
    def test_no_failures_is_identity(self):
        rng = np.random.default_rng(0)
        led = ledger()
        out = deliver_round(all_up(), FailurePlan(), 1, rng, EDGES, led)
        np.testing.assert_array_equal(out, np.ones(len(EDGES.src), dtype=bool))
        np.testing.assert_array_equal(led.per_edge, np.ones(len(EDGES.src)))
        for ends in (EDGES.src, EDGES.dst):  # sent and received per AP
            np.testing.assert_array_equal(np.bincount(ends, led.per_edge, minlength=3),
                                          [2, 2, 2])

    def test_scalar_count_matches_graph_size(self):
        rng = np.random.default_rng(1)
        n = 7
        led = ledger(payload_size=n)
        deliver_round(all_up(), FailurePlan(), 1, rng, EDGES, led)
        expected = n * sum(len(nb) for nb in NEIGHBORS)
        assert led.total_scalars == expected

    def test_unknown_edge_raises(self):
        # A solve checks its neighbor sets (netsim.neighbor_problems) before set-up.
        sc = make_scenario(TopologyConfig(num_aps=3, degree=2), num_devices=6, num_active=2,
                           pilot_len=3, num_antennas=2, snr_db=10.0)
        covs, hyper = synthesize(sc), Hyperparams(num_iters=1)
        with pytest.raises(UnknownEdge):
            run(replace(sc, neighbors=((0,), (), ())), covs, hyper)        # self-loop
        with pytest.raises(UnknownEdge):
            run(replace(sc, neighbors=((1,), (), ())), covs, hyper)        # one-way link
        with pytest.raises(UnknownEdge):
            run(replace(sc, neighbors=((3,), (), ())), covs, hyper)        # no such AP

    def test_crashed_ap_sends_and_receives_nothing(self):
        # The caller reads the crash schedule; delivery takes the live set.
        rng = np.random.default_rng(3)
        plan = FailurePlan(ap_failures=((1, 2),))
        before = pairs(deliver_round(~plan.aps_down(1, 3), plan, 1, rng, EDGES))
        assert (1, 0) in before and (0, 1) in before
        after = pairs(deliver_round(~plan.aps_down(2, 3), plan, 2, rng, EDGES))
        assert after and all(1 not in edge for edge in after)

    def test_link_failure_window(self):
        plan = FailurePlan(link_failures=(((0, 1), 2, 3),))
        rng = np.random.default_rng(4)
        for rnd, expect in [(1, True), (2, False), (3, False), (4, True)]:
            out = pairs(deliver_round(all_up(), plan, rnd, rng, EDGES))
            assert ((0, 1) in out) is expect
            assert ((1, 0) in out) is expect  # undirected failure

    def test_drop_prob_one_drops_everything(self):
        rng = np.random.default_rng(5)
        out = deliver_round(all_up(), FailurePlan(drop_prob=1.0), 1, rng, EDGES)
        assert not out.any()

    def test_ledger_conservation_under_random_drops(self):
        rng = np.random.default_rng(6)
        led = ledger()
        plan = FailurePlan(drop_prob=0.4)
        delivered = 0
        for rnd in range(1, 20):
            delivered += deliver_round(all_up(), plan, rnd, rng, EDGES, led)
        assert led.attempted == [6] * 19
        assert all(0 <= d <= 6 for d in led.delivered)
        np.testing.assert_array_equal(led.per_edge, delivered)
        assert led.total_messages == led.per_edge.sum() == sum(led.delivered)
        assert 0 < led.total_dropped < 19 * 6
        assert led.total_messages + led.total_dropped == 19 * 6

    def test_zero_drop_consumes_no_randomness(self):
        # A failure-free run must not depend on whether a plan object exists.
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        deliver_round(all_up(), FailurePlan(), 1, rng1, EDGES)
        assert rng1.random() == rng2.random()

    def test_unsent_edges_are_neither_delivered_nor_attempted(self):
        # A down AP sends nothing; what its neighbors send it is attempted
        # but not delivered.
        rng = np.random.default_rng(8)
        led = ledger()
        out = deliver_round(np.array([True, True, False]), FailurePlan(), 1, rng, EDGES, led)
        np.testing.assert_array_equal(out, (EDGES.src != 2) & (EDGES.dst != 2))
        assert led.attempted == [4]
        assert led.delivered == [2]
        np.testing.assert_array_equal(led.per_edge, out)

    def test_drops_match_the_dict_delivery(self):
        # One draw per surviving message in (src, dst) order, as the
        # per-message loop of the reference solver draws them.
        plan = FailurePlan(ap_failures=((2, 3),), link_failures=(((0, 1), 2, 2),),
                           drop_prob=0.5)
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        for rnd in range(1, 6):
            mask = deliver_round(~plan.aps_down(rnd, 3), plan, rnd, rng1, EDGES)
            messages = {(int(s), int(d)): np.zeros(1) for s, d in zip(EDGES.src, EDGES.dst)}
            assert pairs(mask) == set(reference_loop.deliver_round(
                messages, plan, rnd, rng2, NEIGHBORS))

    def test_edgeless_backhaul_builds_no_crash_mask(self, monkeypatch):
        # Isolated APs have nothing to deliver, whatever the plan: every
        # round is recorded empty, and no mask is built and nothing drawn.
        def no_mask(*args):
            raise AssertionError("FailurePlan.aps_down called")

        monkeypatch.setattr(FailurePlan, "aps_down", no_mask)
        edges = Backhaul.from_neighbors(((), (), ()))
        plan = FailurePlan(ap_failures=((1, 1),), link_failures=(), drop_prob=0.5)
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        led = CommLedger(0, 7)
        for rnd in (1, 2):
            out = deliver_round(np.zeros(0, dtype=bool), plan, rnd, rng, edges, led)
            assert out.dtype == bool and out.shape == (0,)
        assert rng.bit_generator.state == state
        assert led.attempted == led.delivered == [0, 0]
        assert led.per_edge.shape == (0,)
        assert led.total_messages == led.total_dropped == led.total_scalars == 0


class TestFailurePlan:
    def test_validation_rejects_bad_ap(self):
        plan = FailurePlan(ap_failures=((9, 1),))
        with pytest.raises(InvalidConfig):
            plan.validate(NEIGHBORS, 10)

    def test_validation_rejects_bad_edge(self):
        plan = FailurePlan(link_failures=(((0, 0), 1, 2),))
        with pytest.raises(InvalidConfig):
            plan.validate(NEIGHBORS, 10)

    def test_validation_rejects_bad_rounds(self):
        plan = FailurePlan(ap_failures=((0, 99),))
        with pytest.raises(InvalidConfig):
            plan.validate(NEIGHBORS, 10)

    def test_drop_prob_bounds(self):
        with pytest.raises(InvalidConfig):
            FailurePlan(drop_prob=-0.1)
        with pytest.raises(InvalidConfig):
            FailurePlan(drop_prob=1.5)

    def test_from_dict_names_unknown_keys(self):
        with pytest.raises(InvalidConfig, match=re.escape(
                "failure plan has unknown keys ['ap_failure', 'drop_probability']")):
            FailurePlan.from_dict({"drop_probability": 0.5, "ap_failure": [[0, 2]]})

    @pytest.mark.parametrize("d, message", [
        ({"ap_failures": [[1.7, 2]]}, "ap_failures AP id must be an integer, got 1.7"),
        ({"ap_failures": [[1, 2.9]]}, "ap_failures round must be an integer, got 2.9"),
        ({"ap_failures": [[True, 2]]}, "ap_failures AP id must be an integer, got True"),
        ({"link_failures": [[[0, 1.0], 2, 3]]}, "link_failures AP id must be an integer, got 1.0"),
        ({"link_failures": [[[0, 1], 2, "3"]]}, "link_failures round must be an integer, got '3'"),
    ], ids=["float_ap", "float_round", "bool_ap", "float_edge", "string_round"])
    def test_from_dict_rejects_non_integer_ids_and_rounds(self, d, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            FailurePlan.from_dict(d)

    def test_from_dict_rejects_a_bool_drop_prob(self):
        with pytest.raises(InvalidConfig, match=re.escape("drop_prob must be a number, got True")):
            FailurePlan.from_dict({"drop_prob": True})

    def test_from_dict_takes_numpy_integers(self):
        plan = FailurePlan.from_dict({"ap_failures": [[np.int64(1), np.int32(2)]],
                                      "drop_prob": np.float64(0.5)})
        assert plan == FailurePlan(ap_failures=((1, 2),), drop_prob=0.5)

    def test_dict_roundtrip(self):
        plan = FailurePlan(ap_failures=((1, 5),),
                           link_failures=(((0, 2), 3, 7),), drop_prob=0.25)
        back = FailurePlan.from_dict(plan.to_dict())
        assert back == plan
