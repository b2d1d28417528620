"""Property tests of the input readers: failure plans built in code, and bad documents.

A failure plan has one construction path, whether it is built in code or
read from a document: each example builds a plan from Python or numpy
integers, lists or tuples and either edge orientation, and checks that it
normalizes to what its own document reads back as, that a non-integer AP id
or round is rejected at construction, and that a plan that passes
``validate`` runs through the solver.  Every document reader rejects a
non-object and an unknown key with InvalidConfig naming the reader.
Neighbor sets meet one rule: built topologies pass it and keep their
edges, and each way of breaking them fails a scenario file and a solve
with the same message.
"""

import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coopdetect.errors import CoopDetectError, InvalidConfig, UnknownEdge
from coopdetect.harness import ExperimentConfig
from coopdetect.netsim import Backhaul, FailurePlan, neighbor_problems
from coopdetect.objective import Hyperparams
from coopdetect.scenario import (
    TopologyConfig,
    build_topology,
    make_scenario,
    scenario_from_dict,
    scenario_to_dict,
    synthesize,
)
from coopdetect.solver import SolverOptions, run

SCENARIO = make_scenario(TopologyConfig(num_aps=4, degree=2, seed=3), num_devices=8,
                         num_active=2, pilot_len=3, num_antennas=2, snr_db=10.0, gain_ref=50.0)
COVS = synthesize(SCENARIO)

# An integer as Python or numpy writes it; ids and rounds range past the
# 4-AP scenario and the solves' rounds, so that some plans fail validate.
whole = st.integers(-1, 7).flatmap(lambda v: st.sampled_from([v, np.int64(v), np.int32(v)]))
not_whole = st.sampled_from([1.5, 2.0, np.float64(1.0), "1", None, True, np.True_])


def listed(*parts):
    """A list or a tuple of the drawn parts."""
    return st.tuples(st.sampled_from([list, tuple]), st.tuples(*parts)).map(
        lambda kind_parts: kind_parts[0](kind_parts[1]))


ap_entries = listed(whole, whole)
link_entries = listed(listed(whole, whole), whole, whole)
plans = st.builds(
    FailurePlan,
    ap_failures=st.lists(ap_entries, max_size=3).flatmap(lambda x: listed(*map(st.just, x))),
    link_failures=st.lists(link_entries, max_size=3).flatmap(lambda x: listed(*map(st.just, x))),
    drop_prob=st.sampled_from([0.0, 0, 0.3, np.float64(0.5), 1.0, 1]),
)


@given(plans)
def test_a_plan_built_in_code_equals_its_document_read_back(plan):
    assert FailurePlan.from_dict(plan.to_dict()) == plan
    for ap, rnd in plan.ap_failures:
        assert type(ap) is int and type(rnd) is int
    for (i, j), r0, r1 in plan.link_failures:
        assert i <= j
        assert all(type(x) is int for x in (i, j, r0, r1))
    assert type(plan.drop_prob) is float


@given(st.data(), st.integers(0, 5), not_whole)
def test_a_non_integer_id_or_round_is_rejected_at_construction(data, slot, bad):
    # Slots 0-1 are an AP failure's id and round, 2-3 a link's ids, 4-5 its rounds.
    ap = [data.draw(whole), data.draw(whole)]
    link = [[data.draw(whole), data.draw(whole)], data.draw(whole), data.draw(whole)]
    if slot < 2:
        ap[slot] = bad
    elif slot < 4:
        link[0][slot - 2] = bad
    else:
        link[slot - 3] = bad
    with pytest.raises(InvalidConfig, match="must be an integer"):
        FailurePlan(ap_failures=(ap,), link_failures=(link,))


@given(plans, st.integers(1, 6))
def test_a_plan_that_validates_runs(plan, rounds):
    try:
        plan.validate(SCENARIO.neighbors, rounds)
    except InvalidConfig:
        return
    try:
        result = run(SCENARIO, COVS, Hyperparams(num_iters=rounds), plan=plan,
                     options=SolverOptions(record_cost=False))
    except CoopDetectError:
        return
    assert result.gamma.shape == (SCENARIO.num_aps, SCENARIO.num_devices)


def _scenario_doc():
    return scenario_to_dict(SCENARIO)


# Per reader: how it reads a document, and a document it accepts.
READERS = {
    "config": (ExperimentConfig.from_dict, dict),
    "failure plan": (FailurePlan.from_dict, dict),
    "scenario": (scenario_from_dict, _scenario_doc),
    "topology": (lambda topo: scenario_from_dict({**_scenario_doc(), "topology": topo}),
                 lambda: asdict(SCENARIO.topology)),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_rejects_a_non_object_and_an_unknown_key(reader):
    read, valid = READERS[reader]
    read(valid())
    with pytest.raises(InvalidConfig,
                       match=re.escape(f"a {reader} must be a JSON object, got list")):
        read([valid()])
    with pytest.raises(InvalidConfig, match=re.escape(f"{reader} has unknown keys ['bogus']")):
        read({**valid(), "bogus": 1})


# Grid and ring layouts of 1-12 APs at every degree.
topologies = st.tuples(st.sampled_from(["grid", "ring"]), st.integers(1, 12)).flatmap(
    lambda layout_b: st.builds(TopologyConfig, num_aps=st.just(layout_b[1]),
                               degree=st.integers(0, layout_b[1] - 1),
                               layout=st.just(layout_b[0])))


@given(topologies)
def test_built_topologies_pass_the_neighbor_rule_and_keep_their_edges(topo):
    _, neighbors = build_topology(topo)
    assert neighbor_problems(neighbors, topo.num_aps) == []
    # Edge e carries pairs[e] = (src, dst): the edges into each AP in its
    # neighbor order, and send_order sorts them by (src, dst).
    pairs = [(j, i) for i, nbrs in enumerate(neighbors) for j in nbrs]
    edges = Backhaul.from_neighbors(neighbors)
    assert edges.src.tolist() == [j for j, _ in pairs]
    assert edges.dst.tolist() == [i for _, i in pairs]
    assert edges.send_order.tolist() == sorted(range(len(pairs)), key=pairs.__getitem__)


# Each way of breaking a neighbor set, and what its message says.
BREAKS = {"repeat": "must be distinct ids of other APs", "one_way": "whose neighbors do not list",
          "self_loop": "must be distinct ids of other APs", "cut": "entries, expected",
          "add": "entries, expected", "float_id": "must be distinct ids of other APs"}


@pytest.mark.parametrize("kind", BREAKS)
@given(topo=topologies, data=st.data())
def test_a_broken_neighbor_set_fails_a_file_and_a_solve_alike(kind, topo, data):
    _, built = build_topology(topo)
    neighbors = [list(nbrs) for nbrs in built]
    linked = [i for i, nbrs in enumerate(neighbors) if nbrs]
    assume(linked or kind in ("self_loop", "cut", "add"))
    i = data.draw(st.sampled_from(linked or range(topo.num_aps)))
    if kind in ("repeat", "one_way", "float_id"):
        k = data.draw(st.integers(0, len(neighbors[i]) - 1))
    if kind == "repeat":
        neighbors[i].append(neighbors[i][k])
    elif kind == "one_way":
        neighbors[neighbors[i][k]].remove(i)
    elif kind == "self_loop":
        neighbors[i].append(i)
    elif kind == "cut":
        neighbors.pop()
    elif kind == "add":
        neighbors.append([])
    else:
        neighbors[i][k] = float(neighbors[i][k])
    scenario = make_scenario(topo, num_devices=4, num_active=1, pilot_len=2, num_antennas=1,
                             snr_db=10.0)
    with pytest.raises(InvalidConfig) as from_file:
        scenario_from_dict({**scenario_to_dict(scenario), "neighbors": neighbors})
    with pytest.raises(UnknownEdge) as from_solve:
        run(replace(scenario, neighbors=neighbors), synthesize(scenario),
            Hyperparams(num_iters=1))
    assert BREAKS[kind] in str(from_solve.value)
    assert str(from_file.value) == str(from_solve.value)
