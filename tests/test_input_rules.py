"""One table per input rule of ``topology``: every entry point that reads
a count, a network or a node index through the rule takes the same
values, accepts what the rule accepts and raises its own named error,
naming the field, for the rest."""

import re

import numpy as np
import pytest

from granusim.coordinator import SyncSchedule
from granusim.disruption import DisruptionEvent, DisruptionStreamConfig, fixed_pattern
from granusim.errors import (InvalidEvent, InvalidFactor, InvalidTopology, ScenarioError,
                             ScheduleError)
from granusim.experiment import (FactorLevels, NetworkSpec, ScenarioConfig, run_single,
                                 timing_profile)
from granusim.federate import FederateState
from granusim.topology import NetworkId, generate_interdependencies, generate_topology
from oracles import make_topology

SMALL = ScenarioConfig(horizon=280)

#: What ``_is_positive_int`` and ``_is_index_type`` accept, then what they refuse.
COUNTS_TAKEN = [1, np.int64(1)]
COUNTS_REFUSED = [True, 1.5, "1", None]

PAIR = [make_topology([], 3, NetworkId.WATER), make_topology([], 3, NetworkId.POWER)]

#: (entry point, its error, the name its message gives); each entry
#: point takes the value under test.
COUNT_ENTRIES = {
    "SyncSchedule.tg": (lambda v: SyncSchedule(tg=v, horizon=10), InvalidFactor, "tg"),
    "SyncSchedule.horizon": (lambda v: SyncSchedule(tg=1, horizon=v), ScheduleError, "horizon"),
    "FactorLevels.tg_levels": (lambda v: FactorLevels((v,), (1,), (1,)), ValueError, "tg_levels"),
    "FactorLevels.rt_levels": (lambda v: FactorLevels((1,), (v,), (1,)), ValueError, "rt_levels"),
    "FactorLevels.ds_levels": (lambda v: FactorLevels((1,), (1,), (v,)), ValueError, "ds_levels"),
    "run_single.rt": (lambda v: run_single(SMALL, 2, v, 8), InvalidFactor, "rt"),
    "run_single.ds": (lambda v: run_single(SMALL, 2, 9, v), InvalidFactor, "ds"),
    "FederateState.lag": (lambda v: FederateState(make_topology([], 3), lag=v), ValueError, "lag"),
    "fixed_pattern": (lambda v: fixed_pattern(v, make_topology([], 3), seed=1), ValueError,
                      "disruption size"),
    "DisruptionStreamConfig.size_range": (
        lambda v: DisruptionStreamConfig(0.1, (v, 2), (1, 2), 10), ValueError, "size_range"),
    "DisruptionStreamConfig.rt_range": (
        lambda v: DisruptionStreamConfig(0.1, (1, 2), (1, v), 10), ValueError, "rt_range"),
    "DisruptionStreamConfig.horizon": (
        lambda v: DisruptionStreamConfig(0.1, (1, 2), (1, 2), v), ValueError, "horizon"),
    "generate_topology.node_count": (
        lambda v: generate_topology(NetworkId.WATER, v, 0, seed=1), ValueError, "node_count"),
    "generate_topology.edge_count": (
        lambda v: generate_topology(NetworkId.WATER, 3, v, seed=1), ValueError, "edge_count"),
    "generate_interdependencies": (
        lambda v: generate_interdependencies(PAIR, v, seed=1), ValueError,
        "couplings_per_node"),
    "timing_profile.repeats": (lambda v: timing_profile(SMALL, [], 9, 8, repeats=v), ValueError,
                               "repeats"),
    **{f"ScenarioConfig.{name}": (lambda v, name=name: ScenarioConfig(**{name: v}),
                                  ScenarioError, f"field '{name}'")
       for name in ("master_seed", "horizon", "warmup", "couplings_per_node")},
    "NetworkSpec.nodes": (lambda v: NetworkSpec(NetworkId.WATER, v, 0), ScenarioError,
                          "field 'nodes'"),
    "NetworkSpec.edges": (lambda v: NetworkSpec(NetworkId.WATER, 3, v), ScenarioError,
                          "field 'edges'"),
    "NetworkSpec.lag": (lambda v: NetworkSpec(NetworkId.WATER, 3, 1, lag=v), ScenarioError,
                        "field 'lag'"),
}

#: Each scenario entry point's object, and the field that stores the value.
SCENARIO_FIELDS = {**{f"ScenarioConfig.{name}": name
                      for name in ("master_seed", "horizon", "warmup", "couplings_per_node")},
                   "NetworkSpec.nodes": "node_count", "NetworkSpec.edges": "edge_count",
                   "NetworkSpec.lag": "lag"}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_TAKEN, ids=repr)
def test_counts_the_rule_takes_are_taken(entry, value):
    made = COUNT_ENTRIES[entry][0](value)
    if entry in SCENARIO_FIELDS:
        # Stored as a Python int, which ``ScenarioConfig.to_json`` writes.
        stored = getattr(made, SCENARIO_FIELDS[entry])
        assert type(stored) is int and stored == 1


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_REFUSED, ids=repr)
def test_counts_the_rule_refuses_raise_the_named_error(entry, value):
    build, error, named = COUNT_ENTRIES[entry]
    with pytest.raises(error, match=re.escape(named)) as raised:
        build(value)
    assert repr(value) in str(raised.value)


NETWORKS_TAKEN = [NetworkId.WATER, "water"]
NETWORKS_REFUSED = ["gas", None, ["x"]]

#: (entry point, the network it stores, its error, the field its message names).
NETWORK_ENTRIES = {
    "Topology": (lambda v: make_topology([], 3, v), lambda t: t.network_id,
                 InvalidTopology, "network_id"),
    "generate_topology": (lambda v: generate_topology(v, 3, 2, seed=1), lambda t: t.network_id,
                          InvalidTopology, "network_id"),
    "NetworkSpec": (lambda v: NetworkSpec(v, 3, 2), lambda s: s.network_id, ScenarioError, "id"),
    "ScenarioConfig.origin": (lambda v: ScenarioConfig(origin=v), lambda c: c.origin,
                              ScenarioError, "origin"),
    "ScenarioConfig.target": (lambda v: ScenarioConfig(target=v), lambda c: c.target,
                              ScenarioError, "target"),
    "DisruptionEvent": (lambda v: DisruptionEvent(1, 2, v, (1,)), lambda e: e.network_id,
                        InvalidEvent, "network_id"),
}


@pytest.mark.parametrize("entry", sorted(NETWORK_ENTRIES))
@pytest.mark.parametrize("value", NETWORKS_TAKEN, ids=repr)
def test_networks_the_rule_takes_are_stored_as_members(entry, value):
    build, stored, _, _ = NETWORK_ENTRIES[entry]
    assert stored(build(value)) is NetworkId.WATER


@pytest.mark.parametrize("entry", sorted(NETWORK_ENTRIES))
@pytest.mark.parametrize("value", NETWORKS_REFUSED, ids=repr)
def test_networks_the_rule_refuses_raise_the_named_error(entry, value):
    build, _, error, field = NETWORK_ENTRIES[entry]
    with pytest.raises(error) as raised:
        build(value)
    assert str(raised.value) == f"field '{field}': unknown network {value!r}"


def _disrupted_after(deliver, nodes):
    """The disruption counts of a 3-node federate with node 1 disrupted
    once, after ``deliver`` of ``nodes``; ``InvalidEvent`` passes through
    with the counts checked unchanged."""
    fed = FederateState(make_topology([], 3))
    fed.apply_disruption([1])
    try:
        getattr(fed, deliver)(nodes)
    except InvalidEvent:
        assert fed.disrupted.tolist() == [0, 1, 0]
        raise
    return fed.disrupted.tolist()


INDEX_ENTRIES = {
    "DisruptionEvent": lambda nodes: DisruptionEvent(1, 2, NetworkId.WATER, nodes).nodes,
    "apply_disruption": lambda nodes: _disrupted_after("apply_disruption", nodes),
    "retract_disruption": lambda nodes: _disrupted_after("retract_disruption", nodes),
}
INDEX_TAKEN = {"DisruptionEvent": (1,), "apply_disruption": [0, 2, 0],
               "retract_disruption": [0, 0, 0]}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_TAKEN, ids=repr)
def test_node_indices_the_rule_takes_are_delivered(entry, value):
    assert INDEX_ENTRIES[entry]((value,)) == INDEX_TAKEN[entry]


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_REFUSED, ids=repr)
def test_node_indices_the_rule_refuses_raise_invalid_event(entry, value):
    # Before, a federate cast 1.5, True and '1' to node 1.
    with pytest.raises(InvalidEvent, match="not an integer"):
        INDEX_ENTRIES[entry]((value,))
