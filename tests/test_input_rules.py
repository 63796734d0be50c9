"""One table per input rule of ``topology``: every entry point that reads
a count, a network or a node index through the rule takes the same
values, accepts what the rule accepts and raises its own named error,
naming the field, for the rest.  One more table holds every other
refusal of an entry point, with its whole message; every error the
tables expect is a ``GranusimError``, and every public name has a row."""

import re

import numpy as np
import pytest

import granusim
from granusim.analysis import LogisticVisibilityModel, fit_ratio_linear, variance_shares
from granusim.coordinator import Federation, SyncSchedule, run
from granusim.disruption import (DisruptionEvent, DisruptionStreamConfig, fixed_pattern,
                                 poisson_stream)
from granusim.errors import (DegenerateModel, GranusimError, InvalidEvent, InvalidFactor,
                             InvalidTopology, ScenarioError, ScheduleError)
from granusim.experiment import (FactorLevels, NetworkSpec, ScenarioConfig, run_single,
                                 timing_profile)
from granusim.federate import FederateState
from granusim.metrics import MoPTrace, classify_visibility, compute_spds, compute_sprt
from granusim.topology import (Coupling, InterdependencyMap, NetworkId,
                               generate_interdependencies, generate_topology)
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
    "FactorLevels.tg_levels": (lambda v: FactorLevels((v,), (1,), (1,)), InvalidFactor,
                                "tg_levels"),
    "FactorLevels.rt_levels": (lambda v: FactorLevels((1,), (v,), (1,)), InvalidFactor,
                                "rt_levels"),
    "FactorLevels.ds_levels": (lambda v: FactorLevels((1,), (1,), (v,)), InvalidFactor,
                                "ds_levels"),
    "run_single.rt": (lambda v: run_single(SMALL, 2, v, 8), InvalidFactor, "rt"),
    "run_single.ds": (lambda v: run_single(SMALL, 2, 9, v), InvalidFactor, "ds"),
    "FederateState.lag": (lambda v: FederateState(make_topology([], 3), lag=v), InvalidTopology,
                          "lag"),
    "fixed_pattern": (lambda v: fixed_pattern(v, make_topology([], 3), seed=1), InvalidFactor,
                      "disruption size"),
    "DisruptionStreamConfig.size_range": (
        lambda v: DisruptionStreamConfig(0.1, (v, 2), (1, 2), 10), InvalidEvent, "size_range"),
    "DisruptionStreamConfig.rt_range": (
        lambda v: DisruptionStreamConfig(0.1, (1, 2), (1, v), 10), InvalidEvent, "rt_range"),
    "DisruptionStreamConfig.horizon": (
        lambda v: DisruptionStreamConfig(0.1, (1, 2), (1, 2), v), InvalidEvent, "horizon"),
    "generate_topology.node_count": (
        lambda v: generate_topology(NetworkId.WATER, v, 0, seed=1), InvalidTopology,
        "node_count"),
    "generate_topology.edge_count": (
        lambda v: generate_topology(NetworkId.WATER, 3, v, seed=1), InvalidTopology,
        "edge_count"),
    "generate_interdependencies": (
        lambda v: generate_interdependencies(PAIR, v, seed=1), InvalidTopology,
        "couplings_per_node"),
    "timing_profile.repeats": (lambda v: timing_profile(SMALL, [], 9, 8, repeats=v),
                               InvalidFactor, "repeats"),
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


TRACE = MoPTrace({NetworkId.WATER: np.full(11, 100.0)})
#: Three rows whose spds holds a NaN and whose third tg is 0.
TABLE = {"tg": np.array([1.0, 2.0, 0.0]), "rt": np.array([1.0, 2.0, 3.0]),
         "ds": np.array([1.0, 1.0, 2.0]), "spds": np.array([1.0, np.nan, 2.0]),
         "sprt": np.array([1.0, 2.0, 3.0])}


def _federation():
    return Federation([FederateState(make_topology([], 3))])


def _stepped_federation():
    federation = _federation()
    federation.federates[NetworkId.WATER].step()
    return federation


def _bound_twice():
    federates = [FederateState(make_topology([], 3)),
                 FederateState(make_topology([], 3, NetworkId.POWER))]
    Federation(federates)
    Federation(federates)


STREAM = DisruptionStreamConfig(0.5, (1, 2), (1, 2), 20)

#: (call, its error, its whole message) of every other refusal an entry
#: point makes of what its caller gives it.
REFUSAL_ENTRIES = {
    "FederateState.weights": (
        lambda: FederateState(make_topology([], 3), weights=(0.5, 0.5, 0.5)), InvalidTopology,
        "weights must be finite, nonnegative and sum to 1 as (w_int, w_in, w_ext), "
        "got (0.5, 0.5, 0.5)"),
    "FederateState.topology": (lambda: FederateState("water"), InvalidTopology,
                               "field 'topology': expected Topology, got 'water'"),
    "FederateState.retract_disruption": (
        lambda: FederateState(make_topology([], 3)).retract_disruption([1]), InvalidEvent,
        "retract of nodes that are not disrupted: [1]"),
    # A dict of federates, as a federation took them before, yields its keys.
    "Federation.federates": (
        lambda: Federation({NetworkId.WATER: 3}), InvalidTopology,
        "field 'federates': expected FederateState, got <NetworkId.WATER: 'water'>"),
    "Federation.not_iterable": (
        lambda: Federation(3), InvalidTopology,
        "field 'federates': expected Iterable, got 3"),
    "Federation.no_federate": (
        lambda: Federation([]), InvalidTopology,
        "field 'federates': a federation needs at least one federate"),
    "Federation.network_twice": (
        lambda: Federation([FederateState(make_topology([], 3)),
                            FederateState(make_topology([], 2))]), InvalidTopology,
        "field 'federates': two federates of network 'water'"),
    "Federation.bound_twice": (
        _bound_twice, InvalidTopology,
        "field 'federates': the 'water' federate is bound by another federation; "
        "build fresh federates"),
    "Federation.interdependencies": (
        lambda: Federation(
            [FederateState(make_topology([], 3))],
            InterdependencyMap((Coupling(NetworkId.WATER, 0, NetworkId.POWER, 0),))),
        InvalidTopology,
        "coupling names a network outside the federation: Coupling(consumer_network="
        "<NetworkId.WATER: 'water'>, consumer_node=0, producer_network="
        "<NetworkId.POWER: 'power'>, producer_node=0)"),
    "Topology.intrinsic_performance": (
        lambda: make_topology([], 2, intrinsic=((1.0,), (1.0,))), InvalidTopology,
        "intrinsic performance levels: expected a flat sequence, got ((1.0,), (1.0,))"),
    "InterdependencyMap": (
        lambda: InterdependencyMap(((NetworkId.WATER, 0, NetworkId.POWER),)), InvalidTopology,
        "coupling 0 ('water', 0, 'power'): expected four values (network, node, network, node)"),
    "generate_interdependencies.topologies": (
        lambda: generate_interdependencies([1, 2], 1, seed=1), InvalidTopology,
        "field 'topologies': expected Topology, got 1"),
    # Two topologies of one network made a map of no coupling before.
    "generate_interdependencies.network_twice": (
        lambda: generate_interdependencies([PAIR[0], PAIR[0]], 1, seed=1), InvalidTopology,
        "field 'topologies': two topologies of network 'water'"),
    "fixed_pattern.topology": (lambda: fixed_pattern(1, None, seed=1), InvalidTopology,
                               "field 'topology': expected Topology, got None"),
    "poisson_stream.config": (
        lambda: poisson_stream((0.5, (1, 2), (1, 2), 20), PAIR[0], seed=1), InvalidEvent,
        "field 'config': expected DisruptionStreamConfig, got (0.5, (1, 2), (1, 2), 20)"),
    "poisson_stream.topology": (lambda: poisson_stream(STREAM, "x", seed=1), InvalidTopology,
                                "field 'topology': expected Topology, got 'x'"),
    "FactorLevels.tg_levels": (lambda: FactorLevels(2, (1,), (1,)), InvalidFactor,
                               "tg_levels must be ascending positive integers, got 2"),
    "run": (lambda: run(_stepped_federation(), SyncSchedule(1, 10), []), ScheduleError,
            "federation has already stepped; build a fresh one"),
    "run.federation": (lambda: run(None, SyncSchedule(1, 10), []), InvalidTopology,
                       "field 'federation': expected Federation, got None"),
    "run.schedule": (lambda: run(_federation(), (1, 10), []), ScheduleError,
                     "field 'schedule': expected SyncSchedule, got (1, 10)"),
    "run.events": (lambda: run(_federation(), SyncSchedule(1, 10), None), InvalidEvent,
                   "field 'events': expected Iterable, got None"),
    "run.event": (lambda: run(_federation(), SyncSchedule(1, 10), [(1, 2)]), InvalidEvent,
                  "field 'events': expected DisruptionEvent, got (1, 2)"),
    "compute_spds": (lambda: compute_spds(TRACE, NetworkId.WATER, 11), ScheduleError,
                     "apply_time 11 outside trace [0, 10]"),
    "compute_spds.network": (lambda: compute_spds(TRACE, NetworkId.POWER, 5), ScheduleError,
                             "network 'power' is not in the trace"),
    "compute_spds.unknown_network": (lambda: compute_spds(TRACE, "gas", 5), ScheduleError,
                                     "field 'network': unknown network 'gas'"),
    "compute_spds.apply_time": (lambda: compute_spds(TRACE, NetworkId.WATER, 2.5),
                                ScheduleError, "apply_time must be an integer, got 2.5"),
    "compute_sprt": (lambda: compute_sprt(TRACE, NetworkId.WATER, -1), ScheduleError,
                     "retract_time -1 outside trace [0, 10]"),
    "compute_sprt.trace": (lambda: compute_sprt(None, NetworkId.WATER, 1), ScheduleError,
                           "field 'trace': expected MoPTrace, got None"),
    "compute_sprt.retract_time": (lambda: compute_sprt(TRACE, NetworkId.WATER, True),
                                  ScheduleError, "retract_time must be an integer, got True"),
    "MoPTrace.series": (lambda: MoPTrace([]), ScheduleError,
                        "field 'series': expected dict, got []"),
    "MoPTrace.no_series": (lambda: MoPTrace({}), ScheduleError,
                           "series: expected one or more of one length, got lengths []"),
    "MoPTrace.unequal_series": (
        lambda: MoPTrace({NetworkId.WATER: np.ones(3), NetworkId.POWER: np.ones(2)}),
        ScheduleError, "series: expected one or more of one length, got lengths [2, 3]"),
    "variance_shares": (lambda: variance_shares(TABLE, "spds", ("tg",)), DegenerateModel,
                        "spds holds a value that is not finite"),
    "fit_ratio_linear": (lambda: fit_ratio_linear(TABLE), DegenerateModel,
                         "rt_over_tg holds a value that is not finite"),
    "LogisticVisibilityModel.ratio_at": (
        lambda: LogisticVisibilityModel(0.0, 1.0).ratio_at(1.0), InvalidFactor,
        "probability must be in (0, 1), got 1.0"),
}


@pytest.mark.parametrize("entry", sorted(REFUSAL_ENTRIES))
def test_other_refusals_raise_the_named_error(entry):
    call, error, message = REFUSAL_ENTRIES[entry]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


#: (call, what it gives) of each public name with no refusal of its own:
#: an edge input it takes, and finishes on.
FINISHING_ENTRIES = {
    # Equality with the threshold is not visible.
    "classify_visibility": (lambda: classify_visibility(5.0), False),
    # A size above the node count disrupts every node.
    "poisson_stream": (lambda: {event.nodes for event in poisson_stream(
        DisruptionStreamConfig(0.5, (5, 5), (1, 1), 20), make_topology([], 3), seed=1)},
        {(0, 1, 2)}),
    # Series given out of network order are written in it.
    "MoPTrace": (lambda: MoPTrace({NetworkId.POWER: np.array([100.0]),
                                   NetworkId.WATER: np.array([99.5])}).to_csv(),
                 "t,mop_water,mop_power\n0,99.500000,100.000000\n"),
}


@pytest.mark.parametrize("entry", sorted(FINISHING_ENTRIES))
def test_names_without_a_refusal_finish_on_an_edge_input(entry):
    call, given = FINISHING_ENTRIES[entry]
    assert call() == given


TABLES = (COUNT_ENTRIES, NETWORK_ENTRIES, INDEX_ENTRIES, REFUSAL_ENTRIES, FINISHING_ENTRIES)


def test_every_public_name_has_a_row():
    # ``NetworkId`` is an ``Enum``: its lookup raises ``ValueError``, as
    # every ``Enum``'s does, and each entry point above reads it.
    named = {entry.split(".")[0] for table in TABLES for entry in table}
    assert set(granusim.__all__) - {"NetworkId"} - named == set()


def test_every_expected_error_is_a_granusim_error():
    expected = ({row[1] for row in COUNT_ENTRIES.values()}
                | {row[2] for row in NETWORK_ENTRIES.values()}
                | {row[1] for row in REFUSAL_ENTRIES.values()} | {InvalidEvent})
    assert [error for error in expected if not issubclass(error, GranusimError)] == []
