"""One table per input rule (the count and node-index rules of ``errors``,
the network rule of ``topology``): every entry point that reads a
count, a network or a node index through the rule takes the same
values, accepts what the rule accepts and raises its own named error,
naming the field, for the rest.  One more table holds every other
refusal of an entry point, with its whole message; every error the
tables expect is a ``GranusimError``, and every public name has a row."""

import csv
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import granusim
from granusim.analysis import (LogisticVisibilityModel, analysis_report, fit_ratio_linear,
                               fit_visibility_logistic, load_results, recommend_tg,
                               variance_shares)
from granusim.coordinator import MAX_HORIZON, Federation, SyncSchedule, run
from granusim.disruption import (DisruptionEvent, DisruptionStreamConfig, fixed_pattern,
                                 poisson_stream)
from granusim.errors import (DegenerateModel, GranusimError, InvalidEvent, InvalidFactor,
                             InvalidTopology, MalformedResults, ScenarioError, ScheduleError,
                             UnknownNode, ZeroBaseline)
from granusim.experiment import (DEFAULT_NETWORKS, RESULTS_HEADER, FactorLevels, NetworkSpec,
                                 ScenarioConfig, build_federation, build_layout, run_experiment,
                                 run_single, timing_profile, wiring)
from granusim.federate import FederateState
from granusim.metrics import MoPTrace, classify_visibility, compute_spds, compute_sprt
from granusim.topology import (MAX_NODES, Coupling, InterdependencyMap, NetworkId, Topology,
                               generate_interdependencies, generate_topology)
from oracles import make_topology

SMALL = ScenarioConfig(horizon=280)

#: What ``_count`` and ``_is_index_type`` accept, then what they refuse.
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
    "run_experiment.jobs": (lambda v: run_experiment(SMALL, [], jobs=v), InvalidFactor, "jobs"),
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
                   "NetworkSpec.nodes": "nodes", "NetworkSpec.edges": "edges",
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
    "NetworkSpec": (lambda v: NetworkSpec(v, 3, 2), lambda s: s.id, ScenarioError, "id"),
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


#: (deliver a node set, what the set of one taken index delivers, each
#: node set of a refused kind with its whole message).
INDEX_ENTRIES = {
    "DisruptionEvent": (lambda nodes: DisruptionEvent(1, 2, NetworkId.WATER, nodes).nodes, (1,),
                        {5: "field 'nodes': expected Iterable, got 5",
                         None: "node set must be non-empty"}),
    "apply_disruption": (lambda nodes: _disrupted_after("apply_disruption", nodes), [0, 2, 0],
                         {5: "field 'nodes': expected Iterable, got 5",
                          None: "field 'nodes': expected Iterable, got None"}),
    "retract_disruption": (lambda nodes: _disrupted_after("retract_disruption", nodes),
                           [0, 0, 0],
                           {5: "field 'nodes': expected Iterable, got 5",
                            None: "field 'nodes': expected Iterable, got None"}),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_TAKEN, ids=repr)
def test_node_indices_the_rule_takes_are_delivered(entry, value):
    deliver, delivered, _ = INDEX_ENTRIES[entry]
    assert deliver((value,)) == delivered


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("value", COUNTS_REFUSED, ids=repr)
def test_node_indices_the_rule_refuses_raise_invalid_event(entry, value):
    # Before, a federate cast 1.5, True and '1' to node 1.
    with pytest.raises(InvalidEvent, match="not an integer"):
        INDEX_ENTRIES[entry][0]((value,))


@pytest.mark.parametrize("entry, nodes", [(entry, nodes) for entry in sorted(INDEX_ENTRIES)
                                          for nodes in INDEX_ENTRIES[entry][2]])
def test_node_sets_of_a_refused_kind_raise_invalid_event(entry, nodes):
    # Before, each of these but an event's None raised a bare TypeError;
    # a federate's counts are checked unchanged (``_disrupted_after``).
    deliver, _, refused = INDEX_ENTRIES[entry]
    with pytest.raises(InvalidEvent) as raised:
        deliver(nodes)
    assert str(raised.value) == refused[nodes]


TRACE = MoPTrace({NetworkId.WATER: np.full(11, 100.0)})
#: Three rows whose spds holds a NaN and whose third tg is 0.
TABLE = {"tg": np.array([1.0, 2.0, 0.0]), "rt": np.array([1.0, 2.0, 3.0]),
         "ds": np.array([1.0, 1.0, 2.0]), "spds": np.array([1.0, np.nan, 2.0]),
         "sprt": np.array([1.0, 2.0, 3.0])}


#: Each model, called on a table.
MODELS = {"variance_shares": lambda table: variance_shares(table, "spds"),
          "fit_visibility_logistic": fit_visibility_logistic,
          "fit_ratio_linear": fit_ratio_linear,
          "analysis_report": analysis_report}
#: A table every model reads, and a column of each kind the models refuse.
MODEL_TABLE = {**TABLE, "visible": [True, False, True]}
COLUMNS_REFUSED = {"strings": ["1", "2", "3"], "two_dimensional": np.ones((3, 1)),
                   "ragged": [[1.0], [2.0, 3.0], [4.0]]}


def _federation():
    return Federation([FederateState(make_topology([], 3))])


def _stepped_federation():
    federation = _federation()
    federation.federates[NetworkId.WATER].step()
    return federation


def _stepped_federate():
    federate = FederateState(make_topology([], 3))
    federate.step()
    return Federation([federate])


def _bound_twice():
    federates = [FederateState(make_topology([], 3)),
                 FederateState(make_topology([], 3, NetworkId.POWER))]
    Federation(federates)
    Federation(federates)


STREAM = DisruptionStreamConfig(0.5, (1, 2), (1, 2), 20)

#: Scenario texts that ``json.loads`` fails on past its syntax errors, and
#: the message of each.
UNREADABLE_SCENARIOS = {
    "deep": ("[" * 100000, "text: nested too deeply to read"),
    "long_integer": ('{"master_seed": ' + "1" * 5000 + "}",
                     f"text: an integer of more than {sys.get_int_max_str_digits()} digits"),
}

#: An ok row of a results file, and the same row with a byte that is not
#: UTF-8 in its pattern_hash field.
OK_ROW = b"0,2,2,8,1.0,,true,false,0.1,,ok\n"
NOT_UTF8_ROW = b"0,2,2,8,1.0,,true,false,0.1,\xff,ok\n"

#: Results files the csv module or the UTF-8 rule fails on, and the end
#: of each message, which the path begins.
UNREADABLE_RESULTS = {
    "field_too_long": (
        f"{RESULTS_HEADER}\n0,{'x' * (csv.field_size_limit() + 1)}\n".encode(),
        f"line 2: field larger than field limit ({csv.field_size_limit()})"),
    "not_utf8": (f"{RESULTS_HEADER}\n".encode() + NOT_UTF8_ROW,
                 "line 2: not utf-8 text (invalid start byte)"),
    # Past the first 8,192 bytes, the chunk a text layer decodes first.
    "not_utf8_on_line_1000": (f"{RESULTS_HEADER}\n".encode() + OK_ROW * 998 + NOT_UTF8_ROW,
                              "line 1000: not utf-8 text (invalid start byte)"),
}

RESULTS_FILE = Path(tempfile.gettempdir()) / f"granusim-input-rules-{os.getpid()}.csv"


def _load_results_of(data: bytes):
    """``load_results`` of ``RESULTS_FILE`` holding ``data``; the file is
    removed after."""
    RESULTS_FILE.write_bytes(data)
    try:
        return load_results(RESULTS_FILE)
    finally:
        RESULTS_FILE.unlink()


#: (call, its error, its whole message) of every other refusal an entry
#: point makes of what its caller gives it.
REFUSAL_ENTRIES = {
    "FederateState.weights": (
        lambda: FederateState(make_topology([], 3), weights=(0.5, 0.5, 0.5)), InvalidTopology,
        "weights: must be finite, nonnegative and sum to 1 as (w_int, w_in, w_ext), "
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
    "Federation.stepped": (
        _stepped_federate, InvalidTopology,
        "field 'federates': the 'water' federate has stepped; build fresh federates"),
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
        "intrinsic performance levels: expected a one-dimensional sequence of real numbers, "
        "got ((1.0,), (1.0,))"),
    "Topology.level_bool": (
        lambda: make_topology([], 2, intrinsic=(1.0, True)), InvalidTopology,
        "intrinsic performance levels: expected a one-dimensional sequence of real numbers, "
        "got (1.0, True)"),
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
                                ScheduleError, "apply_time: must be an integer, got 2.5"),
    "compute_sprt": (lambda: compute_sprt(TRACE, NetworkId.WATER, -1), ScheduleError,
                     "retract_time -1 outside trace [0, 10]"),
    "compute_sprt.trace": (lambda: compute_sprt(None, NetworkId.WATER, 1), ScheduleError,
                           "field 'trace': expected MoPTrace, got None"),
    "compute_sprt.retract_time": (lambda: compute_sprt(TRACE, NetworkId.WATER, True),
                                  ScheduleError, "retract_time: must be an integer, got True"),
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
    # Each row below raised an unnamed error before: an AttributeError,
    # a TypeError, a KeyError or a bare ValueError.
    "Federation.map_kind": (
        lambda: Federation([FederateState(make_topology([], 3))], "x"), InvalidTopology,
        "field 'interdependencies': expected InterdependencyMap, got 'x'"),
    "run_single.config": (lambda: run_single("x", 2, 9, 8), ScenarioError,
                          "field 'config': expected ScenarioConfig, got 'x'"),
    "timing_profile.config": (lambda: timing_profile("x", [2], 9, 8), ScenarioError,
                              "field 'config': expected ScenarioConfig, got 'x'"),
    "timing_profile.tg_list": (lambda: timing_profile(SMALL, 5, 9, 8), InvalidFactor,
                               "field 'tg_list': expected Iterable, got 5"),
    "wiring": (lambda: wiring("x"), ScenarioError,
               "field 'config': expected ScenarioConfig, got 'x'"),
    "build_federation": (lambda: build_federation("x"), ScenarioError,
                         "field 'config': expected ScenarioConfig, got 'x'"),
    "build_layout": (lambda: build_layout("x"), InvalidFactor,
                     "field 'levels': expected FactorLevels, got 'x'"),
    "ScenarioConfig.from_json": (lambda: ScenarioConfig.from_json(123), ScenarioError,
                                 "field 'text': expected str, got 123"),
    # Checked once, not turned into one error row per run.
    "run_experiment.config": (lambda: run_experiment("x", [(2, 9, 8)]), ScenarioError,
                              "field 'config': expected ScenarioConfig, got 'x'"),
    "run_experiment.layout": (lambda: run_experiment(SMALL, [(2, 9)]), InvalidFactor,
                              "field 'layout': expected (tg, rt, ds), got (2, 9)"),
    "run_experiment.layout_item": (lambda: run_experiment(SMALL, [2]), InvalidFactor,
                                   "field 'layout': expected tuple, got 2"),
    # A ``jobs`` of True or 0 ran before, and one of '2' or 1.5 raised a
    # bare TypeError; a ``traces_dir`` of another kind was refused only
    # after every row had run, by a bare TypeError (a str, taken now, too).
    **{f"run_experiment.jobs_{name}": (
        lambda jobs=jobs: run_experiment(SMALL, [(2, 9, 8)], jobs=jobs), InvalidFactor,
        f"jobs: must be a positive integer, got {jobs!r}")
       for name, jobs in (("bool", True), ("str", "2"), ("float", 1.5), ("zero", 0))},
    **{f"run_experiment.traces_dir_{name}": (
        lambda traces_dir=traces_dir: run_experiment(SMALL, [(2, 9, 8)], traces_dir=traces_dir),
        InvalidFactor, f"field 'traces_dir': expected a str or a path, got {traces_dir!r}")
       for name, traces_dir in (("int", 5), ("bytes", b"dir"), ("list", ["dir"]))},
    "analysis_report.column": (lambda: analysis_report({}), DegenerateModel,
                               "table lacks column 'tg'"),
    "analysis_report.table": (lambda: analysis_report(None), DegenerateModel,
                              "field 'table': expected dict, got None"),
    "variance_shares.column": (lambda: variance_shares({}, "y"), DegenerateModel,
                               "table lacks column 'tg'"),
    "variance_shares.response": (lambda: variance_shares(TABLE, "y", ("tg",)), DegenerateModel,
                                 "table lacks column 'y'"),
    "fit_visibility_logistic": (lambda: fit_visibility_logistic(TABLE), DegenerateModel,
                                "table lacks column 'visible'"),
    "fit_ratio_linear.column": (lambda: fit_ratio_linear({}), DegenerateModel,
                                "table lacks column 'tg'"),
    "load_results": (lambda: load_results(None), MalformedResults,
                     "field 'path': expected a str or a path, got None"),
    "recommend_tg.model": (lambda: recommend_tg("x", 22, 0.5), DegenerateModel,
                           "field 'model': expected LogisticVisibilityModel, got 'x'"),
    "recommend_tg.expected_rt": (
        lambda: recommend_tg(LogisticVisibilityModel(-4.4, 5.0), "22", 0.5), InvalidFactor,
        "expected recovery time must be a positive finite number, got 22"),
    "LogisticVisibilityModel.ratio_at_kind": (
        lambda: LogisticVisibilityModel(0.0, 1.0).ratio_at("0.5"), InvalidFactor,
        "probability must be in (0, 1), got 0.5"),
    "classify_visibility": (lambda: classify_visibility("x"), ScheduleError,
                            "spds must be a real number, got 'x'"),
    "MoPTrace.two_dimensional": (
        lambda: MoPTrace({NetworkId.WATER: [[100.0], [99.0]]}), ScheduleError,
        "series 'water': expected a one-dimensional sequence of real numbers, "
        "got [[100.0], [99.0]]"),
    "MoPTrace.strings": (
        lambda: MoPTrace({NetworkId.WATER: ["100.0"]}), ScheduleError,
        "series 'water': expected a one-dimensional sequence of real numbers, got ['100.0']"),
    "MoPTrace.unknown_network": (lambda: MoPTrace({"gas": [100.0]}), ScheduleError,
                                 "field 'series': unknown network 'gas'"),
    # True was read as 1.0 before.
    "MoPTrace.bool": (
        lambda: MoPTrace({NetworkId.WATER: [100.0, True]}), ScheduleError,
        "series 'water': expected a one-dimensional sequence of real numbers, got [100.0, True]"),
    "MoPTrace.int_beyond_64_bits": (
        lambda: MoPTrace({NetworkId.WATER: [2 ** 64]}), ScheduleError,
        "series 'water': expected a one-dimensional sequence of real numbers, "
        "got [18446744073709551616]"),
    "MoPTrace.ragged": (
        lambda: MoPTrace({NetworkId.WATER: [[100.0], [99.0, 98.0]]}), ScheduleError,
        "series 'water': expected a one-dimensional sequence of real numbers, "
        "got [[100.0], [99.0, 98.0]]"),
    # A column that is not a one-dimensional sequence of real numbers
    # raised a bare TypeError or ValueError before, or was read as one.
    **{f"{model}.{name}_column": (
        lambda call=call, column=column: call({**MODEL_TABLE, "tg": column}), DegenerateModel,
        f"column 'tg': expected a one-dimensional sequence of real numbers, got {column!r}")
       for model, call in MODELS.items() for name, column in COLUMNS_REFUSED.items()},
    # An empty list is a sequence of bools, though numpy reads it as floats.
    "analysis_report.no_rows": (
        lambda: analysis_report(dict.fromkeys(("tg", "rt", "ds", "spds", "sprt", "visible"), [])),
        DegenerateModel, "every ok row is censored; sprt has no recovery time to fit"),
    **{f"{model}.visible_kind": (
        lambda call=call: call({**MODEL_TABLE, "visible": [1.0, 0.0, 1.0]}), DegenerateModel,
        "column 'visible': expected a one-dimensional sequence of bools, got [1.0, 0.0, 1.0]")
       for model, call in MODELS.items()
       if model in ("fit_visibility_logistic", "analysis_report")},
    # The rows below reach each ``raise`` that ``tools/traffic.py --tests``
    # listed for this file and ``tests/test_cli.py``; other test files
    # reach them too.
    "Topology.level_kind": (lambda: make_topology([], 2, intrinsic=(1.0, "1")), InvalidTopology,
                            "intrinsic performance levels: expected a one-dimensional sequence "
                            "of real numbers, got (1.0, '1')"),
    "Topology.level_range": (
        lambda: make_topology([], 2, intrinsic=(1.5, 1.0)), InvalidTopology,
        "intrinsic performance levels must lie in [0, 1], got (1.5, 1.0)"),
    "Topology.edge_length": (lambda: make_topology([(0, 1, 2)], 3), InvalidTopology,
                             "edge 0 (0, 1, 2): expected two values (source, target)"),
    "Topology.edge_index": (lambda: make_topology([(0, 1.5)], 3), InvalidTopology,
                            "edge 0 (0, 1.5): node index 1.5 is not an integer"),
    "Topology.edge_range": (lambda: make_topology([(0, 3)], 3), InvalidTopology,
                            "edge (0, 3) is out of range for 3 nodes"),
    "Topology.self_loop": (lambda: make_topology([(1, 1)], 3), InvalidTopology,
                           "edge (1, 1) is a self-loop"),
    "Topology.edge_twice": (lambda: make_topology([(0, 1), (0, 1)], 3), InvalidTopology,
                            "edge (0, 1) appears more than once"),
    "InterdependencyMap.node_index": (
        lambda: InterdependencyMap(((NetworkId.WATER, 0.5, NetworkId.POWER, 1),)),
        InvalidTopology,
        "coupling 0 ('water', 0.5, 'power', 1): node index 0.5 is not an integer"),
    "InterdependencyMap.network": (
        lambda: InterdependencyMap(((NetworkId.WATER, 0, "gas", 1),)), InvalidTopology,
        "coupling 0 ('water', 0, 'gas', 1): unknown network 'gas'"),
    # Each of the two rows below raised a bare TypeError before.
    "Topology.edges": (lambda: Topology(NetworkId.WATER, 5, (1.0,)), InvalidTopology,
                       "field 'edges': expected Iterable, got 5"),
    "InterdependencyMap.couplings": (lambda: InterdependencyMap(5), InvalidTopology,
                                     "field 'couplings': expected Iterable, got 5"),
    # ``random.sample`` raised a bare OverflowError on n(n - 1) pairs past
    # a C ssize_t.
    "generate_topology.node_count_past_pairs": (
        lambda: generate_topology(NetworkId.WATER, 2 ** 32, 0, seed=1), InvalidTopology,
        f"node_count: must be at most {MAX_NODES}, got {2 ** 32}"),
    "NetworkSpec.nodes_past_pairs": (
        lambda: NetworkSpec(NetworkId.WATER, 10 ** 20, 0), ScenarioError,
        f"field 'nodes': must be at most {MAX_NODES}, got {10 ** 20}"),
    "generate_topology.edges_over_pairs": (
        lambda: generate_topology(NetworkId.WATER, 2, 3, seed=1), InvalidTopology,
        "3 edges requested but at most 2 distinct non-loop edges exist for 2 nodes"),
    "generate_interdependencies.one_topology": (
        lambda: generate_interdependencies(PAIR[:1], 1, seed=1), InvalidTopology,
        "need at least two topologies to interconnect"),
    "Federation.producer_node": (
        lambda: Federation(
            [FederateState(make_topology([], 3)),
             FederateState(make_topology([], 3, NetworkId.POWER))],
            InterdependencyMap((Coupling(NetworkId.WATER, 0, NetworkId.POWER, 3),))),
        UnknownNode,
        "producer node out of range: Coupling(consumer_network=<NetworkId.WATER: 'water'>, "
        "consumer_node=0, producer_network=<NetworkId.POWER: 'power'>, producer_node=3)"),
    "run.event_time": (
        lambda: run(_federation(), SyncSchedule(1, 10),
                    [DisruptionEvent(5, 11, NetworkId.WATER, (0,))]), ScheduleError,
        "event at 5/11 outside timesteps 1..10"),
    "run.event_network": (
        lambda: run(_federation(), SyncSchedule(1, 10),
                    [DisruptionEvent(1, 2, NetworkId.POWER, (0,))]), ScheduleError,
        "event at 1 names network 'power' outside the federation"),
    "run.zero_baseline": (
        lambda: run(Federation([FederateState(make_topology([], 2, intrinsic=(0.0, 0.0)))]),
                    SyncSchedule(1, 10), []), ZeroBaseline,
        "water: initial performance sums to zero"),
    "apply_disruption.node_range": (
        lambda: FederateState(make_topology([], 3)).apply_disruption([3]), UnknownNode,
        "node indices [3] out of range for water (3 nodes)"),
    # Each row below raised a bare OverflowError before (from the np.intp
    # cast, or from ``[inf] * horizon``), or numpy's ValueError ("Maximum
    # allowed dimension exceeded").
    "Topology.edge_past_64_bits": (
        lambda: Topology(NetworkId.WATER, ((0, 10 ** 30),), (1.0,) * 3), InvalidTopology,
        f"edge 0 (0, {10 ** 30}): node index {10 ** 30} is outside the 64-bit index range"),
    "Topology.edge_below_64_bits": (
        lambda: make_topology([(-2 ** 63 - 1, 0)], 3), InvalidTopology,
        f"edge 0 ({-2 ** 63 - 1}, 0): node index {-2 ** 63 - 1} is outside the 64-bit "
        "index range"),
    "InterdependencyMap.node_past_64_bits": (
        lambda: InterdependencyMap(((NetworkId.WATER, 10 ** 30, NetworkId.POWER, 0),)),
        InvalidTopology, f"coupling 0 ('water', {10 ** 30}, 'power', 0): node index "
        f"{10 ** 30} is outside the 64-bit index range"),
    "FederateState.check_nodes_past_64_bits": (
        lambda: FederateState(make_topology([], 3)).check_nodes([2 ** 63]), UnknownNode,
        f"node indices [{2 ** 63}] out of range for water (3 nodes)"),
    "retract_disruption.node_past_64_bits": (
        lambda: FederateState(make_topology([], 3)).retract_disruption([-2 ** 70]), UnknownNode,
        f"node indices [{-2 ** 70}] out of range for water (3 nodes)"),
    "run.event_node_past_64_bits": (
        lambda: run(_federation(), SyncSchedule(1, 10),
                    [DisruptionEvent(1, 2, NetworkId.WATER, (2 ** 63,))]), UnknownNode,
        f"node indices ({2 ** 63},) out of range for water (3 nodes)"),
    "SyncSchedule.horizon_past_arrays": (
        lambda: SyncSchedule(2, 10 ** 20), ScheduleError,
        f"horizon: must be at most {MAX_HORIZON}, got {10 ** 20}"),
    # ``poisson_stream`` drew about rate x horizon events before, and did
    # not finish in two minutes.
    "DisruptionStreamConfig.horizon_past_arrays": (
        lambda: poisson_stream(DisruptionStreamConfig(0.5, (1, 2), (1, 2), 10 ** 20),
                               make_topology([], 3), seed=1), InvalidEvent,
        f"horizon: must be at most {MAX_HORIZON}, got {10 ** 20}"),
    "run_single.horizon_past_arrays": (
        lambda: run_single(ScenarioConfig(horizon=10 ** 20), 2, 9, 8), ScenarioError,
        f"field 'horizon': must be at most {MAX_HORIZON}, got {10 ** 20}"),
    "timing_profile.horizon_past_arrays": (
        lambda: timing_profile(ScenarioConfig(horizon=MAX_HORIZON + 1), [2], 9, 8),
        ScenarioError, f"field 'horizon': must be at most {MAX_HORIZON}, got {MAX_HORIZON + 1}"),
    "DisruptionEvent.apply_time": (lambda: DisruptionEvent(1.5, 2, NetworkId.WATER, (1,)),
                                   InvalidEvent, "apply_time: must be an integer, got 1.5"),
    "DisruptionEvent.retract_time": (lambda: DisruptionEvent(2, 2, NetworkId.WATER, (1,)),
                                     InvalidEvent, "retract_time 2 must exceed apply_time 2"),
    "DisruptionEvent.node_twice": (lambda: DisruptionEvent(1, 2, NetworkId.WATER, [1, 1]),
                                   InvalidEvent, "node set has duplicates: [1, 1]"),
    "DisruptionEvent.negative_node": (lambda: DisruptionEvent(1, 2, NetworkId.WATER, (-1,)),
                                      InvalidEvent, "negative node index in (-1,)"),
    "DisruptionStreamConfig.rate": (
        lambda: DisruptionStreamConfig(0.0, (1, 2), (1, 2), 10), InvalidEvent,
        "rate: must be a finite positive number, got 0.0"),
    "DisruptionStreamConfig.range_order": (
        lambda: DisruptionStreamConfig(0.5, (2, 1), (1, 2), 10), InvalidEvent,
        "size_range: must be positive integers (low, high), got (2, 1)"),
    "ScenarioConfig.minimum": (lambda: ScenarioConfig(horizon=0), ScenarioError,
                               "field 'horizon': must be a positive integer, got 0"),
    "ScenarioConfig.align_sync": (lambda: ScenarioConfig(align_sync=1), ScenarioError,
                                  "field 'align_sync': expected a bool, got 1"),
    "ScenarioConfig.networks": (lambda: ScenarioConfig(networks=(1,)), ScenarioError,
                                "field 'networks': expected a tuple of NetworkSpec, got (1,)"),
    "ScenarioConfig.one_network": (
        lambda: ScenarioConfig(networks=DEFAULT_NETWORKS[:1]), ScenarioError,
        "field 'networks': need at least two networks to interconnect, got 1"),
    "ScenarioConfig.network_twice": (
        lambda: ScenarioConfig(networks=DEFAULT_NETWORKS[:1] * 2), ScenarioError,
        "field 'networks': duplicate network ids"),
    "ScenarioConfig.origin_unconfigured": (
        lambda: ScenarioConfig(networks=DEFAULT_NETWORKS[1:]), ScenarioError,
        "field 'origin'/'target': must name configured networks"),
    "ScenarioConfig.from_json_syntax": (lambda: ScenarioConfig.from_json("{"), ScenarioError,
                                        "line 1: Expecting property name enclosed in double "
                                        "quotes"),
    "ScenarioConfig.from_json_top_level": (lambda: ScenarioConfig.from_json("[]"),
                                           ScenarioError, "top level: expected an object"),
    "ScenarioConfig.from_json_key": (lambda: ScenarioConfig.from_json('{"x": 1}'),
                                     ScenarioError, "field 'x': unknown"),
    "ScenarioConfig.from_json_networks": (lambda: ScenarioConfig.from_json('{"networks": 1}'),
                                          ScenarioError, "field 'networks': expected a list"),
    "ScenarioConfig.from_json_network": (
        lambda: ScenarioConfig.from_json('{"networks": [1]}'), ScenarioError,
        "field 'networks[0]': expected an object"),
    "ScenarioConfig.from_json_network_key": (
        lambda: ScenarioConfig.from_json('{"networks": [{"id": "water"}]}'), ScenarioError,
        "field 'networks[0]': field 'nodes': missing"),
    "run_single.horizon": (lambda: run_single(ScenarioConfig(horizon=100), 2, 9, 8),
                           ScenarioError, "horizon 100 below onset 51 + rt 9 + headroom 200"),
    "variance_shares.rank": (
        lambda: variance_shares({"tg": np.ones(3), "y": np.arange(3.0)}, "y", ("tg",)),
        DegenerateModel, "design matrix rank-deficient after adding tg"),
    "variance_shares.no_rows": (
        lambda: variance_shares({"tg": np.ones(0), "y": np.ones(0)}, "y", ("tg",)),
        DegenerateModel, "response 'y' has no rows"),
    "variance_shares.zero_variance": (
        lambda: variance_shares({"tg": np.arange(3.0), "y": np.ones(3)}, "y", ("tg",)),
        DegenerateModel, "response 'y' has zero variance"),
    "fit_visibility_logistic.one_label": (
        lambda: fit_visibility_logistic({"tg": np.ones(2), "rt": np.arange(2.0),
                                         "visible": np.ones(2, bool)}),
        DegenerateModel, "all rows share one visibility label"),
    "fit_visibility_logistic.one_ratio": (
        lambda: fit_visibility_logistic({"tg": np.ones(2), "rt": np.ones(2),
                                         "visible": np.array([True, False])}),
        DegenerateModel, "all rows share one rt/tg ratio"),
    "LogisticVisibilityModel.zero_slope": (
        lambda: LogisticVisibilityModel(0.0, 0.0).ratio_at(0.5), DegenerateModel,
        "zero slope; ratio is uninformative"),
    "recommend_tg.slope": (lambda: recommend_tg(LogisticVisibilityModel(1.0, -2.0), 22, 0.5),
                           DegenerateModel, "visibility must increase with the ratio"),
    "recommend_tg.any_granularity": (
        lambda: recommend_tg(LogisticVisibilityModel(1.0, 2.0), 22, 0.5), DegenerateModel,
        "target likelihood 0.5 is met at any granularity"),
    # Each row below gave a bare ValueError, a NaN model or a
    # RuntimeWarning before, as the least-squares models do not.
    "fit_visibility_logistic.no_rows": (
        lambda: fit_visibility_logistic({"tg": [], "rt": [], "visible": []}), DegenerateModel,
        "response 'visible' has no rows"),
    "fit_visibility_logistic.not_finite": (
        lambda: fit_visibility_logistic({**MODEL_TABLE, "tg": [1.0, np.nan, 2.0]}),
        DegenerateModel, "tg holds a value that is not finite"),
    "fit_visibility_logistic.rt_not_finite": (
        lambda: fit_visibility_logistic({**MODEL_TABLE, "tg": [1.0, 2.0, 3.0],
                                         "rt": [1.0, np.inf, 3.0]}),
        DegenerateModel, "rt holds a value that is not finite"),
    "fit_visibility_logistic.zero_tg": (
        lambda: fit_visibility_logistic(MODEL_TABLE), DegenerateModel,
        "rt_over_tg holds a value that is not finite"),
    "recommend_tg.not_finite": (
        lambda: recommend_tg(LogisticVisibilityModel(np.nan, np.nan), 22.0, 0.5),
        DegenerateModel, "intercept holds a value that is not finite"),
    # Each row below raised a bare TypeError, RecursionError, ValueError,
    # _csv.Error, UnicodeDecodeError or OverflowError before.
    "recommend_tg.overflow": (
        lambda: recommend_tg(LogisticVisibilityModel(-1.0, 2.0), 1e308, 0.5), InvalidFactor,
        "expected recovery time 1e+308 over ratio 0.5 is not a finite number"),
    "recommend_tg.overflow_numpy": (
        lambda: recommend_tg(LogisticVisibilityModel(np.float64(-1.0), np.float64(2.0)),
                             np.float64(1e308), 0.5), InvalidFactor,
        "expected recovery time 1e+308 over ratio 0.5 is not a finite number"),
    "LogisticVisibilityModel.intercept_kind": (
        lambda: recommend_tg(LogisticVisibilityModel("x", 1.0), 22.0, 0.5), DegenerateModel,
        "intercept: expected a real number, got 'x'"),
    **{f"ScenarioConfig.from_json_{name}": (
        lambda text=text: ScenarioConfig.from_json(text), ScenarioError, message)
       for name, (text, message) in UNREADABLE_SCENARIOS.items()},
    **{f"load_results.{name}": (
        lambda data=data: _load_results_of(data), MalformedResults, f"{RESULTS_FILE}: {message}")
       for name, (data, message) in UNREADABLE_RESULTS.items()},
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
    # A subnormal rate draws an infinite first gap, past the horizon; its
    # floor raised an OverflowError before.
    "poisson_stream.subnormal_rate": (lambda: poisson_stream(
        DisruptionStreamConfig(5e-324, (1, 2), (1, 2), 400), make_topology([], 3), seed=1), []),
    # Series given out of network order are written in it.
    "MoPTrace": (lambda: MoPTrace({NetworkId.POWER: np.array([100.0]),
                                   NetworkId.WATER: np.array([99.5])}).to_csv(),
                 "t,mop_water,mop_power\n0,99.500000,100.000000\n"),
    # A list was stored as given before, and ``to_csv`` raised an
    # AttributeError on it.
    "MoPTrace.list": (lambda: MoPTrace({"water": [100.0, 99]}).to_csv(),
                      "t,mop_water\n0,100.000000\n1,99.000000\n"),
}


def test_run_experiment_refuses_jobs_and_traces_dir_before_any_run(monkeypatch, tmp_path):
    def no_run(*args):
        raise AssertionError("a row was simulated")

    monkeypatch.setattr("granusim.experiment.run_single", no_run)
    for bad in ({"jobs": "2"}, {"traces_dir": 5}):
        with pytest.raises(InvalidFactor):
            run_experiment(SMALL, [(2, 9, 8)], **bad)
    # Either form of a directory is taken, and each trace written to it.
    monkeypatch.undo()
    for traces_dir in (str(tmp_path / "a"), tmp_path / "b"):
        Path(traces_dir).mkdir()
        [row] = run_experiment(SMALL, [(2, 9, 8)], traces_dir=traces_dir)
        assert row.status == "ok"
        assert (Path(traces_dir) / "run_000.csv").read_text().startswith("t,mop_water,")


REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "paper-20200831" / "results.csv")


@pytest.mark.parametrize("model", sorted(MODELS))
def test_each_model_gives_on_list_columns_what_it_gives_on_arrays(model):
    # A table of lists raised a bare TypeError before in every model but
    # ``variance_shares``.
    table = load_results(REFERENCE)
    as_lists = {name: column.tolist() for name, column in table.items()}
    assert type(as_lists["visible"][0]) is bool
    assert MODELS[model](as_lists) == MODELS[model](table)


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
