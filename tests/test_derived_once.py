"""What a build reads but never writes is derived once per frozen wiring
object: the node rule per topology and weights, the coupling plan per
map, network order and node counts, and the disruption pattern per
topology, seed and size.  Each is kept in the one ``derived`` store of
its topology or map, which only ``topology.derive_once`` writes.  These
tests check that the shared results are read-only, keyed finely enough
and never stored when their derivation fails."""

from dataclasses import replace

import numpy as np
import pytest

from granusim.coordinator import NO_COUPLINGS, Federation, coupling_plan, run
from granusim.disruption import fixed_pattern
from granusim.errors import InvalidFactor, UnknownNode
from granusim.experiment import (ScenarioConfig, _prepare_run, build_federation,
                                 wiring)
from granusim.federate import FederateState
from granusim.topology import Coupling, InterdependencyMap, NetworkId, Topology
from oracles import make_topology

CONFIG = ScenarioConfig(horizon=280)


def fresh_copy(topology: Topology) -> Topology:
    """An equal topology that has derived nothing yet."""
    return Topology(topology.network_id, topology.edges, topology.intrinsic_performance)


def test_federations_of_one_wiring_share_their_read_only_rules_and_plan():
    a, b = build_federation(CONFIG), build_federation(CONFIG)
    for net in a.order:
        fa, fb = a.federates[net], b.federates[net]
        for name in ("intrinsic", "in_matrix", "base", "_ones"):
            x = getattr(fa, name)
            assert x is getattr(fb, name)
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        # The ring and the term stay each federate's own.
        assert not np.shares_memory(fa.states, fb.states)
        assert not np.shares_memory(fa.term, fb.term)
    assert a._divisor is b._divisor
    with pytest.raises(ValueError, match="read-only"):
        a._divisor[0] = 1
    # The grid index is copied once per build from the shared plan:
    # numpy's take would copy a read-only one on every call.
    shared = coupling_plan(wiring(CONFIG)[1], tuple(a.order),
                           tuple(a.federates[net].node_count for net in a.order)).index
    assert not shared.flags.writeable
    assert a._index.flags.writeable and b._index.flags.writeable
    assert not any(np.shares_memory(x, y) for x, y in ((a._index, b._index),
                                                       (a._index, shared)))
    assert np.array_equal(a._index, shared) and np.array_equal(b._index, shared)


def test_edge_list_rules_share_their_scales_and_copy_their_indices():
    topology = make_topology([(i, (i + 1) % 160) for i in range(160)], 160)
    a, b = FederateState(topology), FederateState(topology)
    assert a.in_matrix is None
    assert a._edge_scale is b._edge_scale and not a._edge_scale.flags.writeable
    for x, y, shared in ((a._sources, b._sources, topology.edges_by_target[0]),
                         (a._targets, b._targets, topology.edges_by_target[1])):
        assert x.flags.writeable and not np.shares_memory(x, y)
        assert np.array_equal(x, shared)


@pytest.mark.parametrize("change", [
    lambda spec: replace(spec, weights=(0.2, 0.5, 0.3)),
    lambda spec: replace(spec, weights=(0.3, 0.5, 0.2)),  # w_in and w_ext only
    lambda spec: replace(spec, lag=3) if spec.id == NetworkId.BUSINESS else spec,
], ids=["weights", "w_in", "business lag"])
def test_other_weights_or_lag_on_one_wiring_run_as_a_build_that_derived_nothing(change):
    _prepare_run(CONFIG, 2, 9, 12)  # derives the default rules, plan and pattern
    other = replace(CONFIG, networks=tuple(map(change, CONFIG.networks)))
    assert wiring(other) is wiring(CONFIG)
    federation, schedule, event = _prepare_run(other, 2, 9, 12)
    shared = run(federation, schedule, [event])

    topologies, interdependencies = wiring(other)
    copies = [fresh_copy(t) for t in topologies]
    assert not any(t.derived for t in copies)
    alone = Federation([FederateState(t, spec.weights, spec.lag)
                        for spec, t in zip(other.networks, copies)],
                       InterdependencyMap(interdependencies.couplings))
    fresh = run(alone, schedule, [event])
    for net in fresh.series:
        assert shared.series[net].tobytes() == fresh.series[net].tobytes()
    # New weights derive a rule of their own; a new lag only a new ring.
    default = build_federation(CONFIG)
    for spec, old in zip(other.networks, CONFIG.networks):
        same_rule = spec.weights[:2] == old.weights[:2]
        assert (federation.federates[spec.id].base
                is default.federates[spec.id].base) == same_rule


def test_a_coupling_at_fault_raises_on_every_build():
    water = make_topology([], 2, NetworkId.WATER)
    couplings = InterdependencyMap(couplings=(
        Coupling(NetworkId.WATER, 0, NetworkId.BUSINESS, 2),))

    def build(other: Topology) -> Federation:
        return Federation([FederateState(water), FederateState(other)], couplings)

    for _ in range(2):
        with pytest.raises(ValueError, match="outside the federation"):
            build(make_topology([], 3, NetworkId.POWER))
    assert couplings.derived == {}
    # Sound with a business network that has a node 2, and still at
    # fault with a smaller one: the plan is keyed on the node counts.
    build(make_topology([], 3, NetworkId.BUSINESS))
    for _ in range(2):
        with pytest.raises(UnknownNode, match="producer node out of range"):
            build(make_topology([], 2, NetworkId.BUSINESS))
    assert len(couplings.derived) == 1


def test_fixed_pattern_is_drawn_once_and_checked_on_every_call(water22):
    first = fixed_pattern(8, water22, seed=20200831)
    assert fixed_pattern(8, water22, seed=20200831) == first
    assert fixed_pattern(8, water22, seed=20200831) is first
    for _ in range(2):
        with pytest.raises(InvalidFactor):
            fixed_pattern(23, water22, seed=20200831)
        with pytest.raises(ValueError):
            fixed_pattern(0, water22, seed=20200831)
    # 1 and True seed different streams, and 2.0 is no size, although
    # each pair is equal as a dict key.
    fixed_pattern(2, water22, seed=1)
    assert fixed_pattern(2, water22, seed=True) == fixed_pattern(2, fresh_copy(water22), True)
    with pytest.raises(ValueError):
        fixed_pattern(2.0, water22, seed=1)


def test_weights_are_keyed_by_their_exact_values():
    topology = make_topology([(0, 1)], 2)
    plus = FederateState(topology, (0.0, 0.5, 0.5))
    minus = FederateState(topology, (-0.0, 0.5, 0.5))
    assert np.signbit(minus.base).any() and not np.signbit(plus.base).any()
    # An integer weight is its float: one rule.
    assert FederateState(topology, (1, 0, 0)).base is FederateState(topology, (1.0, 0.0, 0.0)).base


def test_a_pattern_refused_or_too_large_leaves_the_store_as_it_was(water22):
    topology = fresh_copy(water22)
    fixed_pattern(8, topology, seed=20200831)
    before = dict(topology.derived)
    for ds, error in ((23, InvalidFactor), (0, ValueError), (True, ValueError),
                      (2.0, ValueError)):
        with pytest.raises(error):
            fixed_pattern(ds, topology, seed=20200831)
        assert topology.derived == before


def test_a_rule_and_a_pattern_of_one_topology_sit_under_distinct_keys(water22):
    topology = fresh_copy(water22)
    rule = FederateState(topology).base
    pattern = fixed_pattern(8, topology, seed=20200831)
    kinds = sorted(key[0] for key in topology.derived)
    assert kinds == ["pattern", "rule"]
    assert FederateState(topology).base is rule
    assert fixed_pattern(8, topology, seed=20200831) is pattern


def test_federations_without_a_map_share_one_plan_per_order_and_sizes():
    def build(n: int) -> Federation:
        return Federation([FederateState(make_topology([], n)),
                           FederateState(make_topology([], 3, NetworkId.POWER))])

    a, b = build(2), build(2)
    assert a._divisor is b._divisor
    assert a._index.shape == (0, 5)
    key = ("plan", (NetworkId.WATER, NetworkId.POWER), (2, 3))
    assert NO_COUPLINGS.derived[key].divisor is a._divisor
    # Other node counts derive a plan of their own.
    assert build(4)._divisor is not a._divisor
