import ast
import random
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granusim import topology
from granusim.coordinator import Federation
from granusim.errors import InvalidTopology
from granusim.federate import FederateState
from granusim.topology import (MAX_NODES, Coupling, InterdependencyMap, NetworkId, Topology,
                               generate_interdependencies, generate_topology)
from granusim.rng import stream
from oracles import make_topology, sample_edges_from_pair_list


def test_water_network_has_published_counts(water22):
    assert water22.node_count == 22
    assert len(water22.edges) == 77
    assert len(set(water22.edges)) == 77
    assert all(src != dst for src, dst in water22.edges)
    assert water22.intrinsic_performance == (1.0,) * 22


def test_single_node_graph_is_empty():
    topo = generate_topology(NetworkId.POWER, 1, 0, seed=1)
    assert topo.node_count == 1
    assert topo.edges == ()


@pytest.mark.parametrize("n, m", [(1, 0), (2, 2), (5, 20), (22, 77), (21, 77),
                                  (20, 75), (40, 140), (300, 1050)])
def test_edges_equal_sampling_the_pair_list(n, m):
    for seed in (1, 20200831, 4093):
        for net in NetworkId:
            rng = stream(seed, f"topology:{net.value}")
            expected = sample_edges_from_pair_list(rng, n, m)
            assert generate_topology(net, n, m, seed).edges == expected


def test_edge_count_overflow():
    # 5 nodes admit at most 20 distinct non-loop directed edges.
    with pytest.raises(InvalidTopology):
        generate_topology(NetworkId.BUSINESS, 5, 25, seed=1)


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        generate_topology(NetworkId.WATER, 0, 0, seed=1)
    with pytest.raises(ValueError):
        generate_topology(NetworkId.WATER, 3, -1, seed=1)


def test_the_node_bound_is_the_most_whose_pairs_can_be_sampled():
    # n(n - 1) pairs fit a C ssize_t at the bound and not one node past it,
    # where ``random.sample`` raises a bare OverflowError.
    assert MAX_NODES * (MAX_NODES - 1) <= sys.maxsize < (MAX_NODES + 1) * MAX_NODES
    assert random.Random(1).sample(range(MAX_NODES * (MAX_NODES - 1)), 2)
    with pytest.raises(OverflowError):
        random.Random(1).sample(range((MAX_NODES + 1) * MAX_NODES), 2)


def test_regeneration_is_byte_identical(water22):
    again = generate_topology(NetworkId.WATER, 22, 77, seed=20200831)
    assert again == water22 and hash(again) == hash(water22)
    assert again.edges_by_target.tobytes() == water22.edges_by_target.tobytes()


def test_different_seeds_differ():
    a = generate_topology(NetworkId.WATER, 22, 77, seed=1)
    b = generate_topology(NetworkId.WATER, 22, 77, seed=2)
    assert a.edges != b.edges


def test_degree_sums_equal_edge_count(water22):
    out_deg = [0] * 22
    in_deg = [0] * 22
    for src, dst in water22.edges:
        out_deg[src] += 1
        in_deg[dst] += 1
    assert sum(out_deg) == 77
    assert sum(in_deg) == 77


@pytest.mark.parametrize("edges, named", [
    # Unchecked, numpy's reshape raised a bare ValueError ...
    (((0, 1, 2),), r"^edge 0 \(0, 1, 2\): expected two values \(source, target\)$"),
    (((0, 1), [2]), r"^edge 1 \(2,\): expected two values"),
    # ... and the unpacking of an int a bare TypeError.
    ((0, 1), r"^edge 0 0: expected two values \(source, target\)$"),
    (((0, 1), None), r"^edge 1 None: expected two values"),
])
def test_an_edge_that_is_not_two_values_is_named(edges, named):
    with pytest.raises(InvalidTopology, match=named):
        Topology(NetworkId.WATER, edges, (1.0,) * 3)


@pytest.mark.parametrize("edges, named", [
    # Unchecked, a repeated edge counts twice in node 1's in-degree and
    # node 1 settles at 0.714 instead of 1.0.
    ([(0, 1), (0, 1)], r"edge \(0, 1\) appears more than once"),
    ([(2, 1), (0, 1), (2, 1)], r"edge \(2, 1\) appears more than once"),
    # Unchecked, -1 indexes node 2 from the end ...
    ([(-1, 1)], r"edge \(-1, 1\) is out of range for 3 nodes"),
    # ... and 5 raises a bare IndexError when a federate is built.
    ([(0, 1), (0, 5)], r"edge \(0, 5\) is out of range for 3 nodes"),
    ([(0, 1), (2, 2)], r"edge \(2, 2\) is a self-loop"),
    # Unchecked, the array cast takes each of these as edge (0, 1) or (1, 2).
    ([(0.5, 1)], r"edge 0 \(0\.5, 1\): node index 0\.5 is not an integer"),
    ([(0, 1), (True, 2)], r"edge 1 \(True, 2\): node index True is not an integer"),
    ([("1", 2)], r"edge 0 \('1', 2\): node index '1' is not an integer"),
])
def test_malformed_edges_rejected_by_name(edges, named):
    with pytest.raises(InvalidTopology, match=named) as raised:
        make_topology(edges, 3)
    assert isinstance(raised.value, ValueError)


def test_json_floats_rejected_as_indices():
    # The floats a JSON file may hold where it means integers.
    with pytest.raises(InvalidTopology, match=r"edge 1 \(3\.0, 5\.0\): node index 3\.0 is not"):
        make_topology([(0, 1), (3.0, 5.0)], 22)


def test_the_node_count_is_the_number_of_levels():
    # Taken beside the levels before, it could disagree with them.
    assert "node_count" not in {f.name for f in fields(Topology)}
    topology = make_topology([(0, 1)], 3, intrinsic=[1.0, 0.5, 0.25])
    assert topology.node_count == 3
    with pytest.raises(AttributeError):
        topology.node_count = 4
    with pytest.raises(InvalidTopology, match=r"^edge \(0, 3\) is out of range for 3 nodes$"):
        make_topology([(0, 3)], 3)


LEVELS_REFUSED = ("intrinsic performance levels: expected a one-dimensional sequence of "
                  "real numbers, got ")


@pytest.mark.parametrize("network, levels, message", [
    ("gas", (1.0, 1.0), "field 'network_id': unknown network 'gas'"),
    (["water"], (1.0, 1.0), "field 'network_id': unknown network ['water']"),
    # Unchecked, the float cast takes these as levels 1.0 ...
    (NetworkId.WATER, ("1", "1"), LEVELS_REFUSED + "('1', '1')"),
    (NetworkId.WATER, (1.0, True), LEVELS_REFUSED + "(1.0, True)"),
    (NetworkId.WATER, np.array([True, True]), LEVELS_REFUSED + "array([ True,  True])"),
    # ... and 'a' raises numpy's bare ValueError.
    (NetworkId.WATER, ("a", "1"), LEVELS_REFUSED + "('a', '1')"),
])
def test_constructor_refuses_a_network_or_level_by_name(network, levels, message):
    with pytest.raises(InvalidTopology) as raised:
        Topology(network, (), levels)
    assert str(raised.value) == message


def test_constructor_stores_the_network_member():
    topology = Topology("water", (), (1, np.float64(0.5)))
    assert topology.network_id is NetworkId.WATER
    assert topology == Topology(NetworkId.WATER, (), (1.0, 0.5))


def test_numpy_counts_indices_and_levels_are_stored_plain():
    # Stored as given, a numpy value made the topology differ in form
    # from the same one built of Python numbers.
    topology = Topology(NetworkId.POWER, ((np.int64(0), 1), (2, np.intp(1))),
                        (np.float32(0.5), 1, np.float64(0.25)))
    assert type(topology.network_id) is NetworkId
    assert type(topology.node_count) is int
    assert type(topology.edges) is tuple and {type(e) for e in topology.edges} == {tuple}
    assert {type(v) for edge in topology.edges for v in edge} == {int}
    assert type(topology.intrinsic_performance) is tuple
    assert {type(v) for v in topology.intrinsic_performance} == {float}
    plain = Topology(NetworkId.POWER, ((0, 1), (2, 1)), (0.5, 1.0, 0.25))
    assert topology == plain and hash(topology) == hash(plain)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6), data=st.data())
def test_generated_edges_are_valid(n, seed, data):
    m = data.draw(st.integers(0, n * (n - 1)))
    topo = generate_topology(NetworkId.POWER, n, m, seed)
    assert len(topo.edges) == m
    assert len(set(topo.edges)) == m
    for src, dst in topo.edges:
        assert 0 <= src < n and 0 <= dst < n and src != dst
    sources, targets = topo.edges_by_target
    assert list(zip(sources.tolist(), targets.tolist())) == sorted(
        topo.edges, key=lambda e: (e[1], e[0]))
    assert not topo.edges_by_target.flags.writeable


def _sizes(couplings):
    counts = {}
    for c in couplings:
        counts[(c.consumer_network, c.consumer_node)] = \
            counts.get((c.consumer_network, c.consumer_node), 0) + 1
    return counts


def test_backbone_is_identity_for_equal_sizes():
    topos = [make_topology([], 5, NetworkId.WATER),
             make_topology([], 5, NetworkId.POWER)]
    imap = generate_interdependencies(topos, 1, seed=3)
    for c in imap.couplings:
        assert c.producer_node == c.consumer_node


def test_backbone_wraps_modulo_partner_size():
    topos = [make_topology([], 7, NetworkId.WATER),
             make_topology([], 3, NetworkId.POWER)]
    imap = generate_interdependencies(topos, 1, seed=3)
    for c in imap.couplings:
        if c.consumer_network == NetworkId.WATER:
            assert c.producer_node == c.consumer_node % 3


def test_each_node_consumes_from_every_partner():
    topos = [make_topology([], 22, NetworkId.WATER),
             make_topology([], 21, NetworkId.POWER),
             make_topology([], 20, NetworkId.BUSINESS)]
    imap = generate_interdependencies(topos, 1, seed=3)
    counts = _sizes(imap.couplings)
    for topo in topos:
        for a in range(topo.node_count):
            assert counts[(topo.network_id, a)] == 2


def test_consumer_count_scales_with_couplings_per_node():
    topos = [make_topology([], 4, NetworkId.WATER),
             make_topology([], 4, NetworkId.POWER),
             make_topology([], 4, NetworkId.BUSINESS)]
    imap = generate_interdependencies(topos, 3, seed=3)
    counts = _sizes(imap.couplings)
    assert set(counts.values()) == {6}


def test_single_topology_rejected():
    with pytest.raises(ValueError):
        generate_interdependencies([make_topology([], 4)], 1, seed=3)
    with pytest.raises(ValueError):
        generate_interdependencies(
            [make_topology([], 4, NetworkId.WATER),
             make_topology([], 4, NetworkId.POWER)], 0, seed=3)


def test_interdependency_regeneration_identical():
    topos = [make_topology([], 6, NetworkId.WATER),
             make_topology([], 5, NetworkId.POWER)]
    a = generate_interdependencies(topos, 2, seed=11)
    b = generate_interdependencies(topos, 2, seed=11)
    assert a == b and hash(a) == hash(b)
    assert a.coupling_array.tobytes() == b.coupling_array.tobytes()


def test_producer_nodes_in_range():
    topos = [make_topology([], 6, NetworkId.WATER),
             make_topology([], 5, NetworkId.POWER),
             make_topology([], 4, NetworkId.BUSINESS)]
    sizes = {t.network_id: t.node_count for t in topos}
    imap = generate_interdependencies(topos, 4, seed=5)
    for c in imap.couplings:
        assert c.producer_network != c.consumer_network
        assert 0 <= c.producer_node < sizes[c.producer_network]


W, P = NetworkId.WATER, NetworkId.POWER


@pytest.mark.parametrize("bad, named", [
    # Unchecked, the array cast wires each of these to node 0 or node 1
    # of a 2-node network, and 'gas' fails the first build with a bare
    # KeyError.
    ((W, 0.5, P, 1), r"coupling 1 \('water', 0\.5, 'power', 1\): node index 0\.5 is not"),
    ((W, True, P, 1), r"coupling 1 \('water', True, 'power', 1\): node index True is not"),
    ((W, "1", P, 1), r"coupling 1 \('water', '1', 'power', 1\): node index '1' is not"),
    (("gas", 0, P, 1), r"coupling 1 \('gas', 0, 'power', 1\): unknown network 'gas'"),
    ((W, 0, P, 1.0), r"coupling 1 \('water', 0, 'power', 1\.0\): node index 1\.0 is not"),
])
def test_malformed_couplings_rejected_by_name(bad, named):
    good = Coupling(P, 1, W, 0)
    with pytest.raises(InvalidTopology, match=named):
        InterdependencyMap(couplings=(good, Coupling(*bad), Coupling(W, 0.5, P, 0)))


@pytest.mark.parametrize("bad, named", [
    ((W, 0, P), r"coupling 1 \('water', 0, 'power'\): expected four values"),
    ((W, 0, P, 1, 2), r"coupling 1 \('water', 0, 'power', 1, 2\): expected four values"),
    (5, "coupling 1 5: expected four values"),
])
def test_a_coupling_of_other_than_four_values_is_named(bad, named):
    with pytest.raises(InvalidTopology, match=named):
        InterdependencyMap(couplings=(Coupling(P, 1, W, 0), bad))


@pytest.mark.parametrize("bad, named", [
    (("water", 0.5, "gas", 1), "node index 0.5 is not an integer"),
    (("water", 0, "gas", True), "unknown network 'gas'"),
])
def test_a_coupling_with_two_faults_names_the_first_in_field_order(bad, named):
    # The networks were named before the node indices.
    with pytest.raises(InvalidTopology) as raised:
        InterdependencyMap(couplings=(bad,))
    assert str(raised.value) == f"coupling 0 {bad}: {named}"


def test_edges_and_couplings_are_read_by_one_row_rule():
    # Each class kept its own copy of the row checks before.
    tree = ast.parse(Path(topology.__file__).read_text())
    reads = {}
    for owner in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
        for function in owner.body:
            if isinstance(function, ast.FunctionDef):
                name = getattr(owner, "name", "") + "." + function.name
                reads[name.lstrip(".")] = {node.id for node in ast.walk(function)
                                          if isinstance(node, ast.Name)}
    assert [name for name in reads if "_is_index_type" in reads[name]] == ["_plain_rows"]
    assert [name for name in reads if "_plain_rows" in reads[name]] == [
        "Topology.__post_init__", "InterdependencyMap.__post_init__"]


def test_edges_and_couplings_may_be_any_iterable():
    # A generator of edges was taken as no edge before, and one of
    # couplings raised a bare ValueError.
    made = Topology(W, (edge for edge in [(0, 1), (1, 2)]), (1.0,) * 3)
    assert made.edges == ((0, 1), (1, 2))
    imap = InterdependencyMap(coupling for coupling in [Coupling(W, 0, P, 1)])
    assert imap.couplings == (Coupling(W, 0, P, 1),)


def test_couplings_take_what_network_id_accepts():
    imap = InterdependencyMap(couplings=(Coupling("water", 0, P, np.int64(1)),))
    assert imap.coupling_array.tolist() == [[0], [0], [1], [1]]


@pytest.mark.parametrize("coupling", [
    # Each of these made ``to_json`` raise an AttributeError ('tuple'
    # has no 'consumer_network', 'str' has no 'value') or a TypeError
    # (int64 is not JSON serializable).
    (W, 0, P, 1),
    ("water", 0, "power", 1),
    Coupling("water", 0, P, 1),
    Coupling(W, np.int64(0), P, np.intp(1)),
])
def test_a_map_stores_what_it_accepts_as_plain_couplings(coupling):
    imap = InterdependencyMap(couplings=[coupling])
    assert type(imap.couplings) is tuple
    assert imap.couplings == (Coupling(W, 0, P, 1),)
    (stored,) = imap.couplings
    assert type(stored) is Coupling
    assert [type(v) for v in stored] == [NetworkId, int, NetworkId, int]
    plain = InterdependencyMap((Coupling(W, 0, P, 1),))
    assert imap == plain and hash(imap) == hash(plain)
    assert imap.coupling_array.tolist() == [[0], [0], [1], [1]]


def test_the_coupling_array_is_a_read_only_field_made_with_the_map():
    imap = generate_interdependencies([make_topology([], 4, W), make_topology([], 3, P)], 2,
                                      seed=5)
    assert "coupling_array" in vars(imap)  # made by the constructor, not on first read
    array = imap.coupling_array
    assert array.shape == (4, len(imap.couplings)) and not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] = 1
    # Every federation of the map reads that one array: here two, of
    # other node counts, derive a coupling plan each from it.
    for n in (4, 5):
        Federation([FederateState(make_topology([], n, W)),
                    FederateState(make_topology([], 3, P))], imap)
        assert imap.coupling_array is array
    assert len(imap.derived) == 2
    # It takes no part in ==, hash or repr: a map whose array differs
    # still equals its couplings' map.
    other = InterdependencyMap(imap.couplings)
    object.__setattr__(other, "coupling_array", array[:, :0])
    assert other == imap and hash(other) == hash(imap)
    assert "coupling_array" not in repr(imap)
    assert [f.name for f in fields(imap) if f.compare] == ["couplings"]


def test_a_generated_wiring_is_stored_as_given(water22):
    # The plain copy is made only for input in another form.
    again = Topology(water22.network_id, water22.edges, water22.intrinsic_performance)
    assert again.edges is water22.edges
    assert again.intrinsic_performance is water22.intrinsic_performance
    topos = [water22, make_topology([], 5, NetworkId.POWER)]
    imap = generate_interdependencies(topos, 2, seed=11)
    assert InterdependencyMap(imap.couplings).couplings is imap.couplings


def test_lists_are_stored_as_tuples():
    # Stored as given before, so the frozen objects were unhashable and
    # unequal to the same ones built from tuples.
    topology = Topology(NetworkId.WATER, [[0, 1]], [1.0, 1.0, 1.0])
    assert topology == Topology(NetworkId.WATER, ((0, 1),), (1.0, 1.0, 1.0))
    assert topology.edges == ((0, 1),) and topology.intrinsic_performance == (1.0,) * 3
    coupling = Coupling(NetworkId.WATER, 0, NetworkId.POWER, 0)
    imap = InterdependencyMap([coupling])
    assert imap == InterdependencyMap((coupling,)) and imap.couplings == (coupling,)
    assert hash(topology) and hash(imap)


def test_generate_topology_takes_what_network_id_accepts():
    # It raised AttributeError: 'str' object has no attribute 'value'.
    topology = generate_topology("water", 4, 3, 1)
    assert topology.network_id is NetworkId.WATER
    assert topology == generate_topology(NetworkId.WATER, 4, 3, 1)


@pytest.mark.parametrize("network", ["gas", 5])
def test_generate_topology_refuses_a_network_by_name(network):
    with pytest.raises(InvalidTopology, match=f"field 'network_id': unknown network {network!r}"):
        generate_topology(network, 4, 3, 1)


@pytest.mark.parametrize("index", [2 ** 63 - 1, -2 ** 63, np.int64(2 ** 63 - 1),
                                   np.uint64(2 ** 63 - 1)], ids=repr)
def test_an_index_within_64_bits_reaches_the_node_count_check(index):
    # The row rule's 64-bit bound lets every index the np.intp cast takes
    # through, so the topology's own range check names it.
    with pytest.raises(InvalidTopology, match=r"^edge \(0, -?\d+\) is out of range for 3 nodes$"):
        Topology(NetworkId.WATER, ((0, index),), (1.0,) * 3)
    # A map has no node counts; it stores the index as a Python int.
    coupling = InterdependencyMap(((NetworkId.WATER, index, NetworkId.POWER, 0),)).couplings[0]
    assert type(coupling.consumer_node) is int and coupling.consumer_node == index
