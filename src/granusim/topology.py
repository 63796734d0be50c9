"""Random directed topologies and cross-network couplings.

Networks are G(n, m)-style uniform samples of exactly m distinct
non-loop directed edges, so node and edge counts are met exactly.
Couplings wire every node of every network to each partner network:
the first coupling per partner is the deterministic backbone
b = a mod |B|, the rest are drawn from a seeded stream.

The network rule, ``_network_member``, lives here beside ``NetworkId``;
every other input rule lives in ``errors``, beside the classes it
raises.

A ``Topology`` and an ``InterdependencyMap`` are frozen, and each checks
itself once, when it is made.  A topology raises ``InvalidTopology`` for
a network ``NetworkId`` refuses, a node index that is not an integer (a
bool is not), an edge that is not two values joining two distinct nodes
in range or that appears twice, and levels that the real-series rule
refuses or that lie outside [0, 1]; its node count is the number of its
levels, stored as a tuple of Python floats.
A map raises it for a coupling that is not four values, a node index
that is not an integer or a network ``NetworkId`` refuses.  Each stores
what it accepts in plain form (``NetworkId`` members, Python ints and
floats, tuples), so equal wirings compare equal and hash alike, and
makes its one array form (``edges_by_target``, ``coupling_array``),
read-only and shared by every federation built from it.  Each holds one
store, ``derived``, which only ``derive_once`` writes, under a key
tagged by the kind of result (a node rule, a disruption pattern, a
coupling plan), and only with a result derived without error.  No
wiring is written to a file: the scenario file is the one wiring
artifact, and ``experiment.wiring`` makes the wiring of a scenario.
"""
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidTopology, _count, _is_index_type, _items_of, _real_series
from .rng import stream


class NetworkId(str, Enum):
    WATER = "water"
    POWER = "power"
    BUSINESS = "business"


NETWORK_ORDER = (NetworkId.WATER, NetworkId.POWER, NetworkId.BUSINESS)


def _as_network(value):
    """``value`` as a ``NetworkId``, or as it is if ``NetworkId`` refuses it."""
    try:
        return NetworkId(value)
    except ValueError:
        return value


def _network_member(value, error=InvalidTopology, field="network_id") -> NetworkId:
    """The one network rule: ``value`` as a ``NetworkId``; ``error``
    naming ``field`` and the value if ``NetworkId`` refuses it."""
    network = _as_network(value)
    if not isinstance(network, NetworkId):
        raise error(f"field '{field}': unknown network {value!r}")
    return network


def _shown(coupling):
    """``coupling`` as an error names it, its networks by value."""
    if not isinstance(coupling, (tuple, list)):
        return repr(coupling)
    return tuple(v.value if isinstance(v, NetworkId) else v for v in coupling)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def derive_once(owner, key, derive):
    """``owner.derived[key]``, stored from ``derive()`` on first use.

    A ``derive()`` that raises stores nothing, so it raises again on
    the next call.
    """
    value = owner.derived.get(key)
    if value is None:
        value = owner.derived[key] = derive()
    return value


@dataclass(frozen=True)
class Topology:
    """A network's edges and the intrinsic level of each of its nodes;
    its node count is the number of levels."""

    network_id: NetworkId
    edges: tuple[tuple[int, int], ...]
    intrinsic_performance: tuple[float, ...]
    #: The edges as a read-only (2, edges) array, sources in row 0 and
    #: targets in row 1, sorted by (target, source); derived from
    #: ``edges`` when the topology is made.
    edges_by_target: np.ndarray = field(init=False, repr=False, compare=False)
    #: The store of ``derive_once``: ``federate.node_rule`` and
    #: ``disruption.fixed_pattern`` results.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked once per frozen topology, not per federate built on it.
        # The first edge at fault is named.
        object.__setattr__(self, "network_id", _network_member(self.network_id))
        levels = _real_series(self.intrinsic_performance, InvalidTopology,
                              "intrinsic performance levels")
        if not ((levels >= 0.0) & (levels <= 1.0)).all():
            raise InvalidTopology("intrinsic performance levels must lie in [0, 1], "
                                  f"got {self.intrinsic_performance}")
        # An edge of three values would fail the reshape, and an int
        # the unpacking.  One test per type and length seen, then a
        # search for the first edge at fault.
        edge_types = set(map(type, self.edges))
        if not (edge_types <= {tuple, list} and set(map(len, self.edges)) <= {2}):
            for i, e in enumerate(self.edges):
                if not (isinstance(e, (tuple, list)) and len(e) == 2):
                    raise InvalidTopology(f"edge {i} {_shown(e)}: expected two values "
                                          "(source, target)")
        # The array cast would take 0.5, True and '1' as node indices.
        # One test per type of index seen, then a search for the edge.
        index_types = {type(v) for edge in self.edges for v in edge}
        if not all(map(_is_index_type, index_types)):
            edge = next(e for e in self.edges if not all(_is_index_type(type(v)) for v in e))
            raise InvalidTopology(f"edge {edge} has a node index that is not an integer")
        # A numpy index or level is stored as a Python int or float, and
        # a list or an array as a tuple, so a frozen topology hashes and
        # compares by its values whatever their form; a generated
        # topology is plain already and skips the copy.
        if (not index_types <= {int} or not set(map(type, self.intrinsic_performance)) <= {float}
                or edge_types | {type(self.edges), type(self.intrinsic_performance)} != {tuple}):
            object.__setattr__(self, "edges", tuple(tuple(map(int, e)) for e in self.edges))
            object.__setattr__(self, "intrinsic_performance", tuple(levels.tolist()))
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        out_of_range = ((edges < 0) | (edges >= len(levels))).any(axis=1)
        for bad, what in ((out_of_range, f"out of range for {len(levels)} nodes"),
                          (edges[:, 0] == edges[:, 1], "a self-loop")):
            if bad.any():
                raise InvalidTopology(f"edge {self.edges[bad.argmax()]} is {what}")
        sources, targets = edges.T
        order = np.lexsort((sources, targets))
        by_target = _read_only(np.array((sources[order], targets[order])))
        # Sorted, a repeated edge sits next to its copy.
        repeated = (np.diff(by_target, axis=1) == 0).all(axis=0)
        if repeated.any():
            edge = tuple(by_target[:, repeated.argmax()].tolist())
            raise InvalidTopology(f"edge {edge} appears more than once")
        object.__setattr__(self, "edges_by_target", by_target)

    @property
    def node_count(self) -> int:
        return len(self.intrinsic_performance)


class Coupling(NamedTuple):
    """Directed lifeline: consumer node takes the producer node's output."""

    consumer_network: NetworkId
    consumer_node: int
    producer_network: NetworkId
    producer_node: int


@dataclass(frozen=True)
class InterdependencyMap:
    couplings: tuple[Coupling, ...]
    #: The couplings as a read-only (4, couplings) array, one row per
    #: ``Coupling`` field in field order, networks as positions in
    #: ``NETWORK_ORDER``; derived from ``couplings`` when the map is made.
    coupling_array: np.ndarray = field(init=False, repr=False, compare=False)
    #: The store of ``derive_once``: ``coordinator.coupling_plan`` results.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Checked once per frozen map, as ``Topology`` checks its edges:
        # the column unpacking would fail on a coupling of three values
        # and drop a fifth, the array cast would take 0.5, True and '1'
        # as node indices, and a network ``NetworkId`` refuses would
        # fail only at the first build.  One test per type seen, then a
        # search for the first coupling at fault.
        plain = set(map(type, self.couplings)) <= {Coupling}
        if not plain:
            for i, c in enumerate(self.couplings):
                if not (isinstance(c, (tuple, list)) and len(c) == 4):
                    raise InvalidTopology(f"coupling {i} {_shown(c)}: expected four values "
                                          "(network, node, network, node)")
        consumer_net, consumer, producer_net, producer = (
            zip(*self.couplings) if self.couplings else ((),) * 4)
        if not (plain and type(self.couplings) is tuple
                and set(map(type, consumer + producer)) <= {int}
                and set(map(type, consumer_net + producer_net)) <= {NetworkId}):
            for i, c in enumerate(self.couplings):
                faults = [f"unknown network {v!r}" for v in (c[0], c[2])
                          if not isinstance(_as_network(v), NetworkId)]
                faults += [f"node index {v!r} is not an integer"
                           for v in (c[1], c[3]) if not _is_index_type(type(v))]
                if faults:
                    raise InvalidTopology(f"coupling {i} {_shown(c)}: {faults[0]}")
            # What the checks accept in another form (a network's value,
            # a numpy index, a coupling as a tuple or list, a list of
            # them) is stored as a tuple of ``Coupling``s of ``NetworkId``
            # members and Python ints, so a frozen map hashes and compares
            # by its values; a generated map is plain already.
            consumer_net, producer_net = (tuple(map(NetworkId, nets))
                                          for nets in (consumer_net, producer_net))
            consumer, producer = (tuple(map(int, nodes)) for nodes in (consumer, producer))
            object.__setattr__(self, "couplings", tuple(
                map(Coupling, consumer_net, consumer, producer_net, producer)))
        rank = {net: i for i, net in enumerate(NETWORK_ORDER)}.__getitem__
        object.__setattr__(self, "coupling_array", _read_only(np.array(
            [list(map(rank, consumer_net)), consumer, list(map(rank, producer_net)), producer],
            dtype=np.intp)))


def generate_topology(network_id: NetworkId, node_count: int,
                      edge_count: int, seed: int) -> Topology:
    """Sample a directed graph with exactly ``edge_count`` distinct non-loop edges."""
    node_count = _count(node_count, InvalidTopology, "node_count")
    edge_count = _count(edge_count, InvalidTopology, "edge_count", minimum=0)
    max_edges = node_count * (node_count - 1)
    if edge_count > max_edges:
        raise InvalidTopology(f"{edge_count} edges requested but at most {max_edges} distinct "
                              f"non-loop edges exist for {node_count} nodes")
    rng = stream(seed, f"topology:{_network_member(network_id).value}")
    # Sample positions in the row-major list of pairs (i, j), i != j,
    # without building it: ``random.sample`` draws from the length alone,
    # so the edges are those of sampling the list itself.  Position k is
    # row i, and column r of the n - 1 columns that skip i.
    edges = []
    for k in rng.sample(range(max_edges), edge_count):
        i, r = divmod(k, node_count - 1)
        edges.append((i, r + (r >= i)))
    return Topology(network_id, tuple(sorted(edges)), (1.0,) * node_count)


def generate_interdependencies(topologies: Iterable[Topology],
                               couplings_per_node: int,
                               seed: int) -> InterdependencyMap:
    """Wire every node of every network to each partner network.

    Emits ``couplings_per_node`` couplings per (node, partner network):
    a deterministic backbone (producer = node index mod partner size)
    plus uniformly drawn extras.
    """
    topologies = _items_of(Topology, topologies, InvalidTopology, "topologies")
    if len(topologies) < 2:
        raise InvalidTopology("need at least two topologies to interconnect")
    networks = [topology.network_id for topology in topologies]
    repeated = next((net for net in networks if networks.count(net) > 1), None)
    if repeated is not None:
        raise InvalidTopology(f"field 'topologies': two topologies of network {repeated.value!r}")
    couplings_per_node = _count(couplings_per_node, InvalidTopology, "couplings_per_node")
    rng = stream(seed, "interdependency")
    couplings = []
    for consumer in topologies:
        for a in range(consumer.node_count):
            for producer in topologies:
                if producer.network_id == consumer.network_id:
                    continue
                couplings.append(Coupling(
                    consumer.network_id, a,
                    producer.network_id, a % producer.node_count,
                ))
                for _ in range(couplings_per_node - 1):
                    couplings.append(Coupling(
                        consumer.network_id, a,
                        producer.network_id,
                        rng.randrange(producer.node_count),
                    ))
    return InterdependencyMap(couplings=tuple(couplings))
