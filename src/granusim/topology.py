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
a network ``NetworkId`` refuses, levels that the real-series rule
refuses or that lie outside [0, 1], and an edge out of range, that is a
self-loop or that appears twice; its node count is the number of its
levels, stored as a tuple of Python floats.  Both read their rows, the
edges and the couplings, by one row rule, ``_plain_rows``: the rows are
an iterable, and a row is a tuple or list of two values (source,
target) or four (network, node, network, node), each node index an
integer (a bool is not one) within 64 bits and each network one
``NetworkId`` accepts; ``InvalidTopology`` names the first row at fault
by its place.  Each stores what it accepts in plain form (``NetworkId``
members, Python ints and floats, tuples), so equal wirings compare
equal and hash alike, and makes its one array form (``edges_by_target``,
``coupling_array``), read-only and shared by every federation built
from it.  Each holds one store, ``derived``,
which only ``derive_once`` writes, under a key tagged by the kind of
result (a node rule, a disruption pattern, a coupling plan), and only
with a result derived without error.  No wiring is written to a file:
the scenario file is the one wiring artifact, and ``experiment.wiring``
is the one path from a scenario to its wiring.
"""
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidTopology, _count, _is_index_type, _items_of, _of_kind, _real_series
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


def _shown(row):
    """An edge or a coupling as an error names it, its networks by value."""
    if not isinstance(row, (tuple, list)):
        return repr(row)
    return tuple(v.value if isinstance(v, NetworkId) else v for v in row)


#: What an error calls the number of values of a row.
_VALUE_COUNTS = {2: "two", 4: "four"}

#: The range of the array form's node indices.
_INTP = np.iinfo(np.intp)


def _plain_rows(rows, noun: str, names: tuple[str, ...], row: type = tuple):
    """The one row rule of a topology's edges and a map's couplings:
    ``rows`` in plain form, and their columns.

    ``rows`` is an ``Iterable`` (``_of_kind``), and each row a tuple or
    list of one value per name in ``names``: a network (what
    ``NetworkId`` accepts) where the name is ``network``, and a node
    index (``_is_index_type``; a bool is not one) in ``np.intp``'s
    range, which the array casts take, elsewhere.  One test per type
    and length seen and one min and max per index column, then a
    search that raises
    ``InvalidTopology`` naming the first row at fault by its place, and
    its first fault in field order.  Rows that are plain already (a
    tuple of ``row`` rows of ``NetworkId`` members and Python ints) are
    returned as given, and others as a tuple of plain rows, so equal
    wirings compare equal and hash alike whatever form they were given
    in.
    """
    _of_kind(Iterable, rows, InvalidTopology, f"{noun}s")
    rows = tuple(rows)  # a tuple as it is, and a generator read once
    row_types = set(map(type, rows))
    if not (all(issubclass(kind, (tuple, list)) for kind in row_types)
            and set(map(len, rows)) <= {len(names)}):
        i, bad = next((i, r) for i, r in enumerate(rows)
                      if not (isinstance(r, (tuple, list)) and len(r) == len(names)))
        raise InvalidTopology(f"{noun} {i} {_shown(bad)}: expected "
                              f"{_VALUE_COUNTS[len(names)]} values ({', '.join(names)})")
    columns = tuple(zip(*rows)) if rows else ((),) * len(names)
    network_types, index_types = set(), set()
    for column, name in zip(columns, names):
        (network_types if name == "network" else index_types).update(map(type, column))
    # The array casts would take 0.5, True and '1' as node indices and
    # overflow on one past ``np.intp``, and a network ``NetworkId``
    # refuses would fail only at the first build.
    if not (network_types <= {NetworkId} and all(map(_is_index_type, index_types))
            and all(_INTP.min <= min(column) and max(column) <= _INTP.max
                    for column, name in zip(columns, names) if name != "network" and column)):
        for i, r in enumerate(rows):
            for v, name in zip(r, names):
                if name == "network" and not isinstance(_as_network(v), NetworkId):
                    raise InvalidTopology(f"{noun} {i} {_shown(r)}: unknown network {v!r}")
                if name != "network" and not _is_index_type(type(v)):
                    raise InvalidTopology(
                        f"{noun} {i} {_shown(r)}: node index {v!r} is not an integer")
                if name != "network" and not _INTP.min <= v <= _INTP.max:
                    raise InvalidTopology(f"{noun} {i} {_shown(r)}: node index {v!r} is "
                                          f"outside the {_INTP.bits}-bit index range")
    if row_types <= {row} and network_types <= {NetworkId} and index_types <= {int}:
        return rows, columns
    columns = tuple(tuple(map(NetworkId if name == "network" else int, column))
                    for column, name in zip(columns, names))
    return tuple(tuple(values) if row is tuple else row(*values)
                 for values in zip(*columns)), columns


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
        # A numpy level is stored as a Python float, and a list or an
        # array as a tuple; generated levels are plain already.
        if (type(self.intrinsic_performance) is not tuple
                or not set(map(type, self.intrinsic_performance)) <= {float}):
            object.__setattr__(self, "intrinsic_performance", tuple(levels.tolist()))
        edges, columns = _plain_rows(self.edges, "edge", ("source", "target"))
        object.__setattr__(self, "edges", edges)
        sources, targets = array = np.array(columns, dtype=np.intp)
        out_of_range = ((array < 0) | (array >= len(levels))).any(axis=0)
        for bad, what in ((out_of_range, f"out of range for {len(levels)} nodes"),
                          (sources == targets, "a self-loop")):
            if bad.any():
                raise InvalidTopology(f"edge {edges[bad.argmax()]} is {what}")
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
        # Checked once per frozen map, as ``Topology`` checks its edges.
        couplings, (consumer_net, consumer, producer_net, producer) = _plain_rows(
            self.couplings, "coupling", ("network", "node", "network", "node"), Coupling)
        object.__setattr__(self, "couplings", couplings)
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
