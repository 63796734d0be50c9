"""Random directed topologies and cross-network couplings.

Networks are G(n, m)-style uniform samples of exactly m distinct
non-loop directed edges, so node and edge counts are met exactly.
Couplings wire every node of every network to each partner network:
the first coupling per partner is the deterministic backbone
b = a mod |B|, the rest are drawn from a seeded stream.

Both are frozen, so their array forms (``Topology.edge_array``,
``Topology.edges_by_target``, ``InterdependencyMap.coupling_array``)
are derived once per object and shared, read-only, by every federation
built from it.  So is what other modules derive from them: each object
holds one store, ``derived``, which only ``derive_once`` writes, under
a key tagged by the kind of result (a node rule, a disruption pattern,
a coupling plan), and only with a result derived without error.  A
topology checks itself once, when it is made: its network is one
``NetworkId`` accepts (and is stored as its member), the node count and
every node index are integers (a bool is not), every edge joins two
distinct nodes in range, no edge appears twice, and there is one
intrinsic level in [0, 1] per node, each a real number (a bool or a
string is not one); anything else raises ``InvalidTopology``.  So does
a coupling map, when it is made, for a coupling that is not four
values, a node index that is not an integer or a network ``NetworkId``
refuses, and each ``from_json`` for text that is not JSON or a field
at fault.
"""

import functools
import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EdgeCountOverflow, InvalidTopology
from .rng import stream


class NetworkId(str, Enum):
    WATER = "water"
    POWER = "power"
    BUSINESS = "business"


NETWORK_ORDER = (NetworkId.WATER, NetworkId.POWER, NetworkId.BUSINESS)


def _is_index_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_real_type(kind: type) -> bool:
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


def _is_positive_int(value) -> bool:
    """The one rule of every entry point's counts and levels."""
    return _is_index_type(type(value)) and value >= 1


def _as_network(value):
    """``value`` as a ``NetworkId``, or as it is if ``NetworkId`` refuses it."""
    try:
        return NetworkId(value)
    except ValueError:
        return value


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


def _json_object(text: str, fields: tuple[str, ...], error=InvalidTopology) -> dict:
    """The JSON object of ``text``, holding every one of ``fields``;
    ``error`` naming the line of text that is not JSON, or the field
    that is missing."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise error("top level: expected an object")
    for name in fields:
        if name not in doc:
            raise error(f"field '{name}': missing")
    return doc


def _is_list_of(value, length: int | None = None) -> bool:
    return isinstance(value, list) and (length is None or len(value) == length)


@dataclass(frozen=True)
class Topology:
    network_id: NetworkId
    node_count: int
    edges: tuple[tuple[int, int], ...]
    intrinsic_performance: tuple[float, ...]

    def __post_init__(self):
        # Checked once per frozen topology, not per federate built on it.
        # The first edge at fault is named.
        network = _as_network(self.network_id)
        if not isinstance(network, NetworkId):
            raise InvalidTopology(f"field 'network_id': unknown network {network!r}")
        object.__setattr__(self, "network_id", network)
        n = self.node_count
        if not _is_index_type(type(n)):
            raise InvalidTopology(f"node_count must be an integer, got {n!r}")
        # The float cast would take True and '1' as levels.  One test
        # per type of level seen, then a search for the level.
        levels = np.asarray(self.intrinsic_performance, dtype=object).ravel()
        if not all(map(_is_real_type, set(map(type, levels)))):
            level = next(v for v in levels if not _is_real_type(type(v)))
            raise InvalidTopology(f"intrinsic performance level {level!r} is not a real number")
        levels = np.asarray(self.intrinsic_performance, dtype=float)
        if levels.shape != (n,):
            raise InvalidTopology(f"intrinsic performance levels: expected one per node ({n}), "
                                  f"got {levels.size}")
        if not ((levels >= 0.0) & (levels <= 1.0)).all():
            raise InvalidTopology("intrinsic performance levels must lie in [0, 1], "
                                  f"got {self.intrinsic_performance}")
        # The array cast would take 0.5, True and '1' as node indices.
        # One test per type of index seen, then a search for the edge.
        if not all(map(_is_index_type, {type(v) for edge in self.edges for v in edge})):
            edge = next(e for e in self.edges if not all(_is_index_type(type(v)) for v in e))
            raise InvalidTopology(f"edge {edge} has a node index that is not an integer")
        edges = self.edge_array
        out_of_range = ((edges < 0) | (edges >= n)).any(axis=1)
        for bad, what in ((out_of_range, f"out of range for {n} nodes"),
                          (edges[:, 0] == edges[:, 1], "a self-loop")):
            if bad.any():
                raise InvalidTopology(f"edge {self.edges[bad.argmax()]} is {what}")
        # Sorted, a repeated edge sits next to its copy.
        repeated = (np.diff(self.edges_by_target, axis=1) == 0).all(axis=0)
        if repeated.any():
            edge = tuple(self.edges_by_target[:, repeated.argmax()].tolist())
            raise InvalidTopology(f"edge {edge} appears more than once")

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (edges, 2) array of (source, target)."""
        return _read_only(np.array(self.edges, dtype=np.intp).reshape(-1, 2))

    @functools.cached_property
    def edges_by_target(self) -> np.ndarray:
        """The edges as a read-only (2, edges) array, sources in row 0 and
        targets in row 1, sorted by (target, source)."""
        sources, targets = self.edge_array.T
        order = np.lexsort((sources, targets))
        return _read_only(np.array((sources[order], targets[order])))

    @functools.cached_property
    def derived(self) -> dict:
        """The store of ``derive_once``: ``federate.node_rule`` and
        ``disruption.fixed_pattern`` results."""
        return {}

    def to_json(self) -> str:
        doc = {
            "network_id": self.network_id.value,
            "node_count": self.node_count,
            "edges": [list(e) for e in self.edges],
            "intrinsic_performance": list(self.intrinsic_performance),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """The topology ``to_json`` wrote; ``InvalidTopology`` naming the
        line of text that is not JSON, or the field at fault."""
        doc = _json_object(text, ("network_id", "node_count", "edges",
                                  "intrinsic_performance"))
        edges, levels = doc["edges"], doc["intrinsic_performance"]
        if not (_is_list_of(edges) and all(_is_list_of(e, 2) for e in edges)):
            raise InvalidTopology("field 'edges': expected a list of [source, target] pairs")
        if not (_is_list_of(levels) and all(isinstance(x, (int, float))
                                            and not isinstance(x, bool) for x in levels)):
            raise InvalidTopology("field 'intrinsic_performance': expected a list of numbers")
        return cls(
            network_id=doc["network_id"],
            node_count=doc["node_count"],
            edges=tuple(map(tuple, edges)),
            intrinsic_performance=tuple(levels),
        )


class Coupling(NamedTuple):
    """Directed lifeline: consumer node takes the producer node's output."""

    consumer_network: NetworkId
    consumer_node: int
    producer_network: NetworkId
    producer_node: int


@dataclass(frozen=True)
class InterdependencyMap:
    couplings: tuple[Coupling, ...]

    def __post_init__(self):
        # Checked once per frozen map, as ``Topology`` checks its edges:
        # the column unpacking would fail on a coupling of three values
        # and drop a fifth, the array cast would take 0.5, True and '1'
        # as node indices, and a network ``NetworkId`` refuses would
        # fail only at the first build.  One test per type seen, then a
        # search for the first coupling at fault.
        if not set(map(type, self.couplings)) <= {Coupling}:
            for i, c in enumerate(self.couplings):
                if not (isinstance(c, (tuple, list)) and len(c) == 4):
                    raise InvalidTopology(f"coupling {i} {_shown(c)}: expected four values "
                                          "(network, node, network, node)")
        consumer_net, consumer, producer_net, producer = (
            zip(*self.couplings) if self.couplings else ((),) * 4)
        if (all(map(_is_index_type, set(map(type, consumer + producer))))
                and set(map(type, consumer_net + producer_net)) <= {NetworkId}):
            return
        for i, c in enumerate(self.couplings):
            faults = [f"unknown network {v!r}" for v in (c[0], c[2])
                      if not isinstance(_as_network(v), NetworkId)]
            faults += [f"node index {v!r} is not an integer"
                       for v in (c[1], c[3]) if not _is_index_type(type(v))]
            if faults:
                raise InvalidTopology(f"coupling {i} {_shown(c)}: {faults[0]}")

    @functools.cached_property
    def coupling_array(self) -> np.ndarray:
        """The couplings as a read-only (4, couplings) array, one row per
        ``Coupling`` field in field order; networks are positions in
        ``NETWORK_ORDER``."""
        rank = {net: i for i, net in enumerate(NETWORK_ORDER)}.__getitem__
        consumer_net, consumer, producer_net, producer = (
            zip(*self.couplings) if self.couplings else ((),) * 4)
        return _read_only(np.array([list(map(rank, consumer_net)), consumer,
                                    list(map(rank, producer_net)), producer], dtype=np.intp))

    @functools.cached_property
    def derived(self) -> dict:
        """The store of ``derive_once``: ``coordinator.coupling_plan``
        results."""
        return {}

    def to_json(self) -> str:
        doc = {
            "couplings": [
                [c.consumer_network.value, c.consumer_node,
                 c.producer_network.value, c.producer_node]
                for c in self.couplings
            ]
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InterdependencyMap":
        """The map ``to_json`` wrote; ``InvalidTopology`` naming the line
        of text that is not JSON, or the field or coupling at fault."""
        couplings = _json_object(text, ("couplings",))["couplings"]
        if not (_is_list_of(couplings) and all(_is_list_of(c, 4) for c in couplings)):
            raise InvalidTopology("field 'couplings': expected a list of "
                                  "[network, node, network, node] quadruples")
        # A network ``NetworkId`` refuses is kept as it is, for the
        # map's own check to name its coupling.
        return cls(couplings=tuple(
            Coupling(_as_network(c[0]), c[1], _as_network(c[2]), c[3]) for c in couplings))


def generate_topology(network_id: NetworkId, node_count: int,
                      edge_count: int, seed: int) -> Topology:
    """Sample a directed graph with exactly ``edge_count`` distinct non-loop edges."""
    if not _is_positive_int(node_count):
        raise ValueError(f"node_count must be a positive integer, got {node_count!r}")
    if not _is_index_type(type(edge_count)) or edge_count < 0:
        raise ValueError(f"edge_count must be a nonnegative integer, got {edge_count!r}")
    max_edges = node_count * (node_count - 1)
    if edge_count > max_edges:
        raise EdgeCountOverflow(f"{edge_count} edges requested but at most {max_edges} distinct "
                                f"non-loop edges exist for {node_count} nodes")
    rng = stream(seed, f"topology:{network_id.value}")
    # Sample positions in the row-major list of pairs (i, j), i != j,
    # without building it: ``random.sample`` draws from the length alone,
    # so the edges are those of sampling the list itself.  Position k is
    # row i, and column r of the n - 1 columns that skip i.
    edges = []
    for k in rng.sample(range(max_edges), edge_count):
        i, r = divmod(k, node_count - 1)
        edges.append((i, r + (r >= i)))
    return Topology(network_id, node_count, tuple(sorted(edges)), (1.0,) * node_count)


def generate_interdependencies(topologies: list[Topology],
                               couplings_per_node: int,
                               seed: int) -> InterdependencyMap:
    """Wire every node of every network to each partner network.

    Emits ``couplings_per_node`` couplings per (node, partner network):
    a deterministic backbone (producer = node index mod partner size)
    plus uniformly drawn extras.
    """
    if len(topologies) < 2:
        raise ValueError("need at least two topologies to interconnect")
    if not _is_positive_int(couplings_per_node):
        raise ValueError(
            f"couplings_per_node must be a positive integer, got {couplings_per_node!r}")
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
