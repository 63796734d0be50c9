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
holds a dict per derivation (``Topology.node_rules``,
``Topology.patterns``, ``InterdependencyMap.coupling_plans``), which
only the deriving function fills, and only with a result it derived
without error.  A topology checks itself once, when it is made: the
node count and every node index are integers (a bool is not), every
edge joins two distinct nodes in range, no edge appears twice, and
there is one intrinsic level in [0, 1] per node; anything else raises
``InvalidTopology``.
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Topology:
    network_id: NetworkId
    node_count: int
    edges: tuple[tuple[int, int], ...]
    intrinsic_performance: tuple[float, ...]

    def __post_init__(self):
        # Checked once per frozen topology, not per federate built on it.
        # The first edge at fault is named.
        n = self.node_count
        if not _is_index_type(type(n)):
            raise InvalidTopology(f"node_count must be an integer, got {n!r}")
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
    def node_rules(self) -> dict:
        """Storage of ``federate.node_rule``: the node rule per weights."""
        return {}

    @functools.cached_property
    def patterns(self) -> dict:
        """Storage of ``disruption.fixed_pattern``: the pattern per seed
        and size."""
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
        doc = json.loads(text)
        return cls(
            network_id=NetworkId(doc["network_id"]),
            node_count=doc["node_count"],
            edges=tuple((e[0], e[1]) for e in doc["edges"]),
            intrinsic_performance=tuple(doc["intrinsic_performance"]),
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
    def coupling_plans(self) -> dict:
        """Storage of ``coordinator.coupling_plan``: the plan per network
        order and node counts."""
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
        doc = json.loads(text)
        return cls(couplings=tuple(
            Coupling(NetworkId(c[0]), c[1], NetworkId(c[2]), c[3])
            for c in doc["couplings"]
        ))


def generate_topology(network_id: NetworkId, node_count: int,
                      edge_count: int, seed: int) -> Topology:
    """Sample a directed graph with exactly ``edge_count`` distinct non-loop edges."""
    if node_count < 1:
        raise ValueError(f"node_count must be positive, got {node_count}")
    if edge_count < 0:
        raise ValueError(f"edge_count must be non-negative, got {edge_count}")
    max_edges = node_count * (node_count - 1)
    if edge_count > max_edges:
        raise EdgeCountOverflow(
            f"{edge_count} edges requested but at most {max_edges} distinct "
            f"non-loop edges exist for {node_count} nodes"
        )
    rng = stream(seed, f"topology:{network_id.value}")
    # Sample positions in the row-major list of pairs (i, j), i != j,
    # without building it: ``random.sample`` draws from the length alone,
    # so the edges are those of sampling the list itself.  Position k is
    # row i, and column r of the n - 1 columns that skip i.
    edges = []
    for k in rng.sample(range(max_edges), edge_count):
        i, r = divmod(k, node_count - 1)
        edges.append((i, r + (r >= i)))
    edges = tuple(sorted(edges))
    return Topology(
        network_id=network_id,
        node_count=node_count,
        edges=edges,
        intrinsic_performance=(1.0,) * node_count,
    )


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
    if couplings_per_node < 1:
        raise ValueError("couplings_per_node must be positive")
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
