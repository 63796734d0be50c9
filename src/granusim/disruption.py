"""Disruption event generation.

Two modes: the fixed node pattern reused across every factorial
configuration (one pattern per disruption-size level, drawn once per
topology, seed and size and kept in the topology's one store,
``topology.derive_once``), and a Poisson event stream with exponential
inter-arrival times.
"""

import math
from dataclasses import dataclass

from .errors import (InvalidEvent, InvalidFactor, InvalidTopology, _count, _is_real_type,
                     _node_indices, _of_kind)
from .rng import stream
from .topology import NetworkId, Topology, _network_member, derive_once


@dataclass(frozen=True)
class DisruptionEvent:
    """One disruption of ``nodes`` from ``apply_time`` to ``retract_time``.

    The network is one ``NetworkId`` accepts (stored as its member),
    both times are integers (``errors._count``), the retraction comes
    after the application, and the nodes are at least one (None is
    none), an iterable of integers (``errors._node_indices``),
    distinct and nonnegative; anything else raises ``InvalidEvent``.
    The times and nodes are stored as Python ints.
    """

    apply_time: int
    retract_time: int
    network_id: NetworkId
    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "network_id", _network_member(self.network_id, InvalidEvent))
        for name in ("apply_time", "retract_time"):
            object.__setattr__(self, name,
                               _count(getattr(self, name), InvalidEvent, name, minimum=None))
        if self.retract_time <= self.apply_time:
            raise InvalidEvent(
                f"retract_time {self.retract_time} must exceed apply_time {self.apply_time}")
        nodes = _node_indices(() if self.nodes is None else self.nodes)
        if not nodes:
            raise InvalidEvent("node set must be non-empty")
        if len(set(nodes)) != len(nodes):
            raise InvalidEvent(f"node set has duplicates: {self.nodes}")
        if min(nodes) < 0:
            raise InvalidEvent(f"negative node index in {self.nodes}")
        object.__setattr__(self, "nodes", tuple(map(int, nodes)))


@dataclass(frozen=True)
class DisruptionStreamConfig:
    """``InvalidEvent`` naming the field unless the rate is a finite
    positive real number (a bool or a string is not one; an infinite
    one would never reach the horizon), each range a tuple or list of
    two counts in order and the horizon a count (``errors._count``).
    The ranges are stored as tuples of Python ints and the horizon as a
    Python int."""

    rate: float  # expected events per timestep
    size_range: tuple[int, int]
    rt_range: tuple[int, int]
    horizon: int

    def __post_init__(self):
        if not (_is_real_type(type(self.rate)) and math.isfinite(self.rate) and self.rate > 0):
            raise InvalidEvent(f"rate: must be a finite positive number, got {self.rate!r}")
        for name in ("size_range", "rt_range"):
            given = getattr(self, name)
            bounds = (tuple(_count(bound, InvalidEvent, name) for bound in given)
                      if isinstance(given, (tuple, list)) and len(given) == 2 else ())
            if not bounds or bounds[0] > bounds[1]:
                raise InvalidEvent(f"{name}: must be positive integers (low, high), "
                                   f"got {given!r}")
            object.__setattr__(self, name, bounds)
        object.__setattr__(self, "horizon", _count(self.horizon, InvalidEvent, "horizon"))


def fixed_pattern(ds: int, topology: Topology, seed: int) -> tuple[int, ...]:
    """Deterministic node pattern for one disruption-size level.

    Depends only on (seed, ds, topology); every run at the same size
    level disrupts the same nodes.  The size must be a count
    (``errors._count``), checked on every call; the pattern is drawn
    once per topology (``topology.derive_once``).
    """
    ds = _count(ds, InvalidFactor, "disruption size")
    _of_kind(Topology, topology, InvalidTopology, "topology")
    if ds > topology.node_count:
        raise InvalidFactor(f"disruption size {ds} exceeds node count {topology.node_count}")
    label = f"pattern:{ds}"
    # Keyed on the text the stream is seeded from, so keys are equal
    # exactly when the draws are (the seeds 1 and True are not).
    return derive_once(topology, ("pattern", f"{seed}", label), lambda: tuple(
        sorted(stream(seed, label).sample(range(topology.node_count), ds))))


def poisson_stream(config: DisruptionStreamConfig, topology: Topology,
                   seed: int) -> list[DisruptionEvent]:
    """Poisson event stream: exponential inter-arrivals accumulated from 0.

    Events are truncated at the horizon; arrivals landing on the last
    timestep are dropped because their retraction could not fit.  A
    ``config`` that is not a ``DisruptionStreamConfig`` raises
    ``InvalidEvent``, and a ``topology`` that is not a ``Topology``
    ``InvalidTopology``.
    """
    _of_kind(DisruptionStreamConfig, config, InvalidEvent, "config")
    _of_kind(Topology, topology, InvalidTopology, "topology")
    rng = stream(seed, "poisson")
    events = []
    clock = 0.0
    while True:
        clock += rng.expovariate(config.rate)
        # floor(clock) + 1 >= horizon, tested before the floor, which an
        # infinite clock (a subnormal rate) would overflow.
        if clock >= config.horizon - 1:
            break
        apply_time = math.floor(clock) + 1
        size = min(rng.randint(*config.size_range), topology.node_count)
        rt = rng.randint(*config.rt_range)
        nodes = tuple(sorted(rng.sample(range(topology.node_count), size)))
        events.append(DisruptionEvent(
            apply_time=apply_time,
            retract_time=min(apply_time + rt, config.horizon),
            network_id=topology.network_id,
            nodes=nodes,
        ))
    return events
