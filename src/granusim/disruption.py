"""Disruption event generation.

Two modes: the fixed node pattern reused across every factorial
configuration (one pattern per disruption-size level), and a Poisson
event stream with exponential inter-arrival times.
"""

import math
from dataclasses import dataclass

from .errors import InvalidEvent, SizeOverflow
from .rng import stream
from .topology import NetworkId, Topology, _is_index_type


@dataclass(frozen=True)
class DisruptionEvent:
    """One disruption of ``nodes`` from ``apply_time`` to ``retract_time``.

    Both times and every node index are integers (a bool is not one),
    the retraction comes after the application, and the nodes are
    distinct, nonnegative and at least one; anything else raises
    ``InvalidEvent``.
    """

    apply_time: int
    retract_time: int
    network_id: NetworkId
    nodes: tuple[int, ...]

    def __post_init__(self):
        for name in ("apply_time", "retract_time"):
            value = getattr(self, name)
            if not _is_index_type(type(value)):
                raise InvalidEvent(f"{name} must be an integer, got {value!r}")
        if self.retract_time <= self.apply_time:
            raise InvalidEvent(
                f"retract_time {self.retract_time} must exceed apply_time {self.apply_time}")
        if not self.nodes:
            raise InvalidEvent("node set must be non-empty")
        if not all(_is_index_type(type(node)) for node in self.nodes):
            raise InvalidEvent(f"node set has an index that is not an integer: {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidEvent(f"node set has duplicates: {self.nodes}")
        if min(self.nodes) < 0:
            raise InvalidEvent(f"negative node index in {self.nodes}")


@dataclass(frozen=True)
class DisruptionStreamConfig:
    rate: float  # expected events per timestep
    size_range: tuple[int, int]
    rt_range: tuple[int, int]
    horizon: int

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.size_range[0] < 1 or self.size_range[0] > self.size_range[1]:
            raise ValueError(f"bad size_range {self.size_range}")
        if self.rt_range[0] < 1 or self.rt_range[0] > self.rt_range[1]:
            raise ValueError(f"bad rt_range {self.rt_range}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def fixed_pattern(ds: int, topology: Topology, seed: int) -> tuple[int, ...]:
    """Deterministic node pattern for one disruption-size level.

    Depends only on (seed, ds, topology); every run at the same size
    level disrupts the same nodes.  The size is checked on every call;
    the pattern is drawn on the first and then read from
    ``topology.patterns``.
    """
    if ds < 1:
        raise ValueError(f"disruption size must be positive, got {ds}")
    if ds > topology.node_count:
        raise SizeOverflow(
            f"disruption size {ds} exceeds node count {topology.node_count}")
    label = f"pattern:{ds}"
    # Keyed on the text the stream is seeded from, so keys are equal
    # exactly when the draws are (the seeds 1 and True are not).
    key = (f"{seed}", label)
    pattern = topology.patterns.get(key)
    if pattern is None:
        rng = stream(seed, label)
        pattern = topology.patterns[key] = tuple(
            sorted(rng.sample(range(topology.node_count), ds)))
    return pattern


def poisson_stream(config: DisruptionStreamConfig, topology: Topology,
                   seed: int) -> list[DisruptionEvent]:
    """Poisson event stream: exponential inter-arrivals accumulated from 0.

    Events are truncated at the horizon; arrivals landing on the last
    timestep are dropped because their retraction could not fit.
    """
    rng = stream(seed, "poisson")
    events = []
    clock = 0.0
    while True:
        clock += rng.expovariate(config.rate)
        apply_time = math.floor(clock) + 1
        if apply_time >= config.horizon:
            break
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
