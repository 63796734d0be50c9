"""Lockstep advancement of all federates under a synchronization contract.

Federates run freely for ``tg`` internal timesteps, then barrier:
boundary values are collected from every federate (read phase) before
any consumer's foreign inputs are written (write phase), so no federate
ever sees a mix of pre- and post-exchange values.  Between sync
instants no information crosses federate boundaries.

Events are delivered at their exact internal timestep, retractions
before applications, ties broken by network order then node index.
"""

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .disruption import DisruptionEvent
from .errors import ScheduleError, UnknownNode, ZeroBaseline
from .federate import FederateState
from .metrics import MoPTrace
from .topology import NETWORK_ORDER, InterdependencyMap, NetworkId


@dataclass(frozen=True)
class SyncSchedule:
    tg: int
    horizon: int

    def __post_init__(self):
        if self.tg < 1:
            raise ValueError(f"tg must be a positive integer, got {self.tg}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


class Federation:
    """Federate states plus the coupling wiring between them."""

    def __init__(self, federates: dict[NetworkId, FederateState],
                 interdependencies: InterdependencyMap | None = None):
        # Canonical ordering makes the result independent of the
        # registration order of the federates.
        self.order = [n for n in NETWORK_ORDER if n in federates]
        extra = set(federates) - set(self.order)
        if extra:
            raise ValueError(f"unknown network ids: {extra}")
        self.federates = federates
        # Set by the first run: a run mutates the federates, so a second
        # one would start from the end state of the first.
        self.ran = False

        # Slot k of each consumer's foreign_inputs is fed by the producer
        # node at a flat index into the federates' performance vectors
        # laid end to end in ``order``.
        sizes = {net: federates[net].node_count for net in self.order}
        offsets, total = {}, 0
        for net in self.order:
            offsets[net] = total
            total += sizes[net]
        consumer_nodes: dict[NetworkId, list[int]] = {n: [] for n in self.order}
        producers: dict[NetworkId, list[int]] = {n: [] for n in self.order}
        couplings = interdependencies.couplings if interdependencies else ()
        for c in couplings:
            consumer_net, consumer_node, producer_net, producer_node = c
            if consumer_net not in offsets or producer_net not in offsets:
                raise ValueError(f"coupling names a network outside the federation: {c}")
            if not 0 <= producer_node < sizes[producer_net]:
                raise UnknownNode(f"producer node out of range: {c}")
            consumer_nodes[consumer_net].append(consumer_node)
            producers[consumer_net].append(offsets[producer_net] + producer_node)
        self._feds = [federates[net] for net in self.order]
        self._gather = []
        for fed, net in zip(self._feds, self.order):
            fed.set_consumers(consumer_nodes[net])
            if producers[net]:
                self._gather.append((fed, np.array(producers[net], dtype=np.intp)))

    def exchange(self) -> None:
        """Two-phase barrier: read all boundaries, then write all consumers.

        The read phase copies every federate's performance into one
        vector; the write phase gathers each consumer's slots from it
        into its existing ``foreign_inputs`` array and latches the
        foreign channel the consumer's steps add until the next barrier.
        """
        read = np.concatenate([fed.performance for fed in self._feds])
        for fed, index in self._gather:
            read.take(index, out=fed.foreign_inputs)
            fed.latch_foreign_inputs()


def _deliver(federation: Federation, actions: list) -> None:
    # kind 0 = retract, 1 = apply; retractions first, then network order.
    net_rank = {n: i for i, n in enumerate(NETWORK_ORDER)}
    for kind, net, nodes in sorted(
            actions, key=lambda a: (a[0], net_rank[a[1]], a[2])):
        fed = federation.federates[net]
        if kind == 0:
            fed.retract_disruption(nodes)
        else:
            fed.apply_disruption(nodes)


def run(federation: Federation, schedule: SyncSchedule,
        events: list[DisruptionEvent]) -> MoPTrace:
    """Advance the federation to the horizon and return the full MoP trace."""
    steps = run_steps(federation, schedule, events)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def run_steps(federation: Federation, schedule: SyncSchedule,
              events: list[DisruptionEvent]) -> Generator[int, None, MoPTrace]:
    """The loop of ``run`` as a generator, one timestep per ``next``.

    Yields t once timestep t has been delivered, stepped, recorded and,
    at a sync instant, exchanged; the first ``next`` also does the
    set-up.  Returns the MoP trace, whose values are final only then:
    each timestep records its raw performance sums, and the series are
    scaled to percent of baseline once at the end.  Lets a caller
    advance several runs in lockstep.  A federation runs once: set-up
    raises ``ScheduleError`` on one that has run before or on an event
    outside the horizon or on a network outside the federation,
    ``UnknownNode`` on an event naming a node the network lacks, and
    ``ZeroBaseline`` when a network's initial performance sums to zero.
    """
    if federation.ran:
        raise ScheduleError("federation has already run; build a fresh one")
    horizon = schedule.horizon
    actions_at: dict[int, list] = {}
    for ev in events:
        if ev.apply_time > horizon or ev.retract_time > horizon:
            raise ScheduleError(
                f"event at {ev.apply_time}/{ev.retract_time} exceeds horizon {horizon}")
        if ev.network_id not in federation.federates:
            raise ScheduleError(
                f"event at {ev.apply_time} names network {ev.network_id.value!r} "
                "outside the federation")
        federation.federates[ev.network_id].check_nodes(ev.nodes)
        nodes = tuple(sorted(ev.nodes))
        actions_at.setdefault(ev.apply_time, []).append((1, ev.network_id, nodes))
        actions_at.setdefault(ev.retract_time, []).append((0, ev.network_id, nodes))

    feds = [federation.federates[n] for n in federation.order]
    baselines = {n: float(fed.performance.sum())
                 for n, fed in zip(federation.order, feds)}
    for net, baseline in baselines.items():
        if baseline == 0.0:
            raise ZeroBaseline(f"{net.value}: initial performance sums to zero")
    federation.ran = True
    # Raw sums per timestep; ``*= 100.0`` then ``/= baseline`` at the end
    # is the IEEE sequence of ``100.0 * sum / baseline`` per value.
    series = {n: np.empty(horizon + 1) for n in federation.order}
    records = [(fed, series[n]) for n, fed in zip(federation.order, feds)]
    add = np.add.reduce
    for fed, values in records:
        values[0] = add(fed.performance)

    federation.exchange()  # seed foreign inputs with true initial values

    for t in range(1, horizon + 1):
        if t in actions_at:
            _deliver(federation, actions_at[t])
        for fed in feds:
            fed.step()
        for fed, values in records:
            values[t] = add(fed.performance)
        if t % schedule.tg == 0:
            federation.exchange()
        yield t

    for net, values in series.items():
        values *= 100.0
        values /= baselines[net]
    return MoPTrace(networks=tuple(federation.order), series=series,
                    baselines=baselines)
