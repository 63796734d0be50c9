"""Lockstep advancement of all federates under a synchronization contract.

Federates run freely for ``tg`` internal timesteps, then barrier:
boundary values are collected from every federate (read phase) before
any consumer's foreign inputs are written (write phase), so no federate
ever sees a mix of pre- and post-exchange values.  Between sync
instants no information crosses federate boundaries.  The federation
is the one owner of the foreign channel: it takes its checked slot
indices from the map's coupling plan (``coupling_plan``, derived with
numpy from ``coupling_array`` once per map, network order and node
counts), and holds one slot vector and one step-term vector for every
federate.
Each federate's ``foreign_inputs`` and step term are views into them,
so one gather and one latch serve every consumer, at the barrier and
once when the federation is built.

Each federate writes its states into its own ring (``federate``), and
the MoP series sum ``MOP_BLOCK`` of its rows at once, bit for bit.

Events are delivered at their exact internal timestep, retractions
before applications, ties broken by network order then node index; each
timestep's actions are put in that order once, at set-up.

A run holds the federation at an exact fixed point.  After the first
timestep, if no event came at t = 1 and every federate's ring holds in
every row, byte for byte, the bits its step just wrote, no step or
barrier can change a bit until the first event: each step reads a row
that holds those bits and adds the term latched from them.  ``run_steps``
then sets ``held`` on the federation and every federate until that
event, and held steps and barriers only count.  A start that is not a
fixed point never holds.
"""

from collections.abc import Generator
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .disruption import DisruptionEvent
from .errors import InvalidFactor, ScheduleError, UnknownNode, ZeroBaseline
from .federate import MOP_BLOCK, FederateState
from .metrics import MoPTrace
from .topology import NETWORK_ORDER, InterdependencyMap, NetworkId, _read_only


def _is_positive_int(value) -> bool:
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class SyncSchedule:
    """Barrier every ``tg`` timesteps up to ``horizon``.

    Both must be integers of at least 1, and a bool is not one: a bad
    ``tg`` raises ``InvalidFactor`` and a bad ``horizon``
    ``ScheduleError``.
    """

    tg: int
    horizon: int

    def __post_init__(self):
        if not _is_positive_int(self.tg):
            raise InvalidFactor(f"tg: must be a positive integer, got {self.tg!r}")
        if not _is_positive_int(self.horizon):
            raise ScheduleError(f"horizon: must be a positive integer, got {self.horizon!r}")


class CouplingPlan(NamedTuple):
    """The slot indices of a federation (``Federation``), read-only.

    ``producers`` and ``consumers`` hold, per slot, the flat index of its
    producer and consumer node in the federates' performance vectors
    laid end to end in network order, whose bounds are ``offsets``;
    consumer ``i`` in that order owns slots ``slot_bounds[i]`` to
    ``slot_bounds[i + 1]``.  ``slot_count`` is each node's number of
    slots and ``divisor`` the same, at least 1.
    """

    producers: np.ndarray
    consumers: np.ndarray
    offsets: np.ndarray
    slot_bounds: np.ndarray
    slot_count: np.ndarray
    divisor: np.ndarray


def _derive_plan(interdependencies: InterdependencyMap | None,
                 order: tuple[NetworkId, ...], sizes: tuple[int, ...]) -> CouplingPlan:
    # Slot k of each consumer's foreign_inputs is fed by the producer
    # node at a flat index into the federates' performance vectors
    # laid end to end in ``order``.  The slots are the couplings in
    # map order, stably grouped by consumer network in ``order``.
    sizes = np.array(sizes, dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    # Position in ``order`` of each network of NETWORK_ORDER, -1 if absent.
    position = np.full(len(NETWORK_ORDER), -1)
    position[[NETWORK_ORDER.index(net) for net in order]] = range(len(order))
    consumer_net, consumer_node, producer_net, producer_node = (
        np.zeros((4, 0), np.intp) if interdependencies is None
        else interdependencies.coupling_array)
    consumer_at, producer_at = position[consumer_net], position[producer_net]
    outside = (consumer_at < 0) | (producer_at < 0)
    # Position -1 reads the trailing 0, so a node of an outside
    # network is out of range too.
    limit = np.append(sizes, 0)
    bad_producer = outside | (producer_node < 0) | (producer_node >= limit[producer_at])
    bad_consumer = (consumer_node < 0) | (consumer_node >= limit[consumer_at])
    for end, bad in (("producer", bad_producer), ("consumer", bad_consumer)):
        if bad.any():
            first = bad.argmax()
            c = interdependencies.couplings[first]
            if outside[first]:
                raise ValueError(f"coupling names a network outside the federation: {c}")
            raise UnknownNode(f"{end} node out of range: {c}")
    by_consumer = np.argsort(consumer_at, kind="stable")
    consumers = (offsets[consumer_at] + consumer_node)[by_consumer]
    slot_count = np.bincount(consumers, minlength=offsets[-1])
    return CouplingPlan(*map(_read_only, (
        (offsets[producer_at] + producer_node)[by_consumer],
        consumers,
        offsets,
        np.searchsorted(consumer_at[by_consumer], range(len(order) + 1)),
        slot_count,
        np.maximum(slot_count, 1.0))))


def coupling_plan(interdependencies: InterdependencyMap | None,
                  order: tuple[NetworkId, ...], sizes: tuple[int, ...]) -> CouplingPlan:
    """The coupling plan of federates of ``sizes`` nodes in ``order``,
    checked and derived on first use and then read from the map's
    ``coupling_plans``.  A map at fault raises on every call (see
    ``Federation``), since only a plan derived without error is stored.
    Without a map there are no slots, and nothing is stored."""
    if interdependencies is None:
        return _derive_plan(None, order, sizes)
    key = (order, sizes)
    plan = interdependencies.coupling_plans.get(key)
    if plan is None:
        plan = interdependencies.coupling_plans[key] = _derive_plan(
            interdependencies, order, sizes)
    return plan


class Federation:
    """Federate states plus the coupling wiring between them.

    The slots are the map's couplings, grouped by consumer network in
    network order and in map order within one.  Building a federation
    rebinds each federate's ``foreign_inputs``, ``term`` and
    ``uncoupled`` to its share of the barrier.  A coupling that names a
    network outside the federation raises ``ValueError`` and a producer
    node out of range ``UnknownNode``; only then is a consumer node out
    of range looked for, and it raises ``UnknownNode`` too.  The first
    coupling at fault is named.  The slot indices come from the map's
    ``coupling_plan``, shared by every federation of one map, network
    order and node counts; the slot and term vectors are the
    federation's own.
    """

    def __init__(self, federates: dict[NetworkId, FederateState],
                 interdependencies: InterdependencyMap | None = None):
        # Canonical ordering makes the result independent of the
        # registration order of the federates.
        self.order = [n for n in NETWORK_ORDER if n in federates]
        extra = set(federates) - set(self.order)
        if extra:
            raise ValueError(f"unknown network ids: {extra}")
        self.federates = federates

        self._feds = [federates[net] for net in self.order]
        sizes = tuple(fed.node_count for fed in self._feds)
        plan = coupling_plan(interdependencies, tuple(self.order), sizes)
        # numpy's ``take`` and ``bincount`` copy a read-only index array
        # on every call, so each federation copies them once.
        self._producers, self._consumers = plan.producers.copy(), plan.consumers.copy()
        self._divisor = plan.divisor
        # One barrier for the whole federation: the slot vector holds
        # every consumer's foreign_inputs end to end in ``order``, the
        # term vector every node's step term, and each federate keeps
        # views into both.  A node without slots renormalizes w_ext away.
        offsets, slot_bounds = plan.offsets, plan.slot_bounds
        self._w_ext = np.repeat([fed.w_ext for fed in self._feds], sizes)
        self._base = np.concatenate([fed.base for fed in self._feds])
        self._slots = np.ones(len(self._producers))
        self._terms = np.empty(offsets[-1])
        for i, fed in enumerate(self._feds):
            fed.foreign_inputs = self._slots[slot_bounds[i]:slot_bounds[i + 1]]
            fed.term = self._terms[offsets[i]:offsets[i + 1]]
            uncoupled = plan.slot_count[offsets[i]:offsets[i + 1]] == 0
            fed.uncoupled = uncoupled if uncoupled.any() else None
        self._latch()
        # Set and cleared by ``run_steps`` only (module docstring).
        self.held = False

    def exchange(self) -> None:
        """Two-phase barrier: read all boundaries, then write all consumers.

        The read phase copies every federate's performance into one
        vector.  The write phase gathers every consumer slot from it
        into the federation's slot vector, then latches every node's
        step term (``_latch``).  Each federate's ``foreign_inputs`` and
        step term are views into those two vectors, so its steps add the
        new term until the next barrier.  Six numpy calls, whatever the
        number of federates.  A held federation returns at once: it
        would gather the same slots and latch the same terms.
        """
        if self.held:
            return
        read = np.concatenate([fed.performance for fed in self._feds])
        read.take(self._producers, out=self._slots)
        self._latch()

    def _hold(self, held: bool) -> None:
        """Set ``held`` on the federation and on each of its federates."""
        self.held = held
        for fed in self._feds:
            fed.held = held

    def _latch(self) -> None:
        """Write every node's step term ``base + w_ext * mean(slots)``.

        Slot values are summed per node by ``bincount`` in slot order,
        divided by the node's slot count (1 for a node without slots,
        whose term is ``base`` alone), scaled by ``w_ext`` and added to
        ``base``, in place in the term vector.
        """
        np.divide(np.bincount(self._consumers, weights=self._slots,
                              minlength=len(self._terms)),
                  self._divisor, out=self._terms)
        self._terms *= self._w_ext
        self._terms += self._base


def _deliver(federation: Federation, actions: list) -> None:
    # kind 0 = retract, 1 = apply; ``run_steps`` sorted them at set-up.
    for kind, net, nodes in actions:
        fed = federation.federates[net]
        if kind == 0:
            fed.retract_disruption(nodes)
        else:
            fed.apply_disruption(nodes)


def run(federation: Federation, schedule: SyncSchedule,
        events: list[DisruptionEvent]) -> MoPTrace:
    """Advance the federation to the horizon and return the full MoP trace."""
    advance = run_steps(federation, schedule, events).__next__
    try:
        while True:
            advance()
    except StopIteration as done:
        return done.value


def run_steps(federation: Federation, schedule: SyncSchedule,
              events: list[DisruptionEvent]) -> Generator[int, None, MoPTrace]:
    """The loop of ``run`` as a generator, one timestep per ``next``.

    Yields t once timestep t has been delivered, stepped, recorded and,
    at a sync instant, exchanged; the first ``next`` also does the
    set-up.  Returns the MoP trace, whose values are final only then.
    Lets a caller advance several runs in lockstep.  Timestep t is each
    federate's step t - 1, which writes its ring row ``(t - 1) % R``.
    Every ``MOP_BLOCK`` timesteps (and at the horizon) one row-wise
    ``np.add.reduce`` per network sums the rows just written (contiguous,
    as ``R`` is a multiple of ``MOP_BLOCK``) with the bits of summing
    each state on its own; the sums become percent of baseline at the
    end.  That alignment needs unstepped federates, so a federation runs
    once: set-up raises ``ScheduleError`` on one with a federate that
    has stepped before, on an event outside timesteps 1 to the horizon
    or on a network outside the federation, ``UnknownNode`` on an event
    naming a node the network lacks, and ``ZeroBaseline`` when a
    network's initial performance sums to zero.

    The hold (module docstring) is tested once, after timestep 1: its
    fresh rings are one tile, so comparing each whole ring's ``uint64``
    bits with the row just written tests every row the hold reads.  It
    is cleared before the first event is delivered, and when the run
    returns or is closed, so a federate stepped alone never holds.
    """
    feds = [federation.federates[n] for n in federation.order]
    if any(fed.steps for fed in feds):
        raise ScheduleError("federation has already stepped; build a fresh one")
    horizon, tg = schedule.horizon, schedule.tg
    actions_at: dict[int, list] = {}
    for ev in events:
        # retract_time > apply_time, so both lie in 1..horizon.
        if ev.apply_time < 1 or ev.retract_time > horizon:
            raise ScheduleError(
                f"event at {ev.apply_time}/{ev.retract_time} outside timesteps 1..{horizon}")
        if ev.network_id not in federation.federates:
            raise ScheduleError(
                f"event at {ev.apply_time} names network {ev.network_id.value!r} "
                "outside the federation")
        federation.federates[ev.network_id].check_nodes(ev.nodes)
        nodes = tuple(sorted(ev.nodes))
        actions_at.setdefault(ev.apply_time, []).append((1, ev.network_id, nodes))
        actions_at.setdefault(ev.retract_time, []).append((0, ev.network_id, nodes))
    # Delivery order: retractions first, then network order, then nodes.
    for actions in actions_at.values():
        actions.sort(key=lambda a: (a[0], NETWORK_ORDER.index(a[1]), a[2]))

    baselines = {n: float(fed.performance.sum()) for n, fed in zip(federation.order, feds)}
    for net, baseline in baselines.items():
        if baseline == 0.0:
            raise ZeroBaseline(f"{net.value}: initial performance sums to zero")
    # Raw sums per timestep; ``*= 100.0`` then ``/= baseline`` at the end
    # is the IEEE sequence of ``100.0 * sum / baseline`` per value.
    series = {n: np.empty(horizon + 1) for n in federation.order}
    add = np.add.reduce
    for fed, values in zip(feds, series.values()):
        values[0] = add(fed.performance)

    federation.exchange()  # seed foreign inputs with true initial values

    try:
        for start in range(1, horizon + 1, MOP_BLOCK):
            stop = min(start + MOP_BLOCK, horizon + 1)
            for t in range(start, stop):
                if t in actions_at:
                    federation._hold(False)
                    _deliver(federation, actions_at[t])
                for fed in feds:
                    fed.step()
                if t % tg == 0:
                    federation.exchange()
                if t == 1 and t not in actions_at:
                    federation._hold(all(
                        (fed.states.view(np.uint64) == fed.performance.view(np.uint64)).all()
                        for fed in feds))
                yield t
            for values, fed in zip(series.values(), feds):
                row = (start - 1) % len(fed.states)
                add(fed.states[row:row + stop - start], axis=1, out=values[start:stop])
    finally:
        federation._hold(False)

    for net, values in series.items():
        values *= 100.0
        values /= baselines[net]
    return MoPTrace(networks=tuple(federation.order), series=series,
                    baselines=baselines)
