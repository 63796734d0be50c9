"""Lockstep advancement of all federates under a synchronization contract.

Federates run freely for ``tg`` internal timesteps, then barrier:
boundary values are collected from every federate (read phase) before
any consumer's foreign inputs are written (write phase), so no federate
ever sees a mix of pre- and post-exchange values.  Between sync
instants no information crosses federate boundaries.  A federation is
built from its federates alone, each of the network its topology names,
and it binds each of them: a federate joins one federation.  The
federation is the one owner of the foreign channel.  Its slots form one
grid of K rows by N columns, N being the federation's nodes and K the
most couplings on any node: column i holds node i's slot values in map
order, padded with 0.0.  The grid's index comes from the map's coupling
plan (``coupling_plan``, derived with numpy from ``coupling_array`` once
per map, network order and node counts, and kept in the map's one
store, ``topology.derive_once``); a federation built without a map
reads the plans of ``NO_COUPLINGS``, which has none.  Each federate's
``foreign_inputs`` is its block of the grid and its step term a slice
of the federation's term vector, so one gather into the grid and one
ordered sum of its rows serve every consumer, at the barrier and once
when the federation is built.

The federation owns one ring of states, R rows of N and one trailing
column of 0.0, R the largest of its federates' rings (``federate``),
and each federate's ``states`` is its column block of it.  The
federation counts its own timesteps.  A timestep (``Federation.step``)
steps every federate, which writes only its in-network product into
its block of ring row ``count % R``, then runs the affine tail once
over the row's N states: add the term vector, renormalize the
uncoupled nodes, clamp, and mask the disrupted nodes while any is
down.  Between barriers the federates of one timestep are independent,
so the tail of all of them is one set of numpy calls, each element
taking the operations a federate stepped alone takes.  The MoP series
sum ``MOP_BLOCK`` of each federate's rows at once, bit for bit.  The
barrier gathers its slots straight from the full row the last
timestep wrote, whose trailing 0.0 is what a padding entry reads.  It
writes only the grid and the term vector, never the ring, so every
slot is read before any consumer's term is written.

Events are delivered at their exact internal timestep, retractions
before applications, ties broken by network order then node index; each
timestep's actions are put in that order once, at set-up.

A run holds the federation at an exact fixed point.  After the first
timestep, if no event came at t = 1 and the ring holds in every row,
byte for byte, the bits that timestep just wrote, no step or
barrier can change a bit until the first event: each step reads a row
that holds those bits and adds the term latched from them.  ``run_steps``
then sets ``held`` on the federation and every federate until that
event, and held steps and barriers only count.  A start that is not a
fixed point never holds.
"""

from collections.abc import Generator, Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disruption import DisruptionEvent
from .errors import (MAX_HORIZON, InvalidEvent, InvalidFactor, InvalidTopology, ScheduleError,
                     UnknownNode, ZeroBaseline, _count, _items_of, _of_kind)
from .federate import MOP_BLOCK, FederateState, affine_tail
from .metrics import MoPTrace
from .topology import NETWORK_ORDER, InterdependencyMap, NetworkId, _read_only, derive_once


@dataclass(frozen=True)
class SyncSchedule:
    """Barrier every ``tg`` timesteps up to ``horizon``.

    Both are counts (``errors._count``), stored as Python ints, the
    horizon at most ``errors.MAX_HORIZON``: a bad ``tg`` raises
    ``InvalidFactor`` and a bad ``horizon`` ``ScheduleError``.
    """

    tg: int
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "tg", _count(self.tg, InvalidFactor, "tg"))
        object.__setattr__(self, "horizon", _count(self.horizon, ScheduleError, "horizon",
                                                   maximum=MAX_HORIZON))


class CouplingPlan(NamedTuple):
    """The slot grid index of a federation (``Federation``), read-only.

    Nodes are numbered by their flat index in the federates'
    performance vectors laid end to end in network order, whose bounds
    are ``offsets``; N is their number.  ``index`` has K rows and N
    columns, K being the most couplings on any node (0 without any):
    entry ``(j, i)`` is the flat index of the producer of node i's j-th
    coupling in map order, or N once node i has no more couplings.
    ``slot_count`` is each node's number of couplings and ``divisor``
    the same, at least 1.
    """

    index: np.ndarray
    offsets: np.ndarray
    slot_count: np.ndarray
    divisor: np.ndarray


#: The map of a federation built without one: no couplings, so no slots.
NO_COUPLINGS = InterdependencyMap(couplings=())


def _derive_plan(interdependencies: InterdependencyMap,
                 order: tuple[NetworkId, ...], sizes: tuple[int, ...]) -> CouplingPlan:
    # Nodes are numbered by their flat index into the federates'
    # performance vectors laid end to end in ``order``.
    sizes = np.array(sizes, dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    # Position in ``order`` of each network of NETWORK_ORDER, -1 if absent.
    position = np.full(len(NETWORK_ORDER), -1)
    position[[NETWORK_ORDER.index(net) for net in order]] = range(len(order))
    consumer_net, consumer_node, producer_net, producer_node = interdependencies.coupling_array
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
                raise InvalidTopology(f"coupling names a network outside the federation: {c}")
            raise UnknownNode(f"{end} node out of range: {c}")
    total = offsets[-1]
    consumers = offsets[consumer_at] + consumer_node
    slot_count = np.bincount(consumers, minlength=total)
    # A stable sort by consumer keeps map order within each node; a
    # coupling's row is its place in that order less its node's first.
    by_consumer = np.argsort(consumers, kind="stable")
    grouped = consumers[by_consumer]
    rank = np.arange(len(grouped)) - (np.cumsum(slot_count) - slot_count)[grouped]
    index = np.full((slot_count.max(initial=0), total), total, dtype=np.intp)
    index[rank, grouped] = (offsets[producer_at] + producer_node)[by_consumer]
    return CouplingPlan(*map(_read_only, (
        index, offsets, slot_count, np.maximum(slot_count, 1.0))))


def coupling_plan(interdependencies: InterdependencyMap,
                  order: tuple[NetworkId, ...], sizes: tuple[int, ...]) -> CouplingPlan:
    """The coupling plan of federates of ``sizes`` nodes in ``order``,
    checked and derived once per map (``topology.derive_once``).  A map
    at fault raises on every call (see ``Federation``), since only a
    plan derived without error is stored."""
    return derive_once(interdependencies, ("plan", order, sizes),
                       lambda: _derive_plan(interdependencies, order, sizes))


class Federation:
    """Federate states plus the coupling wiring between them.

    Built from an iterable of ``FederateState``s in any order, each of
    the network of its topology; ``federates`` maps each network to its
    federate in network order (``order``).  No federate, an item that
    is not a ``FederateState``, two federates of one network, a
    federate that another federation has bound (``FederateState.bound``),
    one that has stepped (the federation's ring starts from every
    federate's intrinsic state) or a map that is not an
    ``InterdependencyMap`` raises ``InvalidTopology``, before any
    federate is bound.

    The slots form one grid of K rows and N columns.  N is the number of
    nodes, laid end to end in network order, and K the most couplings
    on any node.  Column i holds node i's slot values, its couplings in
    map order, and then 0.0 in each row it has no coupling for.  The
    grid takes K x N values, so a map that gives one node far more
    couplings than the rest (as a hand-built map may) pays for its busiest
    node in every column.  Building a federation binds each federate:
    it rebinds its ``foreign_inputs`` to its (K, n) block of the grid, a
    view, its ``term`` and ``uncoupled`` to its share of the barrier,
    and its ``states``, ``performance`` and keep mask to its column
    block of the federation's ring and keep mask, and marks it
    ``bound``; a bound federate's step takes its ring row from the
    federation's timestep count.  A coupling that names a network
    outside the federation raises ``InvalidTopology`` and a producer
    node out of range ``UnknownNode``; only then is a consumer node out
    of range looked for, and it raises ``UnknownNode`` too.  The first
    coupling at fault is named.  The grid index comes from the map's
    ``coupling_plan``, shared by every federation of one map, network
    order and node counts (``NO_COUPLINGS`` when built without a map);
    the grid, the term vector and the ring are the federation's own.
    """

    def __init__(self, federates: Iterable[FederateState],
                 interdependencies: InterdependencyMap = NO_COUPLINGS):
        given = {}
        for fed in _items_of(FederateState, federates, InvalidTopology, "federates"):
            net = fed.topology.network_id
            if net in given:
                raise InvalidTopology(f"field 'federates': two federates of network {net.value!r}")
            if fed.bound:
                raise InvalidTopology(f"field 'federates': the {net.value!r} federate is bound "
                                      "by another federation; build fresh federates")
            if fed.steps:
                raise InvalidTopology(f"field 'federates': the {net.value!r} federate has "
                                      "stepped; build fresh federates")
            given[net] = fed
        if not given:
            raise InvalidTopology("field 'federates': a federation needs at least one federate")
        _of_kind(InterdependencyMap, interdependencies, InvalidTopology, "interdependencies")
        # Canonical ordering makes the result independent of the
        # registration order of the federates.
        self.order = [n for n in NETWORK_ORDER if n in given]
        self.federates = {net: given[net] for net in self.order}

        self._feds = list(self.federates.values())
        sizes = tuple(fed.node_count for fed in self._feds)
        plan = coupling_plan(interdependencies, tuple(self.order), sizes)
        # numpy's ``take`` copies a read-only index array on every call,
        # so each federation copies it once.
        self._index = plan.index.copy()
        self._divisor = plan.divisor
        # One barrier for the whole federation.  Each federate keeps
        # views into the grid and the term vector.  A node without
        # slots renormalizes w_ext away.
        offsets = plan.offsets
        total = offsets[-1]
        self._w_ext = np.repeat([fed.w_ext for fed in self._feds], sizes)
        self._base = np.concatenate([fed.base for fed in self._feds])
        self._grid = np.empty(self._index.shape)
        self._terms = np.empty(total)
        # One ring for the whole federation, R rows of N states, R the
        # largest of the federates' rings, each row starting as the
        # intrinsic states and ending in the 0.0 that padding entries
        # read; each federate keeps its column block of it, and of the
        # keep mask.  The affine tail of every step runs once over a
        # row's N states (``step``), and the barrier gathers from the
        # full row (``exchange``).  The timestep count is one list item
        # that the bound federates share, so each step reads it.
        self._ring = np.tile(np.concatenate([fed.intrinsic for fed in self._feds] + [[0.0]]),
                             (max(len(fed.states) for fed in self._feds), 1))
        # Views made once: a list index is cheaper.
        self._rows = list(self._ring)
        self._node_rows = list(self._ring[:, :total])
        self._clock = [0]
        self._keep = np.concatenate([fed._keep for fed in self._feds])
        self._local_weight = np.repeat([fed._local_weight for fed in self._feds], sizes)
        self._ones = np.ones(total)
        uncoupled = plan.slot_count == 0
        self._uncoupled = uncoupled if uncoupled.any() else None
        for i, fed in enumerate(self._feds):
            nodes = slice(offsets[i], offsets[i + 1])
            fed.foreign_inputs = self._grid[:, nodes]
            fed.term = self._terms[nodes]
            fed.uncoupled = uncoupled[nodes] if uncoupled[nodes].any() else None
            fed.states = self._ring[:, nodes]
            fed._rows = list(fed.states)
            fed.performance = fed._rows[-1]
            fed._keep = self._keep[nodes]
            fed._clock = self._clock
            fed.bound = True
        # Every slot holds 1.0 until the first barrier, padding 0.0.
        self._latch(np.append(self._ones, 0.0))
        # Set and cleared by ``run_steps`` only (module docstring).
        self.held = False

    def step(self) -> None:
        """Advance every federate by one internal timestep.

        Timestep ``count`` (the federation's own count, from 0) writes
        ring row ``count % R``: each federate's ``step`` writes only the
        in-network product into its block of that row; then the affine
        tail (``federate.affine_tail``) runs once over the row's N
        states: add the term vector, divide the uncoupled nodes by their
        ``w_int + w_in``, clamp at 1 and, while any node is down, apply
        the keep mask.  Each element takes the same operations as in an
        unbound federate's step.  A held federation skips the tail, as
        its held federates only count, but counts the timestep.
        """
        clock = self._clock
        count = clock[0]
        row = self._node_rows[count % len(self._node_rows)]
        down = False
        for fed in self._feds:
            fed.step()
            down |= fed._any_down
        clock[0] = count + 1
        if not self.held:
            affine_tail(row, self._terms, self._local_weight, self._uncoupled, self._ones,
                        self._keep if down else None)

    def exchange(self) -> None:
        """Two-phase barrier: read all boundaries, then write all consumers.

        The read phase gathers every slot into the grid straight from
        the full ring row the last ``step`` wrote, or row R - 1 before
        the first: every federate's ``performance`` then, and the
        trailing 0.0.  The write phase (``_latch``) then latches every
        node's step term from the grid.  Neither writes the ring, so
        every slot is read before any term is written.  Each federate's
        ``foreign_inputs`` and step term are views into the grid and the
        term vector, so its steps add the new term until the next
        barrier.  A value reaches the barrier only in the ring: a
        caller that sets a producer's values writes them into its
        ``performance`` in place.  Five numpy calls in all, whatever
        the number of federates.  A held federation returns at once: it
        would gather the same slots and latch the same terms.
        """
        if self.held:
            return
        rows = self._rows
        self._latch(rows[self._clock[0] % len(rows) - 1])

    def _hold(self, held: bool) -> None:
        """Set ``held`` on the federation and on each of its federates."""
        self.held = held
        for fed in self._feds:
            fed.held = held

    def _latch(self, values: np.ndarray) -> None:
        """Gather the grid from ``values``, every node's value laid end
        to end in network order and then 0.0, and write every node's
        step term ``base + w_ext * mean(slots)``.

        The gather clips instead of raising, so it writes the grid in
        place without a buffer; the plan has checked every index, so
        none is clipped.  The grid's rows are summed in order from 0.0:
        each node's slot values in map order, then +0.0 per padding
        entry, which changes no value.  That is the sequence of a
        ``bincount`` over the slots in map order, so the sums are the
        same bits.  They are divided by the node's slot count (1 for a
        node without slots, whose term is ``base`` alone), scaled by
        ``w_ext`` and added to ``base``, in place in the term vector.
        """
        values.take(self._index, out=self._grid, mode="clip")
        np.add.reduce(self._grid, axis=0, out=self._terms, initial=0.0)
        self._terms /= self._divisor
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
        events: Iterable[DisruptionEvent]) -> MoPTrace:
    """Advance the federation to the horizon and return the full MoP trace."""
    advance = run_steps(federation, schedule, events).__next__
    try:
        while True:
            advance()
    except StopIteration as done:
        return done.value


def run_steps(federation: Federation, schedule: SyncSchedule,
              events: Iterable[DisruptionEvent]) -> Generator[int, None, MoPTrace]:
    """The loop of ``run`` as a generator, one timestep per ``next``.

    Yields t once timestep t has been delivered, stepped, recorded and,
    at a sync instant, exchanged; the first ``next`` also does the
    set-up.  Returns the MoP trace, whose values are final only then.
    Lets a caller advance several runs in lockstep.  Timestep t is
    ``federation.step()`` at the federation's count t - 1, which writes
    ring row ``(t - 1) % R``.
    Every ``MOP_BLOCK`` timesteps (and at the horizon) one row-wise
    ``np.add.reduce`` per network sums the rows just written (contiguous,
    as ``R`` is a multiple of ``MOP_BLOCK``) with the bits of summing
    each state on its own; the sums become percent of baseline at the
    end.  That alignment needs unstepped federates, so a federation runs
    once: set-up raises ``ScheduleError`` on one with a federate that
    has stepped before, on an event outside timesteps 1 to the horizon
    or on a network outside the federation, ``UnknownNode`` on an event
    naming a node the network lacks, and ``ZeroBaseline`` when a
    network's initial performance sums to zero.  Before those, a
    ``federation`` that is not a ``Federation`` raises
    ``InvalidTopology``, a ``schedule`` that is not a ``SyncSchedule``
    ``ScheduleError``, and ``events`` that are not an iterable of
    ``DisruptionEvent`` ``InvalidEvent``.  Each network's baseline is
    row 0 of its series.

    The hold (module docstring) is tested once, after timestep 1: the
    fresh ring is one tile, so comparing the whole ring's ``uint64``
    bits with the row just written tests every row the hold reads.  It
    is cleared before the first event is delivered, and when the run
    returns or is closed, so a federate stepped alone never holds.
    """
    _of_kind(Federation, federation, InvalidTopology, "federation")
    _of_kind(SyncSchedule, schedule, ScheduleError, "schedule")
    events = _items_of(DisruptionEvent, events, InvalidEvent, "events")
    feds = federation._feds
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

    # Raw sums per timestep, the baseline in row 0, made percent of it
    # at the end.
    series = {n: np.empty(horizon + 1) for n in federation.order}
    add = np.add.reduce
    for (net, values), fed in zip(series.items(), feds):
        values[0] = add(fed.performance)
        if values[0] == 0.0:
            raise ZeroBaseline(f"{net.value}: initial performance sums to zero")

    federation.exchange()  # seed foreign inputs with true initial values

    try:
        for start in range(1, horizon + 1, MOP_BLOCK):
            stop = min(start + MOP_BLOCK, horizon + 1)
            for t in range(start, stop):
                if t in actions_at:
                    federation._hold(False)
                    _deliver(federation, actions_at[t])
                federation.step()
                if t % tg == 0:
                    federation.exchange()
                if t == 1 and t not in actions_at:
                    ring = federation._ring.view(np.uint64)
                    federation._hold(bool((ring == ring[0]).all()))
                yield t
            for values, fed in zip(series.values(), feds):
                row = (start - 1) % len(fed.states)
                add(fed.states[row:row + stop - start], axis=1, out=values[start:stop])
    finally:
        federation._hold(False)

    return MoPTrace(series={net: 100.0 * values / values[0] for net, values in series.items()})
