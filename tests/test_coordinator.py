import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granusim.coordinator import MAX_HORIZON, Federation, SyncSchedule, run, run_steps
from granusim.disruption import (DisruptionEvent, DisruptionStreamConfig,
                                 fixed_pattern, poisson_stream)
from granusim.errors import (InvalidFactor, InvalidTopology, ScheduleError, UnknownNode,
                             ZeroBaseline)
from granusim.experiment import (NetworkSpec, ScenarioConfig, build_federation,
                                 disruption_onset, wiring)
from granusim.federate import EDGE_LIST_MIN_NODES, MOP_BLOCK, FederateState
from granusim.topology import NETWORK_ORDER, Coupling, InterdependencyMap, NetworkId
from oracles import (barrier_index, bincount_terms, lockstep_series, make_topology,
                     scenario_lockstep_inputs, slot_grid)


def small_federation():
    """Water 3-node line feeding power and business pairs."""
    water = make_topology([(0, 1), (1, 2)], 3, NetworkId.WATER)
    power = make_topology([(0, 1)], 2, NetworkId.POWER)
    business = make_topology([(1, 0)], 2, NetworkId.BUSINESS)
    couplings = InterdependencyMap(couplings=(
        Coupling(NetworkId.POWER, 0, NetworkId.WATER, 1),
        Coupling(NetworkId.BUSINESS, 0, NetworkId.WATER, 2),
        Coupling(NetworkId.BUSINESS, 1, NetworkId.POWER, 1),
    ))
    return Federation([FederateState(water), FederateState(power),
                       FederateState(business, lag=2)], couplings)


WEIGHTS = [(0.3, 0.4, 0.3), (0.2, 0.2, 0.6), (0.5, 0.5, 0.0), (0.1, 0.6, 0.3)]


def federation_of(nets, wiring):
    """The package's federation of ``lockstep_series`` inputs."""
    return Federation(
        [FederateState(make_topology(edges, n, net, intrinsic), weights=weights, lag=lag)
         for net, (edges, n, lag, weights, intrinsic) in nets.items()],
        InterdependencyMap(couplings=tuple(Coupling(*w) for w in wiring)))


def test_schedule_validation():
    # A bool is not an integer; a float tg would miss barriers and a
    # float horizon would fail deep inside the run.
    message = "{}: must be a positive integer, got {!r}"
    for tg in (0, -1, 2.5, True):
        with pytest.raises(InvalidFactor, match=re.escape(message.format("tg", tg))):
            SyncSchedule(tg=tg, horizon=10)
    for horizon in (0, 20.5, True):
        with pytest.raises(ScheduleError, match=re.escape(message.format("horizon", horizon))):
            SyncSchedule(tg=2, horizon=horizon)
    assert SyncSchedule(tg=np.int64(2), horizon=np.int64(10)).tg == 2


def test_event_beyond_horizon_rejected():
    # Timestep 0 is the initial state: an event there or before it
    # would be delivered late or dropped, so it is rejected like one
    # past the horizon.
    for event in (DisruptionEvent(5, 30, NetworkId.WATER, (0,)),
                  DisruptionEvent(0, 5, NetworkId.WATER, (1,)),
                  DisruptionEvent(-3, 0, NetworkId.WATER, (1,))):
        fed = small_federation()
        with pytest.raises(ScheduleError, match="outside timesteps 1..20"):
            run(fed, SyncSchedule(tg=2, horizon=20), [event])
        assert all(state.steps == 0 for state in fed.federates.values())
        # Every ring row still holds the intrinsic state.
        for state in fed.federates.values():
            assert np.array_equal(state.states, np.tile(state.intrinsic, (MOP_BLOCK, 1)))


def test_empty_events_stay_at_100():
    trace = run(small_federation(), SyncSchedule(tg=2, horizon=15), [])
    for values in trace.series.values():
        assert np.array_equal(values, np.full(16, 100.0))


def test_registration_order_is_canonicalized():
    def build(order):
        # Fresh federates of ``small_federation``'s networks: a federate
        # joins one federation.
        fresh = {net: FederateState(fed.topology, lag=fed.lag)
                 for net, fed in small_federation().federates.items()}
        return Federation([fresh[net] for net in order], InterdependencyMap(couplings=(
            Coupling(NetworkId.POWER, 0, NetworkId.WATER, 1),
            Coupling(NetworkId.BUSINESS, 0, NetworkId.WATER, 2),
            Coupling(NetworkId.BUSINESS, 1, NetworkId.POWER, 1),
        )))

    event = DisruptionEvent(3, 9, NetworkId.WATER, (0, 1))
    schedule = SyncSchedule(tg=3, horizon=30)
    forward = run(build([NetworkId.WATER, NetworkId.POWER, NetworkId.BUSINESS]),
                  schedule, [event])
    backward = run(build([NetworkId.BUSINESS, NetworkId.POWER, NetworkId.WATER]),
                   schedule, [event])
    assert forward.to_csv() == backward.to_csv()


def test_no_information_flow_between_syncs():
    fed = small_federation()
    event = DisruptionEvent(2, 12, NetworkId.WATER, (0, 1, 2))
    trace = run(fed, SyncSchedule(tg=5, horizon=12), [event])
    business = trace.series[NetworkId.BUSINESS]
    # The exchange after t=5 is the first time the dip can cross over,
    # so business holds 100% through t=5 and reacts at t=6.
    assert np.array_equal(business[:6], np.full(6, 100.0))
    assert business[6] < 100.0


def test_foreign_inputs_frozen_between_barriers():
    # Entry (j, i) of a block is node i's j-th coupling.  No node has
    # two, so the grid has one row: business node 0 reads water node 2
    # and business node 1 power node 1.
    fed = small_federation()
    fed.exchange()
    fed.federates[NetworkId.WATER].apply_disruption([1, 2])
    for _ in range(3):
        fed.step()
        # No barrier has run, so consumers still hold the seed values.
        assert fed.federates[NetworkId.BUSINESS].foreign_inputs.tolist() == [[1.0, 1.0]]
    fed.exchange()
    assert fed.federates[NetworkId.BUSINESS].foreign_inputs.tolist() == [[0.0, 1.0]]


def test_retraction_delivered_before_application():
    # Back-to-back windows on the same nodes meet at t=5; retraction
    # first means the node is re-disrupted and never pops back up.
    events = [DisruptionEvent(2, 5, NetworkId.WATER, (0,)),
              DisruptionEvent(5, 8, NetworkId.WATER, (0,))]
    trace = run(small_federation(), SyncSchedule(tg=3, horizon=20), events)
    water = trace.series[NetworkId.WATER]
    assert (water[2:8] < 100.0).all()
    assert water[5] == water[4]


def test_each_timestep_delivers_in_the_fixed_order(monkeypatch):
    # Retractions first, then network order, then node index, whatever
    # the order of the events.
    water, power, business = NETWORK_ORDER
    calls = []
    for kind, name in ((0, "retract_disruption"), (1, "apply_disruption")):
        def record(fed, nodes, kind=kind, method=getattr(FederateState, name)):
            calls.append((kind, fed.topology.network_id, tuple(nodes)))
            method(fed, nodes)
        monkeypatch.setattr(FederateState, name, record)
    events = [DisruptionEvent(5, 8, business, (1,)), DisruptionEvent(5, 9, water, (2, 0)),
              DisruptionEvent(2, 5, power, (0,)), DisruptionEvent(5, 7, water, (1,)),
              DisruptionEvent(2, 5, water, (1,))]
    run(small_federation(), SyncSchedule(tg=3, horizon=20), events)
    assert calls[:7] == [(1, water, (1,)), (1, power, (0,)),
                         (0, water, (1,)), (0, power, (0,)), (1, water, (0, 2)),
                         (1, water, (1,)), (1, business, (1,))]


def test_seed_exchange_shares_initial_boundary_values():
    water = make_topology([], 1, NetworkId.WATER, intrinsic=[0.5])
    business = make_topology([], 1, NetworkId.BUSINESS)
    fed = Federation(
        [FederateState(water), FederateState(business)],
        InterdependencyMap(couplings=(
            Coupling(NetworkId.BUSINESS, 0, NetworkId.WATER, 0),)))
    trace = run(fed, SyncSchedule(tg=4, horizon=4), [])
    # 0.3*1 + 0.4*1 + 0.3*0.5 from the very first step: the consumer
    # saw the producer's real 0.5, not a default of 1.
    expected = 100.0 * (0.3 * 1.0 + 0.4 * 1.0 + 0.3 * 0.5)
    assert trace.series[NetworkId.BUSINESS][1] == pytest.approx(expected, abs=1e-9)


def test_matches_manual_lockstep_oracle():
    """Full-federation cross-check against scalar federates advanced by hand."""
    nets = {
        NetworkId.WATER: ([(0, 1), (1, 2)], 3, 1, (0.3, 0.4, 0.3), [1.0, 0.8, 0.6]),
        NetworkId.POWER: ([(0, 1)], 2, 1, (0.2, 0.2, 0.6), [0.9, 1.0]),
        NetworkId.BUSINESS: ([(1, 0)], 2, 2, (0.1, 0.6, 0.3), [0.7, 0.5]),
    }
    wiring = [
        (NetworkId.POWER, 0, NetworkId.WATER, 1),
        (NetworkId.BUSINESS, 0, NetworkId.WATER, 2),
        (NetworkId.BUSINESS, 1, NetworkId.POWER, 1),
    ]
    tg, horizon = 2, 16
    event = (3, 7, NetworkId.WATER, (0, 2))
    expected = lockstep_series(nets, wiring, tg, horizon, [event])

    trace = run(federation_of(nets, wiring), SyncSchedule(tg=tg, horizon=horizon),
                [DisruptionEvent(*event)])
    for net in nets:
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


@st.composite
def small_federations(draw, levels=st.floats(0, 1, allow_subnormal=False), first_apply=1):
    """Two or three networks of 1-6 nodes with weights from ``WEIGHTS``
    and intrinsic levels drawn from ``levels`` (any in [0, 1] by
    default), each wired fully, partly or not at all (nodes may hold
    several slots), any tg, and one event applied at ``first_apply`` or
    later.  Levels sum to at least 0.5 per network, which keeps the
    MoP, a percent of that sum, within a few thousand."""
    nets_drawn = draw(st.sampled_from([
        NETWORK_ORDER, NETWORK_ORDER[:2], NETWORK_ORDER[1:],
        (NetworkId.WATER, NetworkId.BUSINESS)]))
    nets = {}
    for net in nets_drawn:
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        intrinsic = draw(st.lists(levels, min_size=n, max_size=n)
                         .filter(lambda b: sum(b) >= 0.5))
        nets[net] = (edges, n, draw(st.integers(1, 3)), draw(st.sampled_from(WEIGHTS)),
                     intrinsic)
    wiring = []
    for net, (_, n, *_) in nets.items():
        mode = draw(st.sampled_from(["full", "partial", "none"]))
        if mode == "none":
            continue
        nodes = (range(n) if mode == "full" else
                 draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        partners = [m for m in nets if m != net]
        for node in nodes:
            for _ in range(draw(st.integers(1, 3))):
                producer = draw(st.sampled_from(partners))
                wiring.append((net, node, producer,
                               draw(st.integers(0, nets[producer][1] - 1))))
    wiring = draw(st.permutations(wiring))
    horizon = draw(st.integers(first_apply + 1, 24))
    tg = draw(st.integers(1, horizon + 2))
    origin = draw(st.sampled_from(nets_drawn))
    nodes = tuple(sorted(draw(st.lists(st.integers(0, nets[origin][1] - 1),
                                       min_size=1, unique=True))))
    apply_t = draw(st.integers(first_apply, horizon - 1))
    rt = draw(st.one_of(st.just(1), st.integers(1, horizon - apply_t)))
    return nets, wiring, tg, horizon, (apply_t, apply_t + rt, origin, nodes)


@settings(max_examples=150, deadline=None)
@given(case=small_federations())
def test_run_matches_lockstep_oracle_on_random_federations(case):
    nets, wiring, tg, horizon, event = case
    expected = lockstep_series(nets, wiring, tg, horizon, [event])
    trace = run(federation_of(nets, wiring), SyncSchedule(tg=tg, horizon=horizon),
                [DisruptionEvent(*event)])
    for net in nets:
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


def held_flags(federation, schedule, events):
    """``federation.held`` after each timestep of its run, and the trace.

    Every federate's flag is checked to agree with the federation's."""
    steps = run_steps(federation, schedule, events)
    flags = []
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return flags, done.value
        flags.append(federation.held)
        assert all(fed.held is federation.held for fed in federation.federates.values())


@settings(max_examples=100, deadline=None)
@given(case=small_federations(levels=st.just(1.0), first_apply=2))
def test_a_held_run_matches_the_lockstep_oracle(case):
    # From a ring of ones, every triple of WEIGHTS writes 1.0 exactly,
    # whatever a node's in-degree, slots and summation order, so every
    # run holds from timestep 1 until its event.
    nets, wiring, tg, horizon, event = case
    expected = lockstep_series(nets, wiring, tg, horizon, [event])
    federation = federation_of(nets, wiring)
    flags, trace = held_flags(federation, SyncSchedule(tg=tg, horizon=horizon),
                              [DisruptionEvent(*event)])
    apply_t = event[0]
    assert flags == [True] * (apply_t - 1) + [False] * (horizon - apply_t + 1)
    for net in nets:
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


def paper_run(tg, onset=None, config=ScenarioConfig()):
    """A fresh paper federation, its schedule and its one event (rt 9,
    ds 12) at ``onset``, by default the scenario's onset for ``tg``."""
    federation = build_federation(config)
    t0 = disruption_onset(config, tg) if onset is None else onset
    pattern = fixed_pattern(12, federation.federates[config.origin].topology,
                            config.master_seed)
    return (federation, SyncSchedule(tg=tg, horizon=config.horizon),
            DisruptionEvent(t0, t0 + 9, config.origin, pattern))


def test_a_run_whose_start_is_not_a_fixed_point_never_holds():
    # Unequal levels below 1: the first step moves every network, so the
    # same federation with levels of 1.0, the control, is the only one held.
    nets = {NetworkId.WATER: ([(0, 1), (1, 2)], 3, 1, WEIGHTS[0], [0.2, 0.5, 0.9]),
            NetworkId.POWER: ([(1, 0)], 2, 2, WEIGHTS[1], [0.7, 0.4])}
    wiring = [(NetworkId.POWER, 0, NetworkId.WATER, 2),
              (NetworkId.WATER, 1, NetworkId.POWER, 1)]
    event = DisruptionEvent(8, 10, NetworkId.WATER, (1,))
    schedule = SyncSchedule(tg=3, horizon=12)
    flags, _ = held_flags(federation_of(nets, wiring), schedule, [event])
    assert flags == [False] * 12
    ones = {net: (*spec[:4], [1.0] * spec[1]) for net, spec in nets.items()}
    flags, _ = held_flags(federation_of(ones, wiring), schedule, [event])
    assert flags == [True] * 7 + [False] * 5


def test_a_run_with_an_event_at_the_first_timestep_never_holds():
    federation, schedule, event = paper_run(2, onset=1)
    flags, _ = held_flags(federation, schedule, [event])
    assert not any(flags)
    # The control: the scenario's onset at t = 51 holds timesteps 1-50.
    federation, schedule, event = paper_run(2)
    flags, _ = held_flags(federation, schedule, [event])
    assert event.apply_time == 51
    assert flags == [True] * 50 + [False] * (schedule.horizon - 50)


def test_a_federate_stepped_after_its_run_does_not_hold():
    # Without events the run holds to its last timestep.
    federation, schedule, _ = paper_run(2)
    flags, _ = held_flags(federation, schedule, [])
    assert all(flags) and not federation.held
    water = federation.federates[NetworkId.WATER]
    assert water.steps == schedule.horizon
    water.apply_disruption([0])
    federation.step()
    assert not water.held and water.steps == schedule.horizon + 1
    assert water.performance[0] == 0.0
    assert np.shares_memory(water.performance,
                            water.states[schedule.horizon % len(water.states)])
    # A run closed while held is cleared as well.
    federation, schedule, _ = paper_run(2)
    steps = run_steps(federation, schedule, [])
    next(steps), next(steps)
    assert federation.held
    steps.close()
    assert not federation.held
    assert not any(fed.held for fed in federation.federates.values())


@pytest.mark.parametrize("tg", [2, 27])
def test_a_held_run_keeps_the_bits_and_counts_of_stepping_by_hand(tg, monkeypatch):
    # ``run`` holds timesteps 2-50; the same federation stepped and
    # exchanged by hand, outside ``run_steps``, never holds.
    federation, schedule, event = paper_run(tg)
    by_hand, _, _ = paper_run(tg)
    horizon = schedule.horizon
    barriers = []
    exchange = Federation.exchange
    monkeypatch.setattr(Federation, "exchange",
                        lambda self: barriers.append(self) or exchange(self))
    trace = run(federation, schedule, [event])
    assert len(barriers) == 1 + horizon // tg
    assert all(fed.steps == horizon for fed in federation.federates.values())

    feds = [by_hand.federates[net] for net in by_hand.order]
    sums = [[np.add.reduce(fed.performance)] for fed in feds]
    by_hand.exchange()
    for t in range(1, horizon + 1):
        if t == event.retract_time:
            by_hand.federates[event.network_id].retract_disruption(event.nodes)
        if t == event.apply_time:
            by_hand.federates[event.network_id].apply_disruption(event.nodes)
        by_hand.step()
        if t % tg == 0:
            by_hand.exchange()
        for fed, values in zip(feds, sums):
            values.append(np.add.reduce(fed.performance))
    assert len(barriers) == 2 * (1 + horizon // tg) and not by_hand.held
    for net, values in zip(by_hand.order, sums):
        expected = np.array(values)
        expected *= 100.0
        expected /= values[0]
        assert trace.series[net].min() < 100.0
        assert trace.series[net].tobytes() == expected.tobytes()


def test_a_federate_with_no_slots_keeps_no_foreign_term():
    # With no slots the step term is the federate's constant base, and
    # the barrier does not move it.  Its block of the grid (one row, as
    # no node has two couplings) is padding, 0.0 in every entry.
    fed = small_federation()  # nothing feeds water
    water = fed.federates[NetworkId.WATER]
    base = water.base.copy()
    assert water.foreign_inputs.tolist() == [[0.0, 0.0, 0.0]]
    assert water.term.tobytes() == base.tobytes()
    water.apply_disruption([1])
    fed.step()
    fed.exchange()
    assert water.foreign_inputs.tolist() == [[0.0, 0.0, 0.0]]
    assert water.term.tobytes() == base.tobytes()
    assert water.uncoupled.all()
    business = fed.federates[NetworkId.BUSINESS]
    assert business.term.tobytes() != business.base.tobytes()


def test_exchange_writes_a_snapshot_of_every_producer_in_place():
    water = make_topology([(0, 1), (1, 2)], 3, NetworkId.WATER, intrinsic=[0.2, 0.5, 0.9])
    power = make_topology([(1, 0)], 2, NetworkId.POWER, intrinsic=[0.7, 0.4])
    business = make_topology([], 2, NetworkId.BUSINESS, intrinsic=[0.6, 0.3])
    wiring = [
        (NetworkId.BUSINESS, 1, NetworkId.POWER, 0),
        (NetworkId.POWER, 0, NetworkId.WATER, 2),
        (NetworkId.BUSINESS, 1, NetworkId.WATER, 1),
        (NetworkId.BUSINESS, 0, NetworkId.WATER, 2),
        (NetworkId.WATER, 2, NetworkId.BUSINESS, 1),
        (NetworkId.POWER, 0, NetworkId.BUSINESS, 0),
    ]
    fed = Federation(
        [FederateState(water), FederateState(power), FederateState(business, lag=2)],
        InterdependencyMap(couplings=tuple(Coupling(*w) for w in wiring)))
    feds = fed.federates
    slots = {net: feds[net].foreign_inputs for net in fed.order}
    feds[NetworkId.WATER].apply_disruption([1])
    for _ in range(3):
        fed.step()

    read = {net: feds[net].performance.copy() for net in fed.order}
    fed.exchange()

    def expected_slots():
        # Entry (j, i) is the read value of node i's j-th coupling in map
        # order, 0.0 where it has none: business node 1 has two, so K = 2.
        return slot_grid({net: feds[net].node_count for net in fed.order}, wiring,
                         lambda c: read[c[2]][c[3]], 0.0)

    assert all(feds[net].foreign_inputs is slots[net] for net in fed.order)
    assert {net: slots[net].tolist() for net in fed.order} == expected_slots()
    # Producers moving after the read leave the slots at the read values.
    fed.step()
    assert any(not np.array_equal(feds[net].performance, read[net]) for net in fed.order)
    assert {net: slots[net].tolist() for net in fed.order} == expected_slots()
    # A barrier with no producer moved since the last one writes the same values.
    read = {net: feds[net].performance.copy() for net in fed.order}
    fed.exchange()
    written = {net: slots[net].copy() for net in fed.order}
    fed.exchange()
    assert all(feds[net].foreign_inputs is slots[net] for net in fed.order)
    assert {net: slots[net].tolist() for net in fed.order} == expected_slots()
    assert all(np.array_equal(slots[net], written[net]) for net in fed.order)


def test_couplings_outside_the_federation_rejected():
    water = FederateState(make_topology([], 2, NetworkId.WATER))
    power = FederateState(make_topology([], 3, NetworkId.POWER))
    feds = [water, power]
    for bad, error in [((NetworkId.WATER, 0, NetworkId.POWER, 3), UnknownNode),
                       ((NetworkId.WATER, 0, NetworkId.POWER, -1), UnknownNode),
                       ((NetworkId.WATER, 2, NetworkId.POWER, 0), UnknownNode),
                       ((NetworkId.WATER, 0, NetworkId.BUSINESS, 0), ValueError)]:
        with pytest.raises(error):
            Federation(feds, InterdependencyMap(couplings=(Coupling(*bad),)))
    # The first coupling at fault names the error and itself; a consumer
    # node out of range is found only after every producer is checked.
    good = Coupling(NetworkId.POWER, 1, NetworkId.WATER, 1)
    producer = Coupling(NetworkId.WATER, 0, NetworkId.POWER, 3)
    outside = Coupling(NetworkId.BUSINESS, 0, NetworkId.WATER, 0)
    consumer = Coupling(NetworkId.WATER, 2, NetworkId.POWER, 0)
    for couplings, error, named in [((good, producer, outside), UnknownNode, producer),
                                    ((good, outside, producer), ValueError, outside),
                                    ((consumer, outside), ValueError, outside)]:
        with pytest.raises(error, match=re.escape(str(named))):
            Federation(feds, InterdependencyMap(couplings=couplings))


def test_a_federate_joins_one_federation():
    # A second federation on the same federates rebound their terms
    # before, so a run of the first stepped with terms that nothing
    # latched: its business minimum read 100.0 instead of 83.236.
    topologies, interdependencies = wiring(ScenarioConfig())

    def federates():
        return [FederateState(topology) for topology in topologies]

    shared = federates()
    first = Federation(shared, interdependencies)
    assert all(fed.bound for fed in shared)
    with pytest.raises(InvalidTopology, match="^field 'federates': the 'water' federate is "
                                              "bound by another federation"):
        Federation(shared, interdependencies)
    # A refused build binds nothing, whichever check refuses it.
    fresh = federates()
    with pytest.raises(UnknownNode):
        Federation(fresh, InterdependencyMap((Coupling(NetworkId.WATER, 0, NetworkId.POWER, 99),)))
    with pytest.raises(InvalidTopology, match="two federates of network 'water'"):
        Federation([*fresh, FederateState(topologies[0])], interdependencies)
    assert not any(fed.bound for fed in fresh)

    schedule = SyncSchedule(tg=2, horizon=400)
    event = DisruptionEvent(51, 60, NetworkId.WATER, tuple(range(8)))
    trace = run(first, schedule, [event])
    assert trace.series[NetworkId.BUSINESS].min() == pytest.approx(83.236, abs=5e-4)
    again = run(Federation(fresh, interdependencies), schedule, [event])
    assert [values.tobytes() for values in again.series.values()] == [
        values.tobytes() for values in trace.series.values()]


@st.composite
def random_wirings(draw):
    """Two or three networks of 1-6 nodes, registered in any order, and
    up to 40 couplings between any two of them."""
    order = draw(st.permutations(NETWORK_ORDER))
    sizes = {net: draw(st.integers(1, 6)) for net in order[:draw(st.integers(2, 3))]}

    def coupling(consumer, producer):
        return st.tuples(st.just(consumer), st.integers(0, sizes[consumer] - 1),
                         st.just(producer), st.integers(0, sizes[producer] - 1))

    nets = list(sizes)
    return sizes, draw(st.lists(
        st.tuples(st.sampled_from(nets), st.sampled_from(nets)).flatmap(
            lambda pair: coupling(*pair)), max_size=40))


@settings(max_examples=100, deadline=None)
@given(case=random_wirings())
@example(case=({NetworkId.POWER: 3, NetworkId.WATER: 2}, []))
def test_barrier_indices_match_a_loop_over_the_couplings(case):
    # Entry (j, i) of the index is the producer of node i's j-th
    # coupling in map order, and the node total N where it has none;
    # the blocks start at the seed value 1.0 with padding 0.0.
    sizes, couplings = case
    fed = Federation([FederateState(make_topology([], n, net)) for net, n in sizes.items()],
                     InterdependencyMap(couplings=tuple(Coupling(*c) for c in couplings)))
    assert fed._index.tolist() == barrier_index(
        {net: sizes[net] for net in NETWORK_ORDER if net in sizes}, couplings)
    counts = {net: [0] * n for net, n in sizes.items()}
    for c in couplings:
        counts[c[0]][c[1]] += 1
    assert fed._divisor.tolist() == [max(k, 1) for net in fed.order for k in counts[net]]
    seeded = slot_grid(sizes, couplings, lambda c: 1.0, 0.0)
    for net, state in fed.federates.items():
        uncoupled = [k == 0 for k in counts[net]]
        if any(uncoupled):
            assert state.uncoupled.tolist() == uncoupled
        else:
            assert state.uncoupled is None
        assert state.foreign_inputs.tolist() == seeded[net]
        assert state.foreign_inputs.base is fed._grid
        assert state.term.base is fed._terms


# Performance levels, -0.0 too: the grid's sums start from 0.0, as a
# bincount's do, so even its sign comes out the same.
LEVELS = st.floats(0.0, 1.0) | st.just(-0.0)
# With these weights and intrinsic levels of 0.0 the term is the mean of
# the slots itself, so a sum in another order shows in its last bits.
ALL_FOREIGN = (0.0, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(case=random_wirings(), data=st.data())
def test_exchange_latches_the_bits_of_a_bincount_over_the_slots(case, data):
    # Irregular maps, nodes without slots, any registration order:
    # after one barrier every term has the bits of the flat-slot latch.
    sizes, couplings = case

    def levels(n):
        return data.draw(st.lists(LEVELS, min_size=n, max_size=n))

    fed = Federation(
        [FederateState(make_topology([], n, net, levels(n)),
                       weights=data.draw(st.sampled_from(WEIGHTS + [ALL_FOREIGN])))
         for net, n in sizes.items()],
        InterdependencyMap(couplings=tuple(Coupling(*c) for c in couplings)))
    for net, state in fed.federates.items():
        state.performance[...] = levels(sizes[net])
    fed.exchange()
    want = bincount_terms(fed, couplings)
    for net, state in fed.federates.items():
        assert state.term.tobytes() == want[net].tobytes()


def skewed_map():
    """Water node 2 has 40 couplings, one from each power node, in mixed
    order and interleaved with one on every other node.  So K = 40 and
    every other column holds 39 padding entries.  Returns the node
    counts and the couplings."""
    sizes = {NetworkId.POWER: 40, NetworkId.WATER: 4}
    others = [(NetworkId.WATER, i, NetworkId.WATER, 2) for i in (0, 1, 3)] + [
        (NetworkId.POWER, i, NetworkId.WATER, i % 4) for i in range(40)]
    busy = [(NetworkId.WATER, 2, NetworkId.POWER, 7 * k % 40) for k in range(40)]
    return sizes, busy[:15] + others[:20] + busy[15:31] + others[20:] + busy[31:]


def test_a_skewed_map_pads_every_column_to_its_busiest_node():
    sizes, couplings = skewed_map()
    fed = Federation([FederateState(make_topology([], n, net, [0.0] * n), ALL_FOREIGN)
                      for net, n in sizes.items()],
                     InterdependencyMap(couplings=tuple(Coupling(*c) for c in couplings)))
    rng = np.random.default_rng(40)
    for net, state in fed.federates.items():
        state.performance[...] = rng.random(sizes[net])
    fed.exchange()
    want = bincount_terms(fed, couplings)
    grid = slot_grid(sizes, couplings,
                     lambda c: fed.federates[c[2]].performance[c[3]], 0.0)
    for net, state in fed.federates.items():
        assert state.term.tobytes() == want[net].tobytes()
        assert state.foreign_inputs.shape == (40, sizes[net])
        assert state.foreign_inputs.tolist() == grid[net]
    water = fed.federates[NetworkId.WATER].foreign_inputs
    assert not water[1:, [0, 1, 3]].any() and water[:, 2].all()
    assert not fed.federates[NetworkId.POWER].foreign_inputs[1:].any()


def test_a_run_on_the_skewed_map_keeps_the_padding_at_zero():
    # Padding entries read the ring's trailing column, which no step,
    # tail, mask or barrier writes: it holds +0.0 in every row through
    # a run with disruptions, and each barrier gathers +0.0 into every
    # padding entry.  The horizon wraps the 32-row ring twice.
    sizes, couplings = skewed_map()
    rng = np.random.default_rng(41)
    fed = Federation([FederateState(make_topology([(i, (i + 1) % n) for i in range(n)], n, net,
                                                  rng.uniform(0.5, 1, n).tolist()), WEIGHTS[0])
                      for net, n in sizes.items()],
                     InterdependencyMap(couplings=tuple(Coupling(*c) for c in couplings)))
    slots = {net: np.bincount([c[1] for c in couplings if c[0] == net], minlength=n)
             for net, n in sizes.items()}
    padding = {net: np.arange(40)[:, None] >= slots[net] for net in sizes}
    assert padding[NetworkId.WATER].sum() == 3 * 39
    assert padding[NetworkId.POWER].sum() == 40 * 39
    total = sum(sizes.values())
    tg = 3
    events = [DisruptionEvent(4, 20, NetworkId.WATER, (2,)),
              DisruptionEvent(10, 40, NetworkId.POWER, tuple(range(0, 40, 3)))]
    barriers = down = 0
    for t in run_steps(fed, SyncSchedule(tg=tg, horizon=70), events):
        down += fed.federates[NetworkId.WATER].performance[2] == 0.0
        assert fed._ring[:, total].tobytes() == bytes(8 * len(fed._ring))
        if t % tg == 0:
            barriers += 1
            for net, state in fed.federates.items():
                pads = state.foreign_inputs[padding[net]]
                assert pads.tobytes() == bytes(pads.nbytes)
    assert barriers == 70 // tg and down == 20 - 4


def test_exchange_leaves_every_byte_of_the_ring_unchanged():
    # The barrier gathers from the ring and writes only the grid and
    # the terms, so it reads every slot before it writes any term.
    fed = small_federation()
    fed.federates[NetworkId.WATER].apply_disruption([1])
    for k in range(40):
        ring = fed._ring.copy()
        fed.exchange()
        assert fed._ring.tobytes() == ring.tobytes()
        fed.step()


def test_a_value_written_in_place_after_a_step_is_the_one_the_next_exchange_latches():
    fed = small_federation()
    water, power, business = fed.federates.values()
    fed.step()
    water.performance[...] = [0.5, 0.25, 0.125]
    power.performance[1] = 0.75
    fed.exchange()
    # Power node 0 reads water node 1, and power node 1 holds no slot;
    # business reads water node 2 and power node 1.
    assert power.foreign_inputs.tolist() == [[0.25, 0.0]]
    assert business.foreign_inputs.tolist() == [[0.125, 0.75]]
    want = bincount_terms(fed, [(NetworkId.POWER, 0, NetworkId.WATER, 1),
                                (NetworkId.BUSINESS, 0, NetworkId.WATER, 2),
                                (NetworkId.BUSINESS, 1, NetworkId.POWER, 1)])
    for net, state in fed.federates.items():
        assert state.term.tobytes() == want[net].tobytes()


def test_default_federation_sub_granularity_window_stays_quiet():
    # Origin-only flicker between barriers barely reaches the others.
    config = ScenarioConfig()
    federation = build_federation(config)
    pattern = fixed_pattern(8, federation.federates[config.origin].topology,
                            config.master_seed)
    event = DisruptionEvent(4, 5, NetworkId.WATER, pattern)
    trace = run(federation, SyncSchedule(tg=10, horizon=60), [event])
    for net in (NetworkId.POWER, NetworkId.BUSINESS):
        assert trace.series[net].min() > 99.0


def test_baselines_taken_before_first_step():
    trace = run(small_federation(), SyncSchedule(tg=2, horizon=5), [])
    assert all(values[0] == 100.0 for values in trace.series.values())


def test_run_steps_yields_each_timestep_and_returns_the_run_trace():
    schedule = SyncSchedule(tg=2, horizon=9)
    events = [DisruptionEvent(3, 6, NetworkId.WATER, (1,))]
    steps = run_steps(small_federation(), schedule, events)
    assert [next(steps) for _ in range(9)] == list(range(1, 10))
    with pytest.raises(StopIteration) as done:
        next(steps)
    expected = run(small_federation(), schedule, events)
    trace = done.value.value
    assert all(np.array_equal(trace.series[n], expected.series[n])
               for n in expected.series)


def test_second_run_on_the_same_federation_rejected():
    fed = small_federation()
    schedule = SyncSchedule(tg=2, horizon=10)
    events = [DisruptionEvent(3, 6, NetworkId.WATER, (1,))]
    run(fed, schedule, events)
    with pytest.raises(ScheduleError):
        run(fed, schedule, events)
    with pytest.raises(ScheduleError):
        next(run_steps(fed, schedule, []))


def test_federation_with_a_federate_that_has_stepped_rejected():
    # Timestep t writes ring row (t - 1) % R only if the run starts
    # from step 0, so one step taken outside the run is refused too.
    fed = small_federation()
    fed.federates[NetworkId.POWER].step()
    with pytest.raises(ScheduleError, match="already stepped"):
        next(run_steps(fed, SyncSchedule(tg=2, horizon=10), []))
    assert [state.steps for state in fed.federates.values()] == [0, 1, 0]


def test_a_bare_bound_step_writes_for_the_federations_next_timestep():
    # A bound federate takes its ring row from the federation's count,
    # so a step of it alone writes the product the federation's next
    # timestep rewrites, and that timestep has the bits of one
    # ``Federation.step`` (node 1 is uncoupled: (0.3 + 0.4 * 0) / 0.7).
    fed, fresh = small_federation(), small_federation()
    power = fed.federates[NetworkId.POWER]
    power.apply_disruption([0])
    power.step()
    fed.step()
    fresh.federates[NetworkId.POWER].apply_disruption([0])
    fresh.step()
    assert power.performance.tolist() == [0.0, 0.4285714285714286]
    assert power.performance.tobytes() == fresh.federates[NetworkId.POWER].performance.tobytes()
    assert fed._ring.tobytes() == fresh._ring.tobytes()
    assert [state.steps for state in fed.federates.values()] == [1, 2, 1]


def test_zero_baseline_rejected_at_set_up():
    water = FederateState(make_topology([], 1, NetworkId.WATER, intrinsic=[0.0]))
    with pytest.raises(ZeroBaseline):
        run(Federation([water]), SyncSchedule(tg=1, horizon=5), [])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rate=st.floats(0.02, 0.5),
       sizes=st.tuples(st.integers(1, 22), st.integers(0, 21)),
       rts=st.tuples(st.integers(1, 30), st.integers(0, 30)),
       horizon=st.integers(2, 160),
       tg=st.integers(1, 30))
@example(seed=7, rate=0.2, sizes=(2, 6), rts=(5, 15), horizon=400, tg=12)
def test_poisson_streams_on_the_paper_network_match_the_oracle(
        seed, rate, sizes, rts, horizon, tg):
    # Streams overlap freely: a node hit by several live events stays
    # down until the last of them is retracted.
    config = ScenarioConfig()
    size_range = (sizes[0], min(sizes[0] + sizes[1], 22))
    rt_range = (rts[0], rts[0] + rts[1])
    federation = build_federation(config)
    water = federation.federates[NetworkId.WATER].topology
    events = poisson_stream(
        DisruptionStreamConfig(rate, size_range, rt_range, horizon), water, seed)
    trace = run(federation, SyncSchedule(tg=tg, horizon=horizon), events)

    nets, wiring = scenario_lockstep_inputs(config)
    expected = lockstep_series(
        nets, wiring, tg, horizon,
        [(e.apply_time, e.retract_time, e.network_id, e.nodes) for e in events])
    for net in nets:
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


@pytest.mark.parametrize("tg", [1, 7])
def test_edge_list_federation_matches_the_lockstep_oracle(tg):
    # Three networks at the edge-list crossover with 3.5 edges per node,
    # coupled and lagged like the wide_sync benchmark workload.
    n = EDGE_LIST_MIN_NODES
    config = ScenarioConfig(horizon=80, couplings_per_node=3, networks=tuple(
        NetworkSpec(net, n, 7 * n // 2, lag=lag)
        for net, lag in zip(NETWORK_ORDER, (1, 1, 2))))
    federation = build_federation(config)
    assert all(fed.in_matrix is None for fed in federation.federates.values())
    water = federation.federates[NetworkId.WATER].topology
    event = (21, 43, NetworkId.WATER, fixed_pattern(n // 2, water, config.master_seed))
    trace = run(federation, SyncSchedule(tg=tg, horizon=config.horizon),
                [DisruptionEvent(*event)])

    nets, wiring = scenario_lockstep_inputs(config)
    expected = lockstep_series(nets, wiring, tg, config.horizon, [event])
    for net in nets:
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


@pytest.mark.parametrize("lag", [32, 40])
def test_lags_of_a_mop_block_or_more_match_the_lockstep_oracle(lag):
    # A step reads the state of ``lag`` timesteps back from its ring,
    # so the ring must hold more rows than the lag: 64 here, beside
    # water's 32 at lag 1, which the largest lag does not decide.
    assert lag >= MOP_BLOCK
    default = ScenarioConfig()
    config = replace(default, horizon=120, networks=tuple(
        replace(spec, lag=spec_lag) for spec, spec_lag in zip(default.networks, (1, lag, lag))))
    federation = build_federation(config)
    water = federation.federates[NetworkId.WATER].topology
    event = (21, 43, NetworkId.WATER, fixed_pattern(12, water, config.master_seed))
    trace = run(federation, SyncSchedule(tg=5, horizon=config.horizon),
                [DisruptionEvent(*event)])

    nets, wiring = scenario_lockstep_inputs(config)
    expected = lockstep_series(nets, wiring, 5, config.horizon, [event])
    for net in nets:
        assert trace.series[net].min() < 100.0
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


@pytest.mark.parametrize("tg", [1, 4, 7, 70])
def test_mixed_rings_and_kernels_share_one_ring_and_match_the_lockstep_oracle(tg):
    # Water takes the edge list at the crossover, power and business the
    # dense matvec; power's lag of 40 gives a ring of 64 rows beside the
    # 32 rows that lags 1 and 2 need, and the horizon wraps it twice.
    # Half of water's nodes, one of power's and none of business's hold
    # no slot, so their w_ext is renormalized away.
    rng = np.random.default_rng(11)
    n = EDGE_LIST_MIN_NODES
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    water_edges = [pairs[i] for i in sorted(rng.choice(len(pairs), 7 * n // 2, replace=False))]
    nets = {
        NetworkId.WATER: (water_edges, n, 1, WEIGHTS[0], rng.uniform(0.5, 1, n).tolist()),
        NetworkId.POWER: ([(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)], 5, 40, WEIGHTS[1],
                          [1.0, 0.9, 0.8, 1.0, 0.7]),
        NetworkId.BUSINESS: ([(1, 0), (2, 1), (0, 2)], 3, 2, WEIGHTS[3], [0.6, 1.0, 0.9]),
    }
    wiring = ([(NetworkId.WATER, i, NetworkId.POWER, i % 5) for i in range(0, n, 2)]
              + [(NetworkId.POWER, i, NetworkId.WATER, 3 * i) for i in range(4)]
              + [(NetworkId.BUSINESS, i, net, i) for i in range(3)
                 for net in (NetworkId.WATER, NetworkId.POWER)])
    events = [(21, 43, NetworkId.WATER, tuple(range(0, n, 3))),
              (30, 95, NetworkId.POWER, (1,))]
    horizon = 140
    assert horizon > 2 * 2 * MOP_BLOCK

    federation = federation_of(nets, wiring)
    feds = [federation.federates[net] for net in federation.order]
    assert [fed.in_matrix is None for fed in feds] == [True, False, False]
    assert [fed.uncoupled is not None for fed in feds] == [True, True, False]
    steps = run_steps(federation, SyncSchedule(tg=tg, horizon=horizon),
                      [DisruptionEvent(*event) for event in events])
    while True:
        try:
            t = next(steps)
        except StopIteration as done:
            trace = done.value
            break
        for fed in feds:
            assert len(fed.states) == 2 * MOP_BLOCK
            assert np.shares_memory(fed.states, federation._ring)
            assert np.shares_memory(fed.performance, fed.states[(t - 1) % len(fed.states)])
    expected = lockstep_series(nets, wiring, tg, horizon, events)
    for net in nets:
        assert trace.series[net].min() < 100.0
        assert np.allclose(trace.series[net], expected[net], atol=1e-12, rtol=0)


@pytest.mark.parametrize("horizon", [1, 31, 32, 33, 64, 65, 300])
def test_run_steps_records_each_mop_as_the_percent_of_baseline(horizon):
    # Horizons on either side of one and two MoP blocks (32 timesteps).
    config = ScenarioConfig()
    federation = build_federation(config)
    feds = federation.federates
    if horizon >= 60:
        pattern = fixed_pattern(12, feds[config.origin].topology, config.master_seed)
        events = [DisruptionEvent(51, 60, config.origin, pattern)]
    else:
        # No event fits a short horizon, and nothing crosses a barrier
        # by t=1: every network has a pattern down from step 1.
        events = []
        for fed in feds.values():
            fed.apply_disruption(fixed_pattern(8, fed.topology, config.master_seed))
    steps = run_steps(federation, SyncSchedule(tg=12, horizon=horizon), events)
    baselines = {net: float(feds[net].performance.sum()) for net in federation.order}
    seen = {net: [100.0 * feds[net].performance.sum() / baselines[net]]
            for net in federation.order}
    while True:
        try:
            next(steps)
        except StopIteration as done:
            trace = done.value
            break
        for net in federation.order:
            seen[net].append(100.0 * feds[net].performance.sum() / baselines[net])
    for net in federation.order:
        assert trace.series[net].min() < 100.0
        assert trace.series[net].tobytes() == np.array(seen[net]).tobytes()


@pytest.mark.parametrize("event, error", [
    (DisruptionEvent(60, 70, NetworkId.WATER, (1, 3)), UnknownNode),
    (DisruptionEvent(60, 70, NetworkId.POWER, (0,)), ScheduleError),
])
def test_events_checked_before_the_first_step(event, error):
    # Water has 3 nodes and the federation has no power network.
    water = FederateState(make_topology([(0, 1), (1, 2)], 3, NetworkId.WATER))
    business = FederateState(make_topology([(1, 0)], 2, NetworkId.BUSINESS))
    fed = Federation([water, business],
                     InterdependencyMap(couplings=(
                         Coupling(NetworkId.BUSINESS, 0, NetworkId.WATER, 2),)))
    steps = run_steps(fed, SyncSchedule(tg=5, horizon=100), [event])
    with pytest.raises(error):
        next(steps)
    # A step writes ring row 0 and makes it ``performance``; set-up
    # before any step leaves ``performance`` at the last row, and every
    # row at the intrinsic state.
    for state in (water, business):
        assert state.steps == 0
        assert np.shares_memory(state.performance, state.states[-1])
        assert np.array_equal(state.states, np.tile(state.intrinsic, (MOP_BLOCK, 1)))


def test_a_horizon_up_to_the_bound_is_taken():
    # Above it numpy cannot make a series of horizon + 1 floats; at it a
    # run ends in a MemoryError, a resource limit, which no run here asks.
    assert SyncSchedule(1, MAX_HORIZON).horizon == MAX_HORIZON
    assert ScenarioConfig(horizon=MAX_HORIZON).horizon == MAX_HORIZON
    with pytest.raises(ValueError, match="too big"):
        np.empty(MAX_HORIZON + 2)
