import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granusim.coordinator import Federation, SyncSchedule, run, run_steps
from granusim.disruption import (DisruptionEvent, DisruptionStreamConfig,
                                 fixed_pattern, poisson_stream)
from granusim.errors import InvalidFactor, ScheduleError, UnknownNode, ZeroBaseline
from granusim.experiment import NetworkSpec, ScenarioConfig, build_federation
from granusim.federate import EDGE_LIST_MIN_NODES, MOP_BLOCK, FederateState
from granusim.topology import NETWORK_ORDER, Coupling, InterdependencyMap, NetworkId
from oracles import barrier_indices, lockstep_series, make_topology, scenario_lockstep_inputs


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
    federates = {
        NetworkId.WATER: FederateState(water),
        NetworkId.POWER: FederateState(power),
        NetworkId.BUSINESS: FederateState(business, lag=2),
    }
    return Federation(federates, couplings)


WEIGHTS = [(0.3, 0.4, 0.3), (0.2, 0.2, 0.6), (0.5, 0.5, 0.0), (0.1, 0.6, 0.3)]


def federation_of(nets, wiring):
    """The package's federation of ``lockstep_series`` inputs."""
    return Federation(
        {net: FederateState(make_topology(edges, n, net, intrinsic), weights=weights, lag=lag)
         for net, (edges, n, lag, weights, intrinsic) in nets.items()},
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
    for net in trace.networks:
        assert np.array_equal(trace.series[net], np.full(16, 100.0))


def test_registration_order_is_canonicalized():
    def build(order):
        base = small_federation()
        feds = {net: base.federates[net] for net in order}
        return Federation(feds, InterdependencyMap(couplings=(
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
    fed = small_federation()
    fed.exchange()
    fed.federates[NetworkId.WATER].apply_disruption([1, 2])
    for _ in range(3):
        for net in fed.order:
            fed.federates[net].step()
        # No barrier has run, so consumers still hold the seed values.
        assert fed.federates[NetworkId.BUSINESS].foreign_inputs.tolist() == [1.0, 1.0]
    fed.exchange()
    assert fed.federates[NetworkId.BUSINESS].foreign_inputs[0] == 0.0


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
        {NetworkId.WATER: FederateState(water),
         NetworkId.BUSINESS: FederateState(business)},
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
def small_federations(draw):
    """Two or three networks of 1-6 nodes with weights from ``WEIGHTS``
    and intrinsic levels in [0, 1], each wired fully, partly or not at
    all (nodes may hold several slots), any tg, and one event.  Levels
    sum to at least 0.5 per network, which keeps the MoP, a percent of
    that sum, within a few thousand."""
    nets_drawn = draw(st.sampled_from([
        NETWORK_ORDER, NETWORK_ORDER[:2], NETWORK_ORDER[1:],
        (NetworkId.WATER, NetworkId.BUSINESS)]))
    nets = {}
    for net in nets_drawn:
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        intrinsic = draw(st.lists(st.floats(0, 1, allow_subnormal=False), min_size=n,
                                  max_size=n).filter(lambda b: sum(b) >= 0.5))
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
    horizon = draw(st.integers(2, 24))
    tg = draw(st.integers(1, horizon + 2))
    origin = draw(st.sampled_from(nets_drawn))
    nodes = tuple(sorted(draw(st.lists(st.integers(0, nets[origin][1] - 1),
                                       min_size=1, unique=True))))
    apply_t = draw(st.integers(1, horizon - 1))
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


def test_a_federate_with_no_slots_keeps_no_foreign_term():
    # With no slots the step term is the federate's constant base, and
    # the barrier does not move it.
    fed = small_federation()  # nothing feeds water
    water = fed.federates[NetworkId.WATER]
    base = water.base.copy()
    assert water.foreign_inputs.size == 0
    assert water.term.tobytes() == base.tobytes()
    water.apply_disruption([1])
    water.step()
    fed.exchange()
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
        {NetworkId.WATER: FederateState(water), NetworkId.POWER: FederateState(power),
         NetworkId.BUSINESS: FederateState(business, lag=2)},
        InterdependencyMap(couplings=tuple(Coupling(*w) for w in wiring)))
    feds = fed.federates
    slots = {net: feds[net].foreign_inputs for net in fed.order}
    feds[NetworkId.WATER].apply_disruption([1])
    for _ in range(3):
        for net in fed.order:
            feds[net].step()

    read = {net: feds[net].performance.copy() for net in fed.order}
    fed.exchange()

    def expected_slots():
        return {net: [read[pn][pnode] for cn, _, pn, pnode in wiring if cn == net]
                for net in fed.order}

    assert all(feds[net].foreign_inputs is slots[net] for net in fed.order)
    assert {net: slots[net].tolist() for net in fed.order} == expected_slots()
    # Producers moving after the read leave the slots at the read values.
    for net in fed.order:
        feds[net].step()
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
    feds = {NetworkId.WATER: water, NetworkId.POWER: power}
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
    sizes, couplings = case
    fed = Federation({net: FederateState(make_topology([], n, net)) for net, n in sizes.items()},
                     InterdependencyMap(couplings=tuple(Coupling(*c) for c in couplings)))
    producers, consumers, nodes = barrier_indices(
        {net: sizes[net] for net in NETWORK_ORDER if net in sizes}, couplings)
    assert fed._producers.tolist() == producers
    assert fed._consumers.tolist() == consumers
    assert fed._divisor.tolist() == [max(consumers.count(i), 1)
                                     for i in range(sum(sizes.values()))]
    for net, state in fed.federates.items():
        uncoupled = [i not in nodes[net] for i in range(sizes[net])]
        if any(uncoupled):
            assert state.uncoupled.tolist() == uncoupled
        else:
            assert state.uncoupled is None
        assert state.foreign_inputs.size == len(nodes[net])
        assert state.foreign_inputs.base is fed._slots
        assert state.term.base is fed._terms


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
    assert trace.baselines[NetworkId.WATER] == 3.0
    assert trace.baselines[NetworkId.BUSINESS] == 2.0
    assert all(trace.series[n][0] == 100.0 for n in trace.networks)


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
               for n in expected.networks)


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


def test_zero_baseline_rejected_at_set_up():
    water = FederateState(make_topology([], 1, NetworkId.WATER, intrinsic=[0.0]))
    with pytest.raises(ZeroBaseline):
        run(Federation({NetworkId.WATER: water}), SyncSchedule(tg=1, horizon=5), [])


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
    fed = Federation({NetworkId.WATER: water, NetworkId.BUSINESS: business},
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
