import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granusim.coordinator import Federation, SyncSchedule, run_steps
from granusim.disruption import DisruptionEvent
from granusim.errors import UnknownNode
from granusim.federate import EDGE_LIST_MIN_NODES, MOP_BLOCK, FederateState
from granusim.topology import NetworkId
from oracles import ScalarFederate, fed_by_feeder, make_topology


def test_weights_must_sum_to_one():
    topo = make_topology([], 2)
    with pytest.raises(ValueError):
        FederateState(topo, weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        FederateState(topo, weights=(-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        FederateState(topo, lag=0)


@pytest.mark.parametrize("weights", [(0.25,) * 4, (0.5, 0.5)])
def test_weights_must_be_three(weights):
    # The weight rule refuses them, not the unpacking after it.
    with pytest.raises(ValueError, match=re.escape(f"(w_int, w_in, w_ext), got {weights}")):
        FederateState(make_topology([], 2), weights=weights)


@pytest.mark.parametrize("weights", ["abc", None, (True, False, False), ("0.3", 0.4, 0.3)])
def test_weights_must_be_a_sequence_of_real_numbers(weights):
    # 'abc' and None raised a bare TypeError, and (True, False, False)
    # ran as (1.0, 0.0, 0.0), although a scenario file's bools are refused.
    with pytest.raises(ValueError, match=re.escape(
            f"weights: expected a one-dimensional sequence of real numbers, got {weights!r}")):
        FederateState(make_topology([], 2), weights=weights)


@pytest.mark.parametrize("weights", [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5),
                                     (float("inf"), 0.5, 0.5)])
def test_weights_must_be_finite(weights):
    with pytest.raises(ValueError, match="weights: must be finite"):
        FederateState(make_topology([], 2), weights=weights)


def test_weights_may_be_a_numpy_array():
    # Read by the real-series rule, as a topology's levels are; refused
    # before, as the weights of neither a tuple nor a list.
    fed = FederateState(make_topology([], 2), weights=np.array([0.3, 0.4, 0.3]))
    assert (fed.w_int, fed.w_in, fed.w_ext) == (0.3, 0.4, 0.3)
    assert type(fed.w_int) is float


@pytest.mark.parametrize("intrinsic", [[1.0, -0.1], [1.5, 1.0], [float("nan"), 1.0]])
def test_intrinsic_levels_outside_unit_interval_rejected(intrinsic):
    # Checked by the topology, once, not by each federate built on it.
    with pytest.raises(ValueError, match="intrinsic"):
        make_topology([], 2, intrinsic=intrinsic)


def test_isolated_node_is_fixed_point():
    fed = FederateState(make_topology([], 1))
    for _ in range(10):
        fed.step()
        assert fed.performance[0] == 1.0


def test_disrupted_node_outputs_zero():
    fed = FederateState(make_topology([(0, 1)], 2))
    fed.apply_disruption([0])
    for _ in range(2):
        fed.step()
        assert fed.performance[0] == 0.0


def test_chain_hand_value_with_foreign_inputs():
    # Downstream of a disrupted supplier with foreign inputs held at 1:
    # 0.3*1 + 0.4*0 + 0.3*1 = 0.6 on the next step.  Building the
    # federation latches the 1.0 slots.
    fed = FederateState(make_topology([(0, 1)], 2))
    federation, _ = fed_by_feeder(fed, [0, 1])
    fed.apply_disruption([0])
    federation.step()
    expected = 0.3 * 1.0 + 0.4 * 0.0 + 0.3 * 1.0
    assert fed.performance[1] == expected


def test_apply_empty_set_is_noop():
    fed = FederateState(make_topology([(0, 1)], 2))
    before = fed.performance.copy()
    fed.apply_disruption([])
    assert np.array_equal(fed.performance, before)
    assert not fed.disrupted.any()


def test_apply_all_nodes_zeroes_the_network(water22):
    fed = FederateState(water22)
    fed.apply_disruption(range(22))
    fed.step()
    assert fed.performance.sum() == 0.0


def test_apply_eight_of_22_sets_eight_flags(water22):
    fed = FederateState(water22)
    fed.apply_disruption([0, 3, 5, 7, 11, 13, 17, 19])
    assert int(fed.disrupted.sum()) == 8


def test_apply_out_of_range_rejected(water22):
    fed = FederateState(water22)
    with pytest.raises(UnknownNode):
        fed.apply_disruption([22])
    with pytest.raises(UnknownNode):
        fed.retract_disruption([-1])


def test_retract_clears_all_flags(water22):
    fed = FederateState(water22)
    nodes = [0, 3, 5, 7, 11, 13, 17, 19]
    fed.apply_disruption(nodes)
    fed.retract_disruption(nodes)
    assert not fed.disrupted.any()
    assert np.array_equal(fed.performance[nodes], np.ones(8))


def test_retract_subset_keeps_rest_pinned():
    fed = FederateState(make_topology([], 3))
    fed.apply_disruption([0, 1])
    fed.retract_disruption([0])
    fed.step()
    assert fed.performance[0] == 1.0
    assert fed.performance[1] == 0.0


def test_retract_of_undisrupted_rejected():
    fed = FederateState(make_topology([], 2))
    with pytest.raises(ValueError):
        fed.retract_disruption([0])


def test_overlapping_disruptions_count_per_node():
    # Node 1 is covered by both events and stays down until the second
    # one is retracted; a third retract finds nothing left to retract.
    fed = FederateState(make_topology([], 3))
    fed.apply_disruption([0, 1])
    fed.apply_disruption([1, 2])
    assert fed.disrupted.tolist() == [1, 2, 1]
    fed.retract_disruption([0, 1])
    fed.step()
    assert fed.performance.tolist() == [1.0, 0.0, 0.0]
    fed.retract_disruption([1, 2])
    fed.step()
    assert fed.performance.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        fed.retract_disruption([1])


def test_single_node_disrupt_retract_trace():
    # Expected trace: 1, then k zeros, then 1 again.
    k = 4
    fed = FederateState(make_topology([], 1))
    trace = [fed.performance[0]]
    fed.apply_disruption([0])
    for _ in range(k):
        fed.step()
        trace.append(fed.performance[0])
    fed.retract_disruption([0])
    fed.step()
    trace.append(fed.performance[0])
    assert trace == [1.0] + [0.0] * k + [1.0]


def test_disruption_writes_do_not_reach_the_history():
    # The ring rows the next ``lag`` steps read hold the states the last
    # ``lag`` steps wrote; applying or retracting a disruption changes
    # only the masks, so no row of the ring changes.
    fed = FederateState(make_topology([(0, 1), (1, 2)], 3, intrinsic=[1.0, 0.5, 0.25]),
                        lag=2)
    written = []

    def lagged():
        return [fed.states[(fed.steps - fed.lag + i) % len(fed.states)].tolist()
                for i in range(fed.lag)]

    for change in (None, None, fed.apply_disruption, None, fed.retract_disruption):
        if change is not None:
            ring = fed.states.copy()
            change([0, 1])
            assert fed.states.tobytes() == ring.tobytes()
            assert lagged() == written[-fed.lag:]
        fed.step()
        written.append(fed.performance.tolist())
    assert written[-2][:2] == [0.0, 0.0]


@pytest.mark.parametrize("n", [3, EDGE_LIST_MIN_NODES])
def test_step_writes_its_ring_row_and_matches_the_federate_in_a_run(n):
    # The dense kernel at 3 nodes, the edge list on a ring of 160.  A
    # lag-2 ring holds 32 rows, so 70 steps wrap it twice.
    topology = make_topology([(i, (i + 1) % n) for i in range(n)], n)
    alone, in_run = FederateState(topology, lag=2), FederateState(topology, lag=2)
    assert (alone.in_matrix is None) == (n == EDGE_LIST_MIN_NODES)
    ring = len(alone.states)
    assert ring == MOP_BLOCK
    assert alone.states.tobytes() == np.tile(alone.intrinsic, (ring, 1)).tobytes()
    steps = run_steps(Federation([in_run]), SyncSchedule(tg=5, horizon=70),
                      [DisruptionEvent(1, 4, NetworkId.WATER, (0,))])
    for k in range(70):
        if k == 0:
            alone.apply_disruption([0])
        elif k == 3:
            alone.retract_disruption([0])
        alone.step()
        assert next(steps) == k + 1
        for fed in (alone, in_run):
            assert fed.steps == k + 1
            assert np.shares_memory(fed.performance, fed.states[k % ring])
        assert alone.performance.tobytes() == in_run.performance.tobytes()
    assert alone.states.tobytes() == in_run.states.tobytes()
    assert alone.states.min() < 1.0


def test_slot_writes_reach_the_step_only_once_latched():
    # The feeder moves at once; the federate sees it only after a barrier.
    edges = [(0, 1), (1, 2)]
    latched = FederateState(make_topology(edges, 3))
    untouched = FederateState(make_topology(edges, 3))
    federation, feeder = fed_by_feeder(latched, [0, 2, 2])
    untouched_federation, _ = fed_by_feeder(untouched, [0, 2, 2])
    for _ in range(3):
        federation.step()
        untouched_federation.step()
        assert np.array_equal(latched.performance, untouched.performance)
    feeder.performance[...] = [0.5, 0.25, 0.0]
    federation.exchange()
    federation.step()
    untouched_federation.step()
    # 0.3 + 0.4 + 0.3 * 0.5 at node 0; 0.3 + 0.4 + 0.3 * 0.125 at node 2.
    assert latched.performance.tolist() == pytest.approx([0.85, 1.0, 0.7375], abs=1e-12)
    assert untouched.performance.tolist() == [1.0, 1.0, 1.0]


def test_lag_two_delays_recovery():
    # The disruption flag masks inputs immediately, but after retraction
    # the stale zeros linger in the history for ``lag`` steps.
    def recovery_steps(lag):
        fed = FederateState(make_topology([(0, 1)], 2), lag=lag)
        fed.apply_disruption([0])
        for _ in range(3):
            fed.step()
        fed.retract_disruption([0])
        for k in range(1, 6):
            fed.step()
            if fed.performance[1] == 1.0:
                return k
        return None

    assert recovery_steps(1) == 2
    assert recovery_steps(2) == 3


def test_no_in_edges_falls_back_to_intrinsic():
    topo = make_topology([], 2, intrinsic=[0.5, 0.5])
    fed = FederateState(topo)
    fed.step()
    # (0.3*0.5 + 0.4*0.5) / 0.7 = 0.5 and stays there.
    assert fed.performance.tolist() == [0.5, 0.5]


def test_matches_scalar_oracle_on_random_runs():
    # Ten small networks of any density take the dense kernel; three
    # at 3.5 edges per node from the crossover on take the edge list.
    rng = np.random.default_rng(7)
    small = [int(n) for n in rng.integers(2, 7, size=10)]
    for n in small + [EDGE_LIST_MIN_NODES, 200, 300]:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        m = int(rng.integers(0, len(pairs) + 1)) if n in small else 7 * n // 2
        edges = [pairs[i] for i in sorted(rng.choice(len(pairs), m, replace=False))]
        lag = int(rng.integers(1, 4))
        consumers = [int(c) for c in rng.integers(0, n, size=rng.integers(0, n // 2 + 4))]
        fed = FederateState(make_topology(edges, n), lag=lag)
        assert (fed.in_matrix is None) == (n not in small)
        federation, feeder = fed_by_feeder(fed, consumers)
        ref = ScalarFederate(edges, n, lag=lag, consumers=consumers)
        down = set()
        for t in range(30):
            if t == 5:
                target = sorted(rng.choice(n, rng.integers(1, n + 1), replace=False))
                fed.apply_disruption(target)
                ref.apply(target)
                down = set(target)
            if t == 15 and down:
                fed.retract_disruption(sorted(down))
                ref.retract(sorted(down))
                down = set()
            foreign = rng.uniform(0, 1, size=len(consumers))
            feeder.performance[...] = foreign
            federation.exchange()
            ref.foreign = list(foreign)
            federation.step()
            ref.step()
            assert np.allclose(fed.performance, ref.perf, atol=1e-12, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.tuples(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1)),
    lag=st.integers(1, 3),
    seed=st.integers(0, 10 ** 6),
)
def test_performance_stays_bounded(raw, lag, seed):
    total = sum(raw)
    weights = tuple(w / total for w in raw)
    rng = np.random.default_rng(seed)
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = [pairs[i] for i in sorted(rng.choice(len(pairs), 8, replace=False))]
    fed = FederateState(make_topology(edges, n), weights=weights, lag=lag)
    federation, feeder = fed_by_feeder(fed, [0, 2, 2])
    fed.apply_disruption([1])
    for t in range(20):
        feeder.performance[...] = rng.uniform(0, 1, size=3)
        federation.exchange()
        if t == 10:
            fed.retract_disruption([1])
        federation.step()
        assert (fed.performance >= 0).all() and (fed.performance <= 1).all()


def test_quiescence_under_unit_inputs():
    rng = np.random.default_rng(3)
    pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
    edges = [pairs[i] for i in sorted(rng.choice(len(pairs), 12, replace=False))]
    fed = FederateState(make_topology(edges, 6))
    federation, _ = fed_by_feeder(fed, [1, 4])
    for _ in range(25):
        federation.step()
        federation.exchange()
        assert np.array_equal(fed.performance, np.ones(6))


def test_superset_disruption_never_helps():
    # On the 3-node line, disrupting more nodes can only lower MoP.
    edges = [(0, 1), (1, 2)]
    subsets = [tuple(s) for r in range(4)
               for s in itertools.combinations(range(3), r)]

    def simulate(nodes):
        fed = FederateState(make_topology(edges, 3))
        fed.apply_disruption(list(nodes))
        sums = []
        for _ in range(12):
            fed.step()
            sums.append(float(fed.performance.sum()))
        return sums

    curves = {s: simulate(s) for s in subsets}
    for small, big in itertools.combinations(subsets, 2):
        if set(small) <= set(big):
            assert all(a >= b for a, b in zip(curves[small], curves[big]))

