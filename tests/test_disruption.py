import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granusim.disruption import (DisruptionEvent, DisruptionStreamConfig,
                                 fixed_pattern, poisson_stream)
from granusim.errors import GranusimError, InvalidEvent, SizeOverflow
from granusim.federate import FederateState
from granusim.topology import NetworkId
from oracles import make_topology


def test_event_validation():
    ok = DisruptionEvent(3, 5, NetworkId.WATER, (1, 2))
    assert ok.apply_time == 3
    with pytest.raises(ValueError):
        DisruptionEvent(5, 5, NetworkId.WATER, (1,))
    with pytest.raises(ValueError):
        DisruptionEvent(3, 5, NetworkId.WATER, ())
    with pytest.raises(ValueError):
        DisruptionEvent(3, 5, NetworkId.WATER, (1, 1))
    with pytest.raises(ValueError):
        DisruptionEvent(3, 5, NetworkId.WATER, (-1,))


@pytest.mark.parametrize("build, error, message", [
    (lambda topo: DisruptionEvent(51, 60, NetworkId.WATER, (1.5,)), InvalidEvent, "not an integer"),
    (lambda topo: DisruptionEvent(51, 60, NetworkId.WATER, (True,)), InvalidEvent, "not an integer"),
    (lambda topo: DisruptionEvent(51, 60, NetworkId.WATER, ("3",)), InvalidEvent, "not an integer"),
    (lambda topo: DisruptionEvent(51.5, 60, NetworkId.WATER, (1,)), InvalidEvent, "apply_time"),
    (lambda topo: DisruptionEvent(51, 60.0, NetworkId.WATER, (1,)), InvalidEvent, "retract_time"),
    (lambda topo: DisruptionEvent(True, 60, NetworkId.WATER, (1,)), InvalidEvent, "apply_time"),
    (lambda topo: FederateState(topo, lag=1.5), ValueError, "lag"),
    (lambda topo: FederateState(topo, lag=True), ValueError, "lag"),
])
def test_values_that_are_not_integers_rejected(water22, build, error, message):
    # Each was taken before: (1.5,) and (True,) disrupted node 1, ('3',)
    # and lag 1.5 raised a bare TypeError, lag True was lag 1, and an
    # apply_time of 51.5 was never delivered, so its retraction failed.
    with pytest.raises(error, match=message):
        build(water22)


def test_invalid_event_is_a_value_error():
    assert issubclass(InvalidEvent, ValueError) and issubclass(InvalidEvent, GranusimError)
    # numpy integers are integers.
    assert DisruptionEvent(np.int64(3), 5, NetworkId.WATER, (np.int64(1),)).nodes == (1,)


def test_stream_config_validation():
    with pytest.raises(ValueError):
        DisruptionStreamConfig(rate=0.0, size_range=(1, 2), rt_range=(1, 2), horizon=10)
    with pytest.raises(ValueError):
        DisruptionStreamConfig(rate=0.1, size_range=(3, 2), rt_range=(1, 2), horizon=10)
    with pytest.raises(ValueError):
        DisruptionStreamConfig(rate=0.1, size_range=(1, 2), rt_range=(0, 2), horizon=10)


def test_pattern_full_network(water22):
    assert fixed_pattern(22, water22, seed=1) == tuple(range(22))


def test_pattern_is_fixed_per_size_level(water22):
    a = fixed_pattern(8, water22, seed=20200831)
    b = fixed_pattern(8, water22, seed=20200831)
    assert a == b
    assert len(a) == 8
    assert a == tuple(sorted(set(a)))
    assert all(0 <= n < 22 for n in a)


def test_pattern_depends_only_on_seed_size_and_node_count(water22):
    other = make_topology([(0, 1), (5, 9)], 22, NetworkId.WATER)
    assert fixed_pattern(8, water22, seed=5) == fixed_pattern(8, other, seed=5)
    assert fixed_pattern(8, water22, seed=5) != fixed_pattern(8, water22, seed=6)
    assert fixed_pattern(8, water22, seed=5) != fixed_pattern(9, water22, seed=5)[:8] \
        or fixed_pattern(8, water22, seed=5) != fixed_pattern(9, water22, seed=5)


def test_pattern_size_checked(water22):
    with pytest.raises(SizeOverflow):
        fixed_pattern(23, water22, seed=1)
    with pytest.raises(ValueError):
        fixed_pattern(0, water22, seed=1)


def test_poisson_negligible_rate_is_empty(water22):
    config = DisruptionStreamConfig(rate=1e-12, size_range=(1, 3),
                                    rt_range=(1, 5), horizon=1000)
    assert poisson_stream(config, water22, seed=4) == []


def test_poisson_event_count_near_expectation(water22):
    config = DisruptionStreamConfig(rate=0.1, size_range=(1, 3),
                                    rt_range=(1, 5), horizon=10000)
    events = poisson_stream(config, water22, seed=4)
    # Poisson(1000): three standard deviations around the mean.
    assert abs(len(events) - 1000) < 3 * np.sqrt(1000)


def test_poisson_interarrival_mean(water22):
    config = DisruptionStreamConfig(rate=0.1, size_range=(1, 2),
                                    rt_range=(1, 2), horizon=1_200_000)
    events = poisson_stream(config, water22, seed=4)
    assert len(events) >= 100_000
    times = np.array([e.apply_time for e in events[:100_000]], dtype=float)
    mean_gap = float(np.diff(times).mean())
    assert abs(mean_gap - 10.0) / 10.0 < 0.05


def test_poisson_stream_is_deterministic(water22):
    config = DisruptionStreamConfig(rate=0.05, size_range=(1, 4),
                                    rt_range=(2, 9), horizon=2000)
    assert poisson_stream(config, water22, seed=9) == \
        poisson_stream(config, water22, seed=9)


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(0.01, 1.0), hi_size=st.integers(1, 22),
       hi_rt=st.integers(1, 30), horizon=st.integers(2, 300),
       seed=st.integers(0, 10 ** 6))
def test_poisson_events_respect_invariants(rate, hi_size, hi_rt, horizon, seed):
    topo = make_topology([], 22, NetworkId.WATER)
    config = DisruptionStreamConfig(rate=rate, size_range=(1, hi_size),
                                    rt_range=(1, hi_rt), horizon=horizon)
    for ev in poisson_stream(config, topo, seed):
        assert 1 <= ev.apply_time < horizon
        assert ev.apply_time < ev.retract_time <= horizon
        assert 1 <= len(ev.nodes) <= 22
        assert ev.nodes == tuple(sorted(set(ev.nodes)))
