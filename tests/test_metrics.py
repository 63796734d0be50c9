import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granusim.metrics import MoPTrace, classify_visibility, compute_spds, compute_sprt
from granusim.topology import NETWORK_ORDER, NetworkId
from oracles import trace_csv


def make_trace(values, network=NetworkId.BUSINESS):
    series = {network: np.asarray(values, dtype=float)}
    return MoPTrace(series=series)


def test_trace_horizon():
    assert make_trace([100.0] * 11).horizon == 10


def test_trace_csv_format():
    trace = MoPTrace(
        series={NetworkId.WATER: np.array([100.0, 62.5]),
                NetworkId.BUSINESS: np.array([100.0, 100.0])})
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,mop_water,mop_business"
    assert lines[1] == "0,100.000000,100.000000"
    assert lines[2] == "1,62.500000,100.000000"


# Signed zero, a value that rounds up at the sixth decimal, a wide value
# and the non-finite ones.
EDGE_VALUES = [-0.0, 99.9999995, 1e6, float("nan"), float("inf"), float("-inf")]


@settings(max_examples=100, deadline=None)
@given(horizon=st.integers(0, 500),
       networks=st.permutations(NETWORK_ORDER).flatmap(
           lambda order: st.integers(1, 3).map(lambda k: order[:k])),
       palette=st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)),
                        min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
@example(horizon=0, networks=(NetworkId.BUSINESS,), palette=[-0.0], seed=0)
@example(horizon=500, networks=(NetworkId.BUSINESS, NetworkId.WATER, NetworkId.POWER),
         palette=EDGE_VALUES, seed=1)
def test_trace_csv_is_the_row_by_row_text(horizon, networks, palette, seed):
    # Networks registered in any order; each series draws its values
    # from the palette, so long horizons still see every edge value.
    rng = np.random.default_rng(seed)
    series = {net: rng.choice(np.array(palette), size=horizon + 1) for net in networks}
    trace = MoPTrace(series=series)
    assert trace.to_csv() == trace_csv(trace)


def test_spds_flat_trace_is_zero():
    assert compute_spds(make_trace([100.0] * 5), NetworkId.BUSINESS, 0) == 0.0


def test_spds_reads_lowest_point():
    trace = make_trace([100, 100, 80, 62, 90, 100])
    assert compute_spds(trace, NetworkId.BUSINESS, 1) == 38.0


def test_spds_ignores_dips_before_apply_time():
    trace = make_trace([100, 50, 100, 90, 100])
    assert compute_spds(trace, NetworkId.BUSINESS, 2) == 10.0


def test_spds_bounds_checked():
    with pytest.raises(ValueError):
        compute_spds(make_trace([100.0] * 3), NetworkId.BUSINESS, 5)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(0, 100), min_size=2, max_size=30),
       extra=st.integers(1, 10))
def test_spds_invariant_under_appended_recovery(values, extra):
    base = compute_spds(make_trace(values), NetworkId.BUSINESS, 0)
    padded = compute_spds(make_trace(values + [100.0] * extra),
                          NetworkId.BUSINESS, 0)
    assert padded == base


def test_sprt_zero_when_never_dipped():
    assert compute_sprt(make_trace([100.0] * 6), NetworkId.BUSINESS, 2) == 0


def test_sprt_counts_from_retraction():
    values = [100, 100, 80, 70, 70, 75, 80, 85, 90, 99.2, 100]
    # Retraction at t=2; first sample >= 99 is t=9.
    assert compute_sprt(make_trace(values), NetworkId.BUSINESS, 2) == 7


def test_sprt_censored_when_pinned_low():
    assert compute_sprt(make_trace([90.0] * 8), NetworkId.BUSINESS, 1) is None


def test_sprt_bounds_checked():
    with pytest.raises(ValueError):
        compute_sprt(make_trace([100.0] * 3), NetworkId.BUSINESS, 9)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(0, 100), min_size=3, max_size=25),
       deltas=st.lists(st.floats(0, 50), min_size=3, max_size=25))
def test_sprt_monotone_under_dominating_trace(values, deltas):
    k = min(len(values), len(deltas))
    low = values[:k]
    high = [min(100.0, v + d) for v, d in zip(low, deltas)]
    s_low = compute_sprt(make_trace(low), NetworkId.BUSINESS, 0)
    s_high = compute_sprt(make_trace(high), NetworkId.BUSINESS, 0)
    if s_low is not None:
        assert s_high is not None and s_high <= s_low


def test_visibility_threshold_is_strict():
    assert not classify_visibility(0.0)
    assert classify_visibility(38.0)
    assert not classify_visibility(5.0)
    assert classify_visibility(5.0000001)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(95.001, 100), min_size=2, max_size=20))
def test_shallow_traces_never_visible(values):
    spds = compute_spds(make_trace(values), NetworkId.BUSINESS, 0)
    assert not classify_visibility(spds)


def test_a_float_series_is_stored_as_given_and_a_real_one_as_a_float_array():
    # ``run_steps`` hands its float arrays over without a copy.
    given = np.array([100.0, 99.0])
    trace = MoPTrace({NetworkId.WATER: given, "power": [100, np.int64(98)]})
    assert trace.series[NetworkId.WATER] is given
    assert list(trace.series) == [NetworkId.WATER, NetworkId.POWER]
    assert trace.series[NetworkId.POWER].dtype == np.float64
    assert trace.series[NetworkId.POWER].tolist() == [100.0, 98.0]
