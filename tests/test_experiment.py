import ast
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from granusim.errors import InvalidFactor, ScenarioError
from granusim.experiment import (DEFAULT_NETWORKS, RESULTS_HEADER,
                                 FactorLevels, NetworkSpec, ScenarioConfig,
                                 build_federation, build_layout,
                                 build_topologies,
                                 disruption_onset, pattern_hash,
                                 results_csv, run_experiment, run_single,
                                 timing_profile, wiring)
from granusim.federate import EDGE_LIST_ENTRIES_PER_EDGE, EDGE_LIST_MIN_NODES, uses_edge_list
from granusim.topology import NETWORK_ORDER, NetworkId

SMALL = ScenarioConfig(horizon=280)
# The wide_sync benchmark workload's scenario: three 300-node networks
# with 1,050 edges each, the business network lagged by 2.
WIDE = ScenarioConfig(horizon=300, couplings_per_node=3, networks=tuple(
    NetworkSpec(net, 300, 1050, lag=lag) for net, lag in zip(NETWORK_ORDER, (1, 1, 2))))


def test_default_levels_are_the_published_draw():
    levels = FactorLevels()
    assert levels.tg_levels == (2, 12, 14, 21, 27)
    assert levels.rt_levels == (2, 9, 13, 17, 22)
    assert levels.ds_levels == (8, 12, 14, 18, 21)


def test_levels_must_be_ascending_positive():
    with pytest.raises(ValueError):
        FactorLevels(tg_levels=(3, 2))
    with pytest.raises(ValueError):
        FactorLevels(rt_levels=())
    with pytest.raises(ValueError):
        FactorLevels(ds_levels=(0, 1))
    # The run path's rule: an int that is not a bool.
    with pytest.raises(ValueError):
        FactorLevels(tg_levels=(2.5,), rt_levels=(2,), ds_levels=(8,))
    with pytest.raises(ValueError):
        FactorLevels(tg_levels=(True, 2))


def test_default_networks_match_published_sizes():
    sizes = {(n.network_id, n.node_count, n.edge_count, n.lag)
             for n in DEFAULT_NETWORKS}
    assert sizes == {(NetworkId.WATER, 22, 77, 1),
                     (NetworkId.POWER, 21, 77, 1),
                     (NetworkId.BUSINESS, 20, 75, 2)}


def test_layout_has_125_rows_in_ds_rt_tg_order():
    levels = FactorLevels()
    layout = build_layout(levels)
    assert len(layout) == 125
    expected = [(tg, rt, ds) for ds, rt, tg in itertools.product(
        levels.ds_levels, levels.rt_levels, levels.tg_levels)]
    assert layout == expected


def test_layout_degenerate_and_small():
    assert build_layout(FactorLevels((3,), (4,), (5,))) == [(3, 4, 5)]
    layout = build_layout(FactorLevels((1, 2), (1, 2, 3), (1, 2, 3, 4)))
    assert len(layout) == 24
    assert layout[0] == (1, 1, 1)
    assert layout[1] == (2, 1, 1)  # tg varies fastest
    assert layout[-1] == (2, 3, 4)


def test_scenario_roundtrip():
    config = ScenarioConfig(master_seed=7, horizon=300, align_sync=True)
    assert ScenarioConfig.from_json(config.to_json()) == config


def test_scenario_rejects_malformed_json():
    with pytest.raises(ScenarioError, match="line"):
        ScenarioConfig.from_json("{not json")
    with pytest.raises(ScenarioError, match="top level"):
        ScenarioConfig.from_json("[1, 2]")
    with pytest.raises(ScenarioError, match="horizon"):
        ScenarioConfig.from_json('{"horizon": "tall"}')
    with pytest.raises(ScenarioError, match="origin"):
        ScenarioConfig.from_json('{"origin": "gas"}')
    with pytest.raises(ScenarioError, match="networks"):
        ScenarioConfig.from_json('{"networks": [{"id": "water"}]}')


WATER = {"id": "water", "nodes": 4, "edges": 6}


@pytest.mark.parametrize("doc, field", [
    ({"networks": [dict(WATER, weights=[0.5, 0.5])]}, "weights"),
    ({"networks": [dict(WATER, weights=[0.5, 0.5, 0.5])]}, "weights"),
    ({"networks": [dict(WATER, nodes=0, edges=0)]}, "nodes"),
    ({"networks": [dict(WATER, lag=0)]}, "lag"),
    ({"networks": [dict(WATER, edges=13)]}, "edges"),
    ({"couplings_per_node": 0}, "couplings_per_node"),
    ({"networks": {"water": WATER}}, "'networks'"),
    # Network counts are JSON ints, like the top-level fields: no
    # truncated floats, parsed strings or booleans.
    ({"networks": [dict(WATER, nodes=4.9)]}, "nodes"),
    ({"networks": [dict(WATER, nodes="4")]}, "nodes"),
    ({"networks": [dict(WATER, edges=6.0)]}, "edges"),
    ({"networks": [dict(WATER, lag="2")]}, "lag"),
    ({"networks": [dict(WATER, lag=True)]}, "lag"),
    # A misspelled key is an error, not a default.
    ({"horizn": 900}, "field 'horizn': unknown"),
    ({"networks": [dict(WATER, lagg=3)]}, "field 'lagg': unknown"),
    # NaN passes both the sign and the sum test.
    ({"networks": [dict(WATER, weights=[float("nan"), 0.5, 0.5])]}, "weights"),
])
def test_scenario_fields_checked_when_parsed(doc, field):
    with pytest.raises(ScenarioError, match=field):
        ScenarioConfig.from_json(json.dumps(doc))


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(networks=(DEFAULT_NETWORKS[0], DEFAULT_NETWORKS[0]))
    with pytest.raises(ScenarioError):
        ScenarioConfig(networks=DEFAULT_NETWORKS[:2])  # business target missing
    with pytest.raises(ScenarioError):
        ScenarioConfig(warmup=0)


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioConfig(horizon=400.5), "horizon"),
    (lambda: ScenarioConfig(align_sync=1), "align_sync"),
    (lambda: ScenarioConfig(master_seed="7"), "master_seed"),
    (lambda: NetworkSpec(NetworkId.WATER, True, 4), "nodes"),
    (lambda: NetworkSpec(NetworkId.WATER, 4, 6, lag=2.0), "lag"),
])
def test_configs_built_in_python_are_checked_like_parsed_ones(build, field):
    with pytest.raises(ScenarioError, match=f"field '{field}'"):
        build()


BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _dict_keys_in(function: str) -> set[str]:
    """Keys of the dict literals in ``function`` of the benchmark's run.py."""
    for node in ast.walk(ast.parse(BENCH.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {ast.literal_eval(key) for d in ast.walk(node)
                    if isinstance(d, ast.Dict) for key in d.keys}
    raise AssertionError(f"no function {function} in {BENCH}")


def test_benchmark_scenario_keys_are_known():
    # Read from the source, like the traced layers: a key the benchmark
    # writes and the package would reject fails here, not in the benchmark.
    known = json.loads(ScenarioConfig().to_json())
    assert _dict_keys_in("scenario_doc") <= known.keys()
    assert _dict_keys_in("_networks") <= known["networks"][0].keys()


def test_onset_follows_warmup():
    config = ScenarioConfig()
    assert disruption_onset(config, tg=10) == 51
    aligned = replace(config, align_sync=True)
    assert disruption_onset(aligned, tg=10) == 60
    assert disruption_onset(aligned, tg=17) == 51  # 51 = 3*17 already


def test_pattern_hash_is_short_stable_hex():
    h = pattern_hash((1, 5, 9))
    assert len(h) == 12
    assert int(h, 16) >= 0
    assert h == pattern_hash((1, 5, 9))
    assert h != pattern_hash((1, 5, 10))


def test_build_topologies_deterministic():
    a = [t.to_json() for t in build_topologies(SMALL)]
    b = [t.to_json() for t in build_topologies(SMALL)]
    assert a == b
    assert [t.node_count for t in build_topologies(SMALL)] == [22, 21, 20]


def test_federations_of_one_config_share_no_mutable_array():
    # The wiring is built once per config; the states it feeds are not.
    # What the builds share is frozen, and so are its array forms.
    a, b = build_federation(SMALL), build_federation(SMALL)
    shared = [wiring(SMALL)[1].coupling_array]
    for net in a.order:
        fa, fb = a.federates[net], b.federates[net]
        assert fa.topology is fb.topology
        shared += [fa.topology.edge_array, fa.topology.edges_by_target]

        assert fa.steps == fb.steps == 0

        def arrays(f):
            return [f.performance, f.foreign_inputs, f.disrupted, f._keep,
                    f.term, f.states]
        for x in arrays(fa):
            assert not any(np.shares_memory(x, y) for y in arrays(fb))
    assert shared[0] is wiring(SMALL)[1].coupling_array
    for x in shared:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1


def test_each_federate_picks_its_kernel_from_its_network_size():
    # The paper's networks keep the dense matrix; wide_sync's run on
    # their edge lists and build no dense matrix.
    for config, edge_list in ((ScenarioConfig(), False), (WIDE, True)):
        for fed in build_federation(config).federates.values():
            assert (fed.in_matrix is None) == edge_list
    n = EDGE_LIST_MIN_NODES
    most_edges = n * n // EDGE_LIST_ENTRIES_PER_EDGE
    assert not uses_edge_list(n - 1, 0)
    assert uses_edge_list(n, most_edges)
    assert not uses_edge_list(n, most_edges + 1)


def test_wiring_follows_the_seed_and_the_network_spec():
    def built(config):
        fed = build_federation(config)
        return ([fed.federates[net].topology for net in fed.order],
                (fed._producers.tolist(), fed._consumers.tolist()))

    first = built(SMALL)
    assert first[0] == build_topologies(SMALL)
    reseeded = replace(SMALL, master_seed=SMALL.master_seed + 1)
    resized = replace(SMALL, networks=(replace(DEFAULT_NETWORKS[0], edge_count=70),
                                       *DEFAULT_NETWORKS[1:]))
    recoupled = replace(SMALL, couplings_per_node=2)
    for other in (reseeded, resized, recoupled):
        topologies, slots = built(other)
        assert topologies == build_topologies(other)
        assert (topologies, slots) != first
        assert built(SMALL) == first
    assert len(built(resized)[0][0].edges) == 70
    # Horizon, warm-up, weights and lag do not decide the wiring: the
    # cache keeps it.
    topologies = built(SMALL)[0]
    moved = replace(SMALL, warmup=SMALL.warmup + 7, horizon=SMALL.horizon + 40)
    reweighted = replace(SMALL, networks=tuple(
        replace(n, weights=(0.2, 0.5, 0.3), lag=n.lag + 1) for n in SMALL.networks))
    for same in (moved, reweighted):
        assert all(a is b for a, b in zip(built(same)[0], topologies, strict=True))


@pytest.mark.parametrize("config, tg, rt, ds, named", [
    (replace(SMALL, align_sync=True), 0, 2, 8, "tg"),
    (SMALL, -3, 2, 8, "tg"),
    (SMALL, 2, 0, 8, "rt"),
    (SMALL, 2, 2, 0, "ds"),
    (replace(SMALL, align_sync=True), 2.5, 2, 8, "tg"),
    (SMALL, 2, 2.5, 8, "rt"),
    (SMALL, 2, 2, 8.5, "ds"),
    (SMALL, 2, True, 8, "rt"),
])
def test_factor_levels_below_one_rejected_by_name(config, tg, rt, ds, named):
    # Checked before the onset, which takes t0 % tg when aligned.  A
    # level that is not an integer fails the same check: a float rt or
    # ds would otherwise die in slicing or in fixed_pattern with a
    # TypeError, and True would run as 1.
    level = {"tg": tg, "rt": rt, "ds": ds}[named]
    message = f"{named}: must be a positive integer, got {level}"
    with pytest.raises(InvalidFactor, match=re.escape(message)):
        run_single(config, tg, rt, ds)
    [row] = run_experiment(config, [(tg, rt, ds)], jobs=1)
    assert row.status == f"error: {message}"


def test_numpy_integer_levels_run_like_ints():
    as_numpy, _, _ = run_single(SMALL, np.int64(5), np.int32(10), np.int64(8))
    as_int, _, _ = run_single(SMALL, 5, 10, 8)
    assert (as_numpy.spds, as_numpy.sprt, as_numpy.visible) == \
        (as_int.spds, as_int.sprt, as_int.visible)


@pytest.mark.parametrize("module", ["granusim.experiment", "granusim.cli"])
def test_import_leaves_the_process_pool_unloaded(module):
    # concurrent.futures pulls in logging; only experiment --jobs N needs it.
    import granusim
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(granusim.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, {module}; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"


def test_run_single_outcome_shape():
    outcome, trace, pattern = run_single(SMALL, tg=5, rt=10, ds=8)
    assert outcome.tg == 5 and outcome.rt == 10 and outcome.ds == 8
    assert len(pattern) == 8
    assert trace.horizon == SMALL.horizon
    assert 0.0 <= outcome.spds <= 100.0
    assert outcome.sec_per_step > 0


def test_wide_window_is_visible():
    # rt at least twice tg guarantees a sync lands inside the window.
    outcome, _, _ = run_single(SMALL, tg=5, rt=10, ds=8)
    assert outcome.visible


def test_horizon_headroom_enforced():
    with pytest.raises(ScenarioError):
        run_single(ScenarioConfig(horizon=100), tg=5, rt=10, ds=8)
    outcome, _, _ = run_single(ScenarioConfig(horizon=280), tg=5, rt=10, ds=8)
    assert outcome.sprt is not None


def test_run_single_is_deterministic():
    a, ta, pa = run_single(SMALL, tg=4, rt=9, ds=12)
    b, tb, pb = run_single(SMALL, tg=4, rt=9, ds=12)
    assert (a.spds, a.sprt, a.visible) == (b.spds, b.sprt, b.visible)
    assert ta.to_csv() == tb.to_csv()
    assert pa == pb


def _strip_timing(csv_text):
    out = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        del cells[8]  # sec_per_step
        out.append(",".join(cells))
    return "\n".join(out)


SMALL_LAYOUT = [(2, 4, 8), (7, 4, 8), (7, 4, 12), (3, 9, 12)]


def test_run_experiment_rows_in_layout_order():
    rows = run_experiment(SMALL, SMALL_LAYOUT, jobs=1)
    assert [(r.tg, r.rt, r.ds) for r in rows] == SMALL_LAYOUT
    assert [r.run_id for r in rows] == [0, 1, 2, 3]
    assert all(r.status == "ok" for r in rows)


def test_run_experiment_metric_columns_reproduce():
    a = results_csv(run_experiment(SMALL, SMALL_LAYOUT, jobs=1))
    b = results_csv(run_experiment(SMALL, SMALL_LAYOUT, jobs=1))
    assert _strip_timing(a) == _strip_timing(b)


def test_parallel_jobs_match_sequential():
    seq = results_csv(run_experiment(SMALL, SMALL_LAYOUT, jobs=1))
    par = results_csv(run_experiment(SMALL, SMALL_LAYOUT, jobs=3))
    assert _strip_timing(seq) == _strip_timing(par)


def test_failed_runs_recorded_without_stopping():
    layout = [(2, 4, 8), (2, 4, 99), (3, 4, 8)]  # ds=99 cannot fit
    rows = run_experiment(SMALL, layout, jobs=1)
    assert [r.status == "ok" for r in rows] == [True, False, True]
    assert rows[1].status.startswith("error:")
    assert rows[1].outcome is None
    csv_text = results_csv(rows)
    assert len(csv_text.splitlines()) == 4


def test_pattern_hash_constant_within_ds_level():
    rows = run_experiment(SMALL, SMALL_LAYOUT, jobs=1)
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r.ds, set()).add(pattern_hash(r.pattern))
    assert all(len(hashes) == 1 for hashes in by_ds.values())
    assert by_ds[8] != by_ds[12]


def test_programming_errors_are_not_error_rows(monkeypatch):
    def broken(*args):
        raise RuntimeError("not a per-run failure")

    monkeypatch.setattr("granusim.experiment.run_single", broken)
    with pytest.raises(RuntimeError, match="not a per-run failure"):
        run_experiment(SMALL, SMALL_LAYOUT[:1], jobs=1)


def test_a_failed_trace_write_leaves_no_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="simulated rename failure"):
        run_experiment(SMALL, SMALL_LAYOUT[:1], jobs=1, traces_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_traces_dir_written(tmp_path):
    rows = run_experiment(SMALL, SMALL_LAYOUT[:2], jobs=1, traces_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["run_000.csv", "run_001.csv"]
    header = (tmp_path / "run_000.csv").read_text().splitlines()[0]
    assert header == "t,mop_water,mop_power,mop_business"


def test_results_csv_header_exact():
    text = results_csv(run_experiment(SMALL, [(2, 4, 8)], jobs=1))
    assert text.splitlines()[0] == RESULTS_HEADER
    assert RESULTS_HEADER == ("run_id,tg,rt,ds,spds_pct,sprt_steps,visible,"
                              "censored,sec_per_step,pattern_hash,status")


def test_timing_profile_shape():
    profile = timing_profile(SMALL, [4], rt=4, ds=8, repeats=1)
    assert len(profile) == 1
    tg, sec = profile[0]
    assert tg == 4 and sec > 0
    multi = timing_profile(SMALL, [2, 8], rt=4, ds=8, repeats=2)
    assert [p[0] for p in multi] == [2, 8]
