"""Acceptance gate: one verdict line per criterion on the live terminal.

Each test prints ``ACCEPTANCE <n> <name>: PASS|FAIL`` (bypassing
capture) before asserting, so a full run always shows all nine
verdicts.
"""

import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from granusim.analysis import (LOGISTIC_RIDGE, fit_ratio_linear,
                               fit_visibility_logistic, load_results,
                               variance_shares)
from granusim.coordinator import SyncSchedule, run
from granusim.disruption import DisruptionEvent, fixed_pattern
from granusim.experiment import (FactorLevels, ScenarioConfig, build_layout,
                                 build_federation, wiring,
                                 disruption_onset, pattern_hash, results_csv,
                                 run_experiment, run_single, timing_profile)
from granusim.federate import FederateState
from granusim.metrics import compute_spds
from granusim.topology import NETWORK_ORDER, generate_interdependencies
from oracles import (ScalarFederate, lockstep_series, make_topology,
                     ols_normal_equations, penalized_loglik,
                     scenario_lockstep_inputs, sequential_shares_oracle, slot_grid)


def verdict(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def factorial(tmp_path_factory):
    config = ScenarioConfig()
    layout = build_layout(FactorLevels())
    started = time.perf_counter()
    rows = run_experiment(config, layout, jobs=1)
    elapsed = time.perf_counter() - started
    path = tmp_path_factory.mktemp("acceptance") / "results.csv"
    path.write_text(results_csv(rows))
    table = load_results(path)
    return {"rows": rows, "table": table, "elapsed": elapsed, "path": path}


def test_criterion_1_determinism(capsys):
    # Each configuration runs twice and must repeat byte for byte, and
    # its trace must match the scalar lockstep oracle, an independent
    # evaluation of the same federation.
    started = time.perf_counter()
    rng = random.Random(20200831)
    diffs = 0
    for _ in range(20):
        tg = rng.randint(1, 30)
        rt = rng.randint(1, 25)
        ds = rng.randint(1, 22)
        config = ScenarioConfig(master_seed=rng.randrange(2 ** 32), horizon=300)
        first_out, first_trace = run_single(config, tg, rt, ds)
        again_out, again_trace = run_single(config, tg, rt, ds)
        if first_trace.to_csv() != again_trace.to_csv():
            diffs += 1
        if (first_out.spds, first_out.sprt, first_out.visible) != \
                (again_out.spds, again_out.sprt, again_out.visible):
            diffs += 1
        nets, wiring = scenario_lockstep_inputs(config)
        t0 = disruption_onset(config, tg)
        expected = lockstep_series(nets, wiring, tg, config.horizon,
                                   [(t0, t0 + rt, config.origin, first_out.pattern)])
        if not all(np.allclose(first_trace.series[net], expected[net],
                               atol=1e-12, rtol=0) for net in nets):
            diffs += 1

    def strip_timing(text):
        rows = [line.split(",") for line in text.splitlines()]
        return [row[:8] + row[9:] for row in rows]

    config = ScenarioConfig(horizon=300)
    layout = [(tg, rt, 8) for tg in (2, 9, 14, 27) for rt in (3, 17)]
    seq_csv = results_csv(run_experiment(config, layout, jobs=1))
    par_csv = results_csv(run_experiment(config, layout, jobs=4))
    if strip_timing(seq_csv) != strip_timing(par_csv):
        diffs += 1
    elapsed = time.perf_counter() - started

    ok = diffs == 0 and elapsed < 60.0
    line = verdict(capsys, 1, "determinism oracle", ok,
                   f"diffs={diffs} elapsed={elapsed:.1f}s")
    assert ok, line


def test_criterion_2_hand_computed_oracle(capsys):
    # 3-node line 0 -> 1 -> 2, weights (0.3, 0.4, 0.3), lag 1, no
    # couplings.  Disrupt the middle node before step 3, retract before
    # step 5.  Hand evaluation of the update (w_ext renormalized away):
    #   healthy node with healthy predecessor: (0.3 + 0.4*1)/0.7 = 1
    #   node fed by a dead/lagged-dead predecessor: (0.3 + 0.4*0)/0.7
    r = (0.3 * 1.0 + 0.4 * 0.0) / (0.3 + 0.4)
    expected = {
        0: (1.0, 1.0, 1.0), 1: (1.0, 1.0, 1.0), 2: (1.0, 1.0, 1.0),
        3: (1.0, 0.0, r), 4: (1.0, 0.0, r),
        5: (1.0, 1.0, r),
        6: (1.0, 1.0, 1.0), 7: (1.0, 1.0, 1.0), 8: (1.0, 1.0, 1.0),
        9: (1.0, 1.0, 1.0), 10: (1.0, 1.0, 1.0),
    }
    fed = FederateState(make_topology([(0, 1), (1, 2)], 3))
    got = {0: tuple(fed.performance)}
    for t in range(1, 11):
        if t == 3:
            fed.apply_disruption([1])
        if t == 5:
            fed.retract_disruption([1])
        fed.step()
        got[t] = tuple(fed.performance)
    mismatches = [t for t in expected if got[t] != expected[t]]
    ok = not mismatches
    line = verdict(capsys, 2, "hand-computed oracle", ok, f"mismatched t={mismatches}")
    assert ok, line


def _origin_alone(config, federation, foreign_slots, event, until):
    """Scalar-oracle origin state at ``until``, stepped with its foreign
    inputs held at 1.0, which is what they hold until the next sync."""
    spec = next(spec for spec in config.networks if spec.id == config.origin)
    topo = federation.federates[config.origin].topology
    ref = ScalarFederate(topo.edges, topo.node_count, weights=spec.weights,
                         lag=spec.lag, intrinsic=topo.intrinsic_performance,
                         consumers=foreign_slots)
    for t in range(1, until + 1):
        if t == event.retract_time:
            ref.retract(event.nodes)
        if t == event.apply_time:
            ref.apply(event.nodes)
        ref.step()
    return ref.perf


def test_criterion_3_sub_granularity_invisibility(capsys):
    # The barrier contract: a disruption whose window holds no sync
    # instant crosses no federate boundary before the first sync s at or
    # after retraction.  Partners stay exactly at baseline through s, and
    # the barrier at s exports the origin's own state at s, nothing else.
    # The deficit exported there is the origin's lagged recovery tail
    # (criterion 2), so spds is reported but not required to be zero.
    config = replace(ScenarioConfig(), horizon=300)
    topologies = wiring(config)[0]
    couplings = generate_interdependencies(
        topologies, config.couplings_per_node, config.master_seed).couplings
    sizes = {t.network_id: t.node_count for t in topologies}
    slots = {net: [c for c in couplings if c.consumer_network == net]
             for net in NETWORK_ORDER}
    partners = [n.id for n in config.networks if n.id != config.origin]
    origin_slots = [c.consumer_node for c in slots[config.origin]]
    checked = 0
    spds_values = []
    violations = []
    for tg in (5, 10, 20):
        for rt in (1, 2, 3):
            for phase in range(tg):
                t0 = 100 + phase
                window = range(t0, t0 + rt)
                if any(t % tg == 0 for t in window):
                    continue
                checked += 1
                s = -(-(t0 + rt) // tg) * tg
                federation = build_federation(config)
                pattern = fixed_pattern(
                    8, federation.federates[config.origin].topology,
                    config.master_seed)
                event = DisruptionEvent(t0, t0 + rt, config.origin, pattern)
                trace = run(federation, SyncSchedule(tg=tg, horizon=300), [event])
                spds_values.append(compute_spds(trace, config.target, t0))
                if any((trace.series[net][:s + 1] != 100.0).any()
                       for net in partners):
                    violations.append((tg, rt, phase, "partner moved before s"))

                federation = build_federation(config)
                run(federation, SyncSchedule(tg=tg, horizon=s), [event])
                origin = _origin_alone(config, federation, origin_slots,
                                       event, s)
                # Entry (j, i) is node i's j-th coupling, padding 0.0.
                want = slot_grid(sizes, couplings,
                                 lambda c: origin[c.producer_node]
                                 if c.producer_network == config.origin else 1.0,
                                 0.0)
                for net in partners:
                    got = federation.federates[net].foreign_inputs
                    if (got.shape != np.shape(want[net])
                            or np.abs(got - want[net]).max() > 1e-12):
                        violations.append((tg, rt, phase,
                                           f"{net.value} inputs at s"))
    nonzero = [v for v in spds_values if v != 0.0]
    worst = max(nonzero, default=0.0)
    ok = checked > 0 and not violations
    line = verdict(capsys, 3, "sub-granularity invisibility", ok,
                   f"checked={checked} nonzero={len(nonzero)} "
                   f"max_spds={worst:.4f} violations={len(violations)}")
    assert ok, f"{line} first={violations[:2]}"


def test_criterion_4_visibility_monotonicity_and_threshold(factorial, capsys):
    table = factorial["table"]
    ratio = table["rt"] / table["tg"]
    order = np.argsort(ratio, kind="stable")
    visible = table["visible"][order].astype(float)
    deciles = [float(chunk.mean()) for chunk in np.array_split(visible, 10)]
    monotone = all(b >= a - 1e-12 for a, b in zip(deciles, deciles[1:]))

    model = fit_visibility_logistic(table)
    x_half = model.threshold
    in_band = 0.4 <= x_half <= 2.0
    fast_enough = factorial["elapsed"] < 300.0

    ok = monotone and in_band and fast_enough
    line = verdict(capsys, 4, "visibility monotonicity and threshold", ok,
                   f"deciles={[round(d, 3) for d in deciles]} "
                   f"x(0.5)={x_half:.3f} factorial={factorial['elapsed']:.1f}s")
    assert ok, line


def test_criterion_5_factor_dominance(factorial, capsys):
    table = factorial["table"]
    keep = ~np.isnan(table["sprt"])
    sprt_table = {k: v[keep] for k, v in table.items()}
    sprt_shares = variance_shares(sprt_table, "sprt").shares
    spds_shares = variance_shares(table, "spds").shares

    sprt_ok = (sprt_shares["ds"] < 0.05
               and sprt_shares["tg"] + sprt_shares["rt"] > 0.5)
    spds_ok = spds_shares["tg"] >= spds_shares["ds"]
    ok = sprt_ok and spds_ok
    line = verdict(capsys, 5, "factor dominance", ok,
                   f"sprt: ds={sprt_shares['ds']:.3f} "
                   f"tg+rt={sprt_shares['tg'] + sprt_shares['rt']:.3f}; "
                   f"spds: tg={spds_shares['tg']:.3f} ds={spds_shares['ds']:.3f}")
    assert ok, line


def test_criterion_6_ratio_model_strength(factorial, capsys):
    model = fit_ratio_linear(factorial["table"])
    ok = model.r_squared >= 0.6
    line = verdict(capsys, 6, "ratio model strength", ok,
                   f"r_squared={model.r_squared:.3f}")
    assert ok, line


def test_criterion_7_speed_tradeoff(capsys):
    config = replace(ScenarioConfig(), horizon=2000)
    profile = timing_profile(config, [1, 2, 4, 8, 16, 32], rt=9, ds=12,
                             repeats=7)
    tg = [p[0] for p in profile]
    sec = [p[1] for p in profile]
    rho = float(spearmanr(tg, sec).statistic)
    ok = rho <= -0.8
    line = verdict(capsys, 7, "speed trade-off", ok, f"spearman={rho:.3f}")
    assert ok, line


def test_criterion_8_statistical_kernels(factorial, capsys):
    table = factorial["table"]
    problems = []

    model = fit_visibility_logistic(table)
    if model.gradient_norm >= 1e-8:
        problems.append(f"gradient_norm={model.gradient_norm:.2e}")
    beta = np.array([model.intercept, model.slope])
    x = table["rt"] / table["tg"]
    y = table["visible"].astype(float)
    h = 1e-6
    for k in range(2):
        up, down = beta.copy(), beta.copy()
        up[k] += h
        down[k] -= h
        fd = (penalized_loglik(up, x, y, LOGISTIC_RIDGE)
              - penalized_loglik(down, x, y, LOGISTIC_RIDGE)) / (2 * h)
        if abs(fd) > 1e-6:
            problems.append(f"fd[{k}]={fd:.2e}")

    keep = ~np.isnan(table["sprt"])
    rx = (table["rt"] / table["tg"])[keep]
    ry = (table["sprt"] / table["tg"])[keep]
    linear = fit_ratio_linear(table)
    slope, intercept = ols_normal_equations(rx, ry)
    if abs(linear.slope - slope) > 1e-10 or abs(linear.intercept - intercept) > 1e-10:
        problems.append("ols vs normal equations")

    from granusim.analysis import TERM_ORDER
    for seed in range(4):
        rng = np.random.default_rng(300 + seed)
        tiny = {k: rng.uniform(1, 9, 8) for k in ("tg", "rt", "ds")}
        tiny["y"] = rng.uniform(0, 10, 8)
        report = variance_shares(tiny, "y")
        columns = [tiny["tg"], tiny["rt"], tiny["ds"],
                   tiny["tg"] * tiny["rt"], tiny["tg"] * tiny["ds"],
                   tiny["rt"] * tiny["ds"]]
        shares, residual = sequential_shares_oracle(columns, tiny["y"])
        for term, share in zip(TERM_ORDER, shares):
            if abs(report.shares[term] - share) > 1e-9:
                problems.append(f"ss[{seed}:{term}]")
        if abs(report.residual_share - residual) > 1e-9:
            problems.append(f"ss[{seed}:residual]")

    ok = not problems
    line = verdict(capsys, 8, "statistical kernels", ok, "; ".join(problems))
    assert ok, line


def test_criterion_9_layout_fidelity(factorial, capsys):
    rows = factorial["rows"]
    levels = FactorLevels()
    problems = []
    if len(rows) != 125:
        problems.append(f"rows={len(rows)}")
    if levels.tg_levels != (2, 12, 14, 21, 27) \
            or levels.rt_levels != (2, 9, 13, 17, 22) \
            or levels.ds_levels != (8, 12, 14, 18, 21):
        problems.append("default levels drifted")
    if any(r.status != "ok" for r in rows):
        problems.append("failed rows")
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r.ds, set()).add(pattern_hash(r.pattern))
    if any(len(hashes) != 1 for hashes in by_ds.values()):
        problems.append("pattern hash varies within a ds level")
    if len({next(iter(h)) for h in by_ds.values()}) != 5:
        problems.append("pattern hash shared across ds levels")
    ok = not problems
    line = verdict(capsys, 9, "layout fidelity", ok, "; ".join(problems))
    assert ok, line
