"""Benchmark of granusim: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload factorial --seed 20200831 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The benchmark drives the package from outside, through ``granusim.cli.main``
in this one process, and checks every output against an independent oracle
(oracle.py) and, for the seeds stored under reference/, against the outputs
the package gave when the benchmark was written.  It prints one line per
metric and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads
and for which end-to-end metric each layer metric should move.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import check
import oracle
import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 20200831
#: Seed kept out of tuning, for confirming a claimed gain.
HELD_OUT_SEED = 4093
SETUP_REPEATS = 9
ANALYZE_REPEATS = 100
EXPECTED_RT = 22


def _networks(nodes, edges):
    return tuple({"id": name, "nodes": n, "edges": m, "lag": lag,
                  "weights": [0.3, 0.4, 0.3]}
                 for name, n, m, lag in zip(oracle.NETWORK_ORDER, nodes, edges, (1, 1, 2)))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # name of the stored reference family
    networks: tuple
    horizon: int
    couplings_per_node: int
    layout: tuple            # (tg, rt, ds) of every run, in results order
    factorial: bool          # experiment + analyze + recommend, else one `run`
    traces: bool = False

    def scenario_doc(self, seed):
        return {"master_seed": seed, "horizon": self.horizon, "warmup": 50,
                "couplings_per_node": self.couplings_per_node, "origin": "water",
                "target": "business", "align_sync": False,
                "networks": list(self.networks)}


PAPER = _networks((22, 21, 20), (77, 77, 75))
# ~3.5 edges per node, as in the paper's networks.
WIDE = _networks((300, 300, 300), (1050, 1050, 1050))
FACTORIAL_LAYOUT = tuple(oracle.factorial_layout(
    (2, 12, 14, 21, 27), (2, 9, 13, 17, 22), (8, 12, 14, 18, 21)))

WORKLOADS = {w.name: w for w in (
    Workload("factorial", "paper", PAPER, 400, 1, FACTORIAL_LAYOUT, True),
    Workload("factorial_traces", "paper", PAPER, 400, 1, FACTORIAL_LAYOUT, True, True),
    Workload("wide_sync", "wide", WIDE, 300, 3, ((1, 22, 90),), False),
)}


def fast(w):
    """The self-check's reduced form of a workload: fewer runs, shorter horizon."""
    if w.factorial:
        return replace(w, scenario="fast", horizon=280,
                       layout=tuple(oracle.factorial_layout((2, 12, 27), (2, 9, 22), (8, 21))))
    return replace(w, scenario="fast", networks=_networks((40, 40, 40), (140, 140, 140)),
                   horizon=280, layout=((1, 22, 12),))


def expected_counts(w):
    """Per-iteration layer counts that must repeat exactly."""
    passes = 2 if w.traces else 1
    runs = len(w.layout)
    slots = sum(n["nodes"] for n in w.networks) * (len(w.networks) - 1) * w.couplings_per_node
    exchanges = passes * sum(1 + w.horizon // tg for tg, _, _ in w.layout)
    return {"federate.step.calls": passes * runs * w.horizon * len(w.networks),
            "coordinator.exchange.calls": exchanges,
            "coordinator.exchange.values_moved": exchanges * slots,
            "experiment.build_federation.calls": passes * runs,
            "experiment.sim_passes_per_row": float(passes)}


# -- the package ---------------------------------------------------------

def load_package():
    """Import granusim from this checkout's src/, never from elsewhere."""
    if not (SRC / "granusim" / "__init__.py").is_file():
        raise SystemExit(f"error: no granusim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import granusim.cli
    if Path(granusim.__file__).resolve().parent != (SRC / "granusim").resolve():
        raise SystemExit(f"error: granusim imported from {granusim.__file__}")
    return granusim.cli


SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from granusim.experiment import ScenarioConfig, build_federation
with open(sys.argv[2]) as fh:
    build_federation(ScenarioConfig.from_json(fh.read()))
print(time.perf_counter() - started)
"""


def setup_seconds(scenario_path):
    """Import, scenario load and first build_federation in a fresh
    interpreter: (scaled by the numpy import probe on either side, raw)."""
    before = speed.import_probe()
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(SRC),
                           str(scenario_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    after = speed.import_probe()
    raw = float(done.stdout)
    return raw * speed.IMPORT_REFERENCE_S * 2 / (before + after), raw


def calls(w, seed, scenario_path, out):
    common = ["--scenario", str(scenario_path), "--seed", str(seed)]
    if not w.factorial:
        (tg, rt, ds), = w.layout
        return [("run", ["run", *common, "--tg", str(tg), "--rt", str(rt), "--ds", str(ds),
                         "--trace", str(out / "trace.csv")])]
    results = str(out / "results.csv")
    experiment = ["experiment", *common, "--out", results, "--jobs", "1"]
    if w.traces:
        experiment += ["--traces", str(out / "traces")]
    return [("experiment", experiment),
            ("analyze", ["analyze", "--in", results, "--out", str(out / "report.json")]),
            ("recommend", ["recommend", "--in", results, "--expected-rt", str(EXPECTED_RT)])]


@contextlib.contextmanager
def fast_layout(cli, w):
    """Make `experiment` run the workload's layout; the CLI always runs the
    published levels, so the self-check's reduced layout is patched in."""
    if w.layout == FACTORIAL_LAYOUT:
        yield
        return
    levels = cli.FactorLevels(*(tuple(sorted({c[k] for c in w.layout})) for k in range(3)))
    original = cli.FactorLevels
    cli.FactorLevels = lambda: levels
    try:
        yield
    finally:
        cli.FactorLevels = original


def iteration(cli, w, seed, scenario_path, out, traced):
    """One pass of the workload through the CLI, timed call by call.

    Times are in reference seconds (speed.py); ``raw_wall`` is as measured.
    """
    out.mkdir(parents=True)
    it = {"dir": out, "traced": traced, "codes": {}, "stdout": {}, "span": {}}
    with tracer.Tracer(tracer.LAYERS if traced else tracer.UNTRACED) as tr:
        tr.probe()
        for name, argv in calls(w, seed, scenario_path, out):
            buf = io.StringIO()
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(buf):
                it["codes"][name] = cli.main(argv)
            it["span"][name] = (start, time.perf_counter_ns())
            it["stdout"][name] = buf.getvalue()
        tr.probe()
    scaled = tr.probes.scaled
    it["wall"] = sum(scaled(*span) for span in it["span"].values())
    it["raw_wall"] = sum(tr.probes.busy(*span) for span in it["span"].values())
    it["factor"] = tr.probes.factor()
    runs = tr.intervals(tracer.RUN_SPAN)
    it["runs"] = [scaled(*run) for run in runs]
    if w.factorial:
        it["post"] = scaled(*it["span"]["analyze"]) + scaled(*it["span"]["recommend"])
    else:
        # Time after the simulation returned: trace CSV and outcome output.
        start, end = it["span"]["run"]
        it["post"] = scaled(runs[-1][1] if runs else start, end)
    if traced:
        busy, own, root = tr.summary()
        it["busy"] = {k: v * it["factor"] for k, v in busy.items()}
        it["self"] = {k: v * it["factor"] for k, v in own.items()}
        it["unattributed"] = 1.0 - root / it["raw_wall"]
        it["counts"] = dict(tr.counts)
        it["counts"]["experiment.sim_passes_per_row"] = (
            it["counts"].get(tracer.RUN_SPAN + ".calls", 0) / len(w.layout))
        for key, name in (("step_s", "federate.step"), ("exchange_s", "coordinator.exchange")):
            it[key] = [(e - s) / 1e9 * it["factor"] for s, e in tr.intervals(name)]
        it["tracer"] = tr
    return it


def analysis_repeats(cli, results, work, repeats):
    """``analyze`` + ``recommend`` again on the results just produced, for
    more analyze_s samples than one per iteration; outside wall_s."""
    reps, probes = [], speed.Probes()
    for k in range(repeats):
        out = work / f"analysis{k}"
        out.mkdir()
        rep = {"dir": out, "codes": {}, "stdout": {}}
        probes.take()
        start = time.perf_counter_ns()
        for name, argv in (("analyze", ["analyze", "--in", str(results),
                                        "--out", str(out / "report.json")]),
                           ("recommend", ["recommend", "--in", str(results),
                                          "--expected-rt", str(EXPECTED_RT)])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rep["codes"][name] = cli.main(argv)
            rep["stdout"][name] = buf.getvalue()
        end = time.perf_counter_ns()
        probes.take()
        rep["post"] = probes.scaled(start, end)
        reps.append(rep)
    return reps


def measure(cli, w, seed, scenario_path, seconds, trace, work, setup_repeats):
    """Iterations until the next one would end after ``seconds``; with
    tracing, untraced and traced iterations alternate, at least one each.

    The set-up samples are taken between iterations, spread over the run,
    because the host's state changes over seconds; their time does not
    count towards ``seconds``.
    """
    iters, setup = [], []
    started = time.perf_counter()
    paused = 0.0
    with fast_layout(cli, w):
        while True:
            traced = trace and len(iters) % 2 == 1
            it = iteration(cli, w, seed, scenario_path, work / f"iter{len(iters)}", traced)
            if traced:
                for earlier in iters:
                    earlier.pop("tracer", None)  # keep one traced span set
            iters.append(it)
            elapsed = time.perf_counter() - started - paused
            done = (len(iters) >= (2 if trace else 1) and elapsed + it["raw_wall"] > seconds)
            due = setup_repeats if done else int(setup_repeats * elapsed / max(seconds, 1e-9))
            pause = time.perf_counter()
            while len(setup) < min(due, setup_repeats):
                setup.append(setup_seconds(scenario_path))
            paused += time.perf_counter() - pause
            if done:
                return iters, setup


# -- references and the output check ------------------------------------

def oracle_reference(w, doc):
    series = oracle.simulate(doc, list(w.layout))
    rows = [check.result_row(i, tg, rt, ds, spds, sprt, visible,
                             oracle.pattern_hash(oracle.pattern(doc, ds)))
            for i, ((tg, rt, ds), (spds, sprt, visible)) in enumerate(
                zip(w.layout, oracle.outcomes(doc, list(w.layout), series)))]
    traces = {i: np.stack([series[n][i] for n in oracle.NETWORK_ORDER], axis=1)
              for i in range(len(w.layout))}
    analysed = {}

    def analysis(path):
        # The analysis is checked on the package's own results file.
        if path not in analysed:
            col = oracle.read_results(path)
            analysed[path] = (oracle.report(col), oracle.recommend(col, EXPECTED_RT))
        return analysed[path]

    return {"name": "oracle", "rows": rows, "traces": traces,
            "report": lambda path: analysis(path)[0],
            "recommend": lambda path: analysis(path)[1]}


def stored_reference(w, seed):
    """Outputs the package gave when the benchmark was written, if stored."""
    base = REFERENCE / f"{w.scenario}-{seed}"
    if not base.is_dir():
        return None
    ref = {"name": f"stored {base.name}"}
    if w.factorial:
        ref["rows"] = check.parse_results((base / "results.csv").read_text())[1]
        report = json.loads((base / "report.json").read_text())
        recommend = int((base / "recommend.txt").read_text())
        ref["report"] = lambda path: report
        ref["recommend"] = lambda path: recommend
        traces = base / "traces.csv.gz"
        if traces.is_file():
            with gzip.open(traces, "rt") as fh:
                table = np.loadtxt(fh, delimiter=",", skiprows=1)
            ref["traces"] = {int(r): table[table[:, 0] == r][:, 2:]
                             for r in np.unique(table[:, 0])}
    else:
        ref["rows"] = [json.loads((base / "run.json").read_text())]
        ref["traces"] = {0: np.loadtxt(base / "trace.csv", delimiter=",", skiprows=1)[:, 1:]}
    return ref


def verify(w, it, refs, name):
    """Operations of one iteration -> mismatch descriptions (empty = ok)."""
    ops = {f"{name}.{call}": ([] if code == 0 else [f"{name}.{call}: exit {code}"])
           for call, code in it["codes"].items()}
    out = it["dir"]
    if not w.factorial:
        ops[f"{name}.run.trace"] = []
        try:
            got = json.loads(it["stdout"]["run"])
        except ValueError:
            ops[f"{name}.run"].append(f"{name}.run: output is not JSON")
            return ops
        for ref in refs:
            want = ref["rows"][0]
            ops[f"{name}.run"] += [
                f"{name}.run.{k}: got {got.get(k)!r}, want {want[k]!r} ({ref['name']})"
                for k in ("tg", "rt", "ds", "sprt_steps", "visible", "censored", "pattern_hash")
                if _text(got.get(k)) != _text(want[k])]
            ops[f"{name}.run"] += check.numbers(
                got.get("spds_pct"), float(want["spds_pct"]), f"{name}.run.spds_pct ({ref['name']})")
            ops[f"{name}.run.trace"] += _trace(out / "trace.csv", ref["traces"][0],
                                               f"{name}.run.trace ({ref['name']})")
        return ops

    results = out / "results.csv"
    if not results.is_file():
        ops[f"{name}.experiment"].append(f"{name}.experiment: no results file")
        return ops
    text = results.read_text()
    rows = check.parse_results(text)[1]
    for j in range(len(w.layout)):
        ops[f"{name}.row{j}"] = []
    for ref in refs:
        for j, msgs in check.results(text, ref["rows"], name).items():
            key = f"{name}.experiment" if j < 0 else f"{name}.row{j}"
            ops[key] += [f"{m} ({ref['name']})" for m in msgs]
        verify_analysis(ops, it, ref, results, name)
        if w.traces and "traces" in ref:
            for j, row in enumerate(rows):
                key = f"{name}.trace{j}"
                ops.setdefault(key, [])
                if row.get("status") == "ok":
                    ops[key] += _trace(out / "traces" / f"run_{j:03d}.csv", ref["traces"][j],
                                       f"{key} ({ref['name']})")
    return ops


def verify_analysis(ops, it, ref, results, name):
    """The report and recommendation an iteration made from ``results``."""
    try:
        report = json.loads((it["dir"] / "report.json").read_text())
        ops[f"{name}.analyze"] += check.numbers(
            report, ref["report"](results), f"{name}.report ({ref['name']})")
        ops[f"{name}.recommend"] += check.equal(
            it["stdout"]["recommend"].strip(), str(ref["recommend"](results)),
            f"{name}.recommend ({ref['name']})")
    except (OSError, ValueError) as exc:
        ops[f"{name}.analyze"].append(f"{name}.analyze: {exc}")


def _text(value):
    """A JSON value as the results CSV writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _trace(path, want, prefix):
    try:
        return check.trace(path.read_text(), want, prefix)
    except OSError:
        return [f"{prefix}: missing"]


def verify_counts(w, iters):
    """Traced counts against the expected ones and against each other."""
    ops = {}
    traced = [it for it in iters if it["traced"]]
    for k, it in enumerate(traced):
        key = f"counts{k}"
        ops[key] = [f"{key}.{c}: got {it['counts'].get(c, 0)!r}, want {v!r}"
                    for c, v in expected_counts(w).items() if it["counts"].get(c, 0) != v]
        if it["counts"] != traced[0]["counts"]:
            ops[key].append(f"{key}: differ from the first traced iteration")
    return ops


# -- metrics ---------------------------------------------------------------

def percentile(values, q):
    return float(np.percentile(values, q))


def end_to_end(w, iters, reps, setup, rss_mb):
    plain = [it for it in iters if not it["traced"]]
    runs = [d for it in plain for d in it["runs"]]
    post = [it["post"] for it in plain + reps]
    return {
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s", len(setup)),
        "wall_s": (statistics.median(it["wall"] for it in plain), "s", len(plain)),
        "sim_steps_per_s": (len(runs) * w.horizon / sum(runs), "1/s", len(runs)),
        "run_p50_ms": (percentile(runs, 50) * 1e3, "ms", len(runs)),
        "run_p90_ms": (percentile(runs, 90) * 1e3, "ms", len(runs)),
        "analyze_s": (statistics.median(post), "s", len(post)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(iters):
    traced = [it for it in iters if it["traced"]]
    plain = [it for it in iters if not it["traced"]]
    n = len(traced)

    def med(key, name):
        return statistics.median(it[key].get(name, 0.0) for it in traced)

    counts = traced[0]["counts"]
    out = {}
    for name in tracer.LAYER_NAMES:
        out[f"{name}.calls"] = (counts.get(name + ".calls", 0), "count", n)
        out[f"{name}.busy_s"] = (med("busy", name), "s", n)
        out[f"{name}.self_s"] = (med("self", name), "s", n)
    steps = [d for it in traced for d in it["step_s"]]
    exchanges = [d for it in traced for d in it["exchange_s"]]
    out["federate.step.p50_us"] = (percentile(steps, 50) * 1e6, "us", len(steps))
    out["federate.step.p90_us"] = (percentile(steps, 90) * 1e6, "us", len(steps))
    out["coordinator.exchange.p50_us"] = (percentile(exchanges, 50) * 1e6, "us", len(exchanges))
    for name, unit in (("coordinator.exchange.values_moved", "count"),
                       ("metrics.to_csv.bytes", "bytes"),
                       ("experiment.sim_passes_per_row", "ratio")):
        out[name] = (counts.get(name, 0), unit, n)
    overhead = (statistics.median(it["wall"] for it in traced)
                / statistics.median(it["wall"] for it in plain) - 1.0)
    out["trace.overhead_frac"] = (overhead, "fraction", n)
    out["trace.unattributed_frac"] = (
        statistics.median(it["unattributed"] for it in traced), "fraction", n)
    return out


def metadata(w, seed, seconds, trace):
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {"workload": w.name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "seconds": seconds, "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "git_sha": sha}


# -- one benchmark run -------------------------------------------------------

def bench(cli, w, seed, seconds, trace):
    """Set up, measure, check; returns everything the report needs."""
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = w.scenario_doc(seed)
    scenario_path = work / "scenario.json"
    scenario_path.write_text(json.dumps(doc, indent=2) + "\n")
    setup_seconds(scenario_path)  # warms the file cache and bytecode; not a sample

    # Warm-up outside the timed loop: imports and first calls of each path.
    warm = work / "warmup"
    warm.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "--scenario", str(scenario_path), "--tg", str(w.horizon),
                  "--rt", "2", "--ds", "8", "--trace", str(warm / "trace.csv")])
        cli.main(["analyze", "--in", str(REFERENCE / f"paper-{DEFAULT_SEED}" / "results.csv"),
                  "--out", str(warm / "report.json")])

    iters, setup = measure(cli, w, seed, scenario_path, seconds, trace, work,
                           0 if trace else SETUP_REPEATS if w.scenario != "fast" else 1)
    results = iters[-1]["dir"] / "results.csv"
    reps = analysis_repeats(cli, results, work, ANALYZE_REPEATS) if (
        w.factorial and not trace) else []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = [oracle_reference(w, doc)]
    stored = stored_reference(w, seed)
    if stored:
        refs.append(stored)
    ops = {}
    for i, it in enumerate(iters):
        ops.update(verify(w, it, refs, f"iter{i}"))
    for k, rep in enumerate(reps):
        name = f"analysis{k}"
        ops.update({f"{name}.{call}": ([] if code == 0 else [f"{name}.{call}: exit {code}"])
                    for call, code in rep["codes"].items()})
        for ref in refs:
            verify_analysis(ops, rep, ref, results, name)
    if trace:
        ops.update(verify_counts(w, iters))
        last = next(it for it in reversed(iters) if it.get("tracer"))
        last["tracer"].write(work / "spans.csv")
    metrics = per_layer(iters) if trace else end_to_end(w, iters, reps, setup, rss_mb)
    plain = [it for it in iters if not it["traced"]]
    notes = [f"speed factor {statistics.median(it['factor'] for it in iters)!r} "
             f"(reference seconds per measured second, n={len(iters)})",
             f"raw wall_s {statistics.median(it['raw_wall'] for it in plain)!r} s "
             f"(as measured, n={len(plain)})"]
    if setup:
        notes.append(f"raw setup_s {statistics.median(raw for _, raw in setup)!r} s "
                     f"(as measured, n={len(setup)})")
    return {"iters": iters, "refs": refs, "ops": ops, "metrics": metrics, "notes": notes,
            "meta": metadata(w, seed, seconds, trace)}


def report_lines(result):
    """Human-readable lines, then the JSON result line."""
    ops = result["ops"]
    failed = sorted(k for k, msgs in ops.items() if msgs)
    lines = [f"meta {json.dumps(result['meta'], sort_keys=True)}"]
    lines += [f"mismatch {m}" for k in failed for m in ops[k]]
    lines.append(f"error_rate {len(failed) / len(ops)!r} fraction "
                 f"(failed {len(failed)} of {len(ops)} operations)")
    lines += result["notes"]
    for name, (value, unit, n) in result["metrics"].items():
        lines.append(f"{name} {value!r} {unit} (n={n})")
    if result["meta"]["trace"]:
        own = {k[:-len(".self_s")]: v[0] for k, v in result["metrics"].items()
               if k.endswith(".self_s")}
        lines.append("largest self time: " + max(own, key=own.get))
    lines.append(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }))
    return lines


# -- self-check --------------------------------------------------------------

def self_check(cli):
    """Fast checks of the benchmark itself; raises AssertionError on failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = {"factorial": (150000, 7475, 941850, 125, 1.0),
              "factorial_traces": (300000, 14950, 1883700, 250, 2.0),
              "wide_sync": (900, 301, 1625400, 1, 1.0)}
    for name, values in pinned.items():
        assert tuple(expected_counts(WORKLOADS[name]).values()) == values, name

    # The oracle reproduces every stored reference.
    for base in sorted(REFERENCE.iterdir()):
        scenario, seed = base.name.rsplit("-", 1)
        w = next(w for w in WORKLOADS.values() if w.scenario == scenario)
        ref = oracle_reference(w, w.scenario_doc(int(seed)))
        stored = stored_reference(w, int(seed))
        if w.factorial:
            it = {"dir": base, "codes": {"experiment": 0, "analyze": 0, "recommend": 0},
                  "stdout": {"recommend": (base / "recommend.txt").read_text()}}
        else:
            it = {"dir": base, "codes": {"run": 0},
                  "stdout": {"run": (base / "run.json").read_text()}}
        bad = [m for msgs in verify(w, it, [ref], base.name).values() for m in msgs]
        if w.factorial:
            bad += [j for j, series in stored.get("traces", {}).items()
                    if not np.abs(series - ref["traces"][j]).max()
                    <= 10.0 ** -check.TRACE_DIGITS + check.TOLERANCE]
        assert not bad, bad
        print(f"self-check: oracle matches stored {base.name}")

    results = {}
    for w in WORKLOADS.values():
        for trace in (0, 1):
            result = results[w.name, trace] = bench(cli, fast(w), DEFAULT_SEED, 0.0, trace)
            lines = report_lines(result)
            final = json.loads(lines[-1])
            assert final["correct"] and final["failed"] == 0, lines
            for m in spec["per_layer" if trace else "end_to_end"]:
                assert any(line.startswith(f"{m['name']} ") and f" {m['unit']} " in line
                           for line in lines), (w.name, m)
                assert final["metrics"][m["name"]]["unit"] == m["unit"], m
            print(f"self-check: {w.name} trace={trace}: {final['attempted']} operations ok, "
                  f"every metric printed with its unit")

    # A perturbed reference must raise error_rate, naming each mismatch.
    result = results["factorial_traces", 0]
    ref = dict(result["refs"][0])
    ref["rows"] = [dict(r) for r in ref["rows"]]
    ref["rows"][0]["visible"] = "false" if ref["rows"][0]["visible"] == "true" else "true"
    ref["rows"][1]["spds_pct"] += 1e-6
    ref["traces"] = dict(ref["traces"])
    ref["traces"][2] = ref["traces"][2].copy()
    ref["traces"][2][100, 2] += 2e-6
    report_of = ref["report"]

    def shifted(path):
        report = json.loads(json.dumps(report_of(path)))
        report["ratio_linear"]["slope"] += 1e-6
        return report

    ref["report"] = shifted
    recommend_of = ref["recommend"]
    ref["recommend"] = lambda path: recommend_of(path) + 1
    w = fast(WORKLOADS["factorial_traces"])
    ops = verify(w, result["iters"][0], [ref], "iter0")
    failed = sorted(k for k, msgs in ops.items() if msgs)
    assert failed == ["iter0.analyze", "iter0.recommend", "iter0.row0", "iter0.row1",
                      "iter0.trace2"], failed
    print(f"self-check: perturbed reference gives error_rate {len(failed) / len(ops):.4f}: "
          + ", ".join(failed))
    print("self-check: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the benchmark's own fast checks and exit")
    args = parser.parse_args(argv)
    cli = load_package()
    if args.self_check:
        self_check(cli)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    result = bench(cli, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    lines = report_lines(result)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": result["meta"], "lines": lines[:-1],
                    "result": json.loads(lines[-1]),
                    "samples": [{"traced": it["traced"], "wall_s": it["wall"],
                                 "raw_wall_s": it["raw_wall"], "factor": it["factor"],
                                 "post_s": it["post"], "run_s": it["runs"]}
                                for it in result["iters"]]}, indent=2) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
