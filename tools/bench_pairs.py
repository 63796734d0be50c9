"""Run perfbench in alternated parent/change pairs and write a BENCH file.

The parent side runs from ``git archive <parent>`` unpacked into a work
directory, the change side from this working tree.  Each pair runs both
sides once, one after the other: odd pairs the parent first, even pairs
the change first, so a drift of the host's speed falls on both sides
alike.  Each ``--run WORKLOAD:SEED:PAIRS[:TRACE]`` adds that many pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --trace TRACE

at perfbench's own run length, which the description reads back from
each run's ``meta.seconds``.

The output keeps, per run, its side, pair, order, ``meta``, the report's
non-metric lines as ``notes`` and the final ``result`` object, and a
``summary``: per untraced workload and seed, each end-to-end metric's
quartiles on each side, the pairs the change won and the change of the
median as a fraction of the parent's; per traced workload and seed, each
per-layer metric's median on each side.  It is rewritten after every
pair, so a cut run keeps the pairs it finished.  perfbench itself writes
under ``.bench_build/`` of the tree it runs from; nothing here writes
under ``perfbench/``.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --parent 9bd0692 --out BENCH_21.json \\
        --run factorial:20200831:6 --run factorial:4093:6 --run wide_sync:20200831:1:1
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def unpack_parent(sha: str, work: Path) -> Path:
    """The tree of commit ``sha``, unpacked from ``git archive`` under ``work``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
    tree = Path(tempfile.mkdtemp(prefix=f"parent-{sha[:12]}-", dir=work))
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in ``tree``: its meta, notes and final result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    notes = [line for line in lines[:-1] if line.split(" ", 1)[0] not in result["metrics"]]
    meta = json.loads(next(line for line in notes if line.startswith("meta "))[5:])
    return {"meta": meta, "notes": notes, "result": result}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "system": platform.system(),
            "machine": platform.machine()}


def description(runs: list[dict]) -> str:
    seconds = ", ".join(f"{s:g}" for s in sorted({run["meta"]["seconds"] for run in runs}))
    return (
        f"perfbench result JSONs of alternated parent/change pairs, {seconds} s runs "
        "(python3 perfbench/run.py --workload W --seed S --trace X), written by "
        "tools/bench_pairs.py; the parent side ran from `git archive` of parent_sha and "
        "the change side from the working tree, whose meta.git_sha names its HEAD and so "
        "not the uncommitted change; odd pairs ran the parent first, even "
        "pairs the change first; per-iteration samples and per-metric lines are dropped; "
        "every metric, the notes, meta and error counts are kept; `summary` gives each "
        "side's quartiles over the pairs and the pairs the change won")


def summary(runs: list[dict], spec: dict) -> dict:
    """Quartiles and wins of untraced pairs, medians of traced ones."""
    groups: dict = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for (workload, seed, trace), pairs in groups.items():
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue

        def values(side, name):
            return [p[side]["result"]["metrics"][name]["value"] for p in pairs]

        if trace:
            out[f"traced_{workload}_{seed}"] = {
                m["name"]: {side: statistics.median(values(side, m["name"]))
                            for side in ("parent", "change")}
                for m in spec["per_layer"]}
            continue
        group = {"pairs": len(pairs)}
        for m in spec["end_to_end"]:
            parent, change = values("parent", m["name"]), values("change", m["name"])
            better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
            group[m["name"]] = {
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "change_wins": sum(better(c, p) for c, p in zip(change, parent)),
                "median_change_frac": statistics.median(change) / statistics.median(parent) - 1,
            }
        group["failed"] = {side: sum(p[side]["result"]["failed"] for p in pairs)
                           for side in ("parent", "change")}
        out[f"{workload}@{seed}"] = group
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def parse_run(text: str) -> tuple[str, int, int, int]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS[:TRACE], got {text!r}")
    workload, seed, pairs, trace = *parts[:3], parts[3] if len(parts) == 4 else "0"
    return workload, int(seed), int(pairs), int(trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the parent side runs from")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--run", dest="runs", type=parse_run, action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS[:TRACE], repeatable")
    parser.add_argument("--work", help="directory for the parent's tree "
                                       "(a fresh temporary directory by default)")
    args = parser.parse_args(argv)

    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    work.mkdir(parents=True, exist_ok=True)
    trees = {"parent": unpack_parent(sha, work), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "description": "",
        "machine": machine(),
        "parent_sha": sha,
        "summary": {},
        "runs": [],
    }
    out = Path(args.out)
    for workload, seed, pairs, trace in args.runs:
        for pair in range(1, pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                print(f"{workload} seed {seed} trace {trace} pair {pair}: {side}",
                      file=sys.stderr, flush=True)
                doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                    "trace": trace, "pair": pair,
                                    "order": f"{order[0]} first",
                                    **bench(trees[side], workload, seed, trace)})
            doc["description"] = description(doc["runs"])
            doc["summary"] = summary(doc["runs"], spec)
            out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
