"""Store the package's outputs as the benchmark's reference.

    python3 perfbench/make_reference.py

Runs the paper factorial (with traces), its analysis and recommendation,
and the wide_sync run, for the default and the held-out seed, and writes
them under perfbench/reference/<scenario>-<seed>/.  Timing columns are
blanked, so the files depend only on the code and the seed.  Traces are
kept for the default seed only, gzipped; the oracle checks the others.
Run it only on a commit whose outputs are known good: the benchmark
treats these files as correct.
"""

import contextlib
import gzip
import io
import json
import shutil
import tempfile
from pathlib import Path

import run


def _cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"granusim {argv[0]} exited with {code}")
    return buf.getvalue()


def store(cli, w, seed, out, tmp):
    out.mkdir(parents=True, exist_ok=True)
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(w.scenario_doc(seed)))
    calls = dict(run.calls(w, seed, scenario, tmp))
    if not w.factorial:
        doc = json.loads(_cli(cli, calls["run"]))
        doc.pop("sec_per_step")
        (out / "run.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        shutil.copy(tmp / "trace.csv", out / "trace.csv")
        return
    _cli(cli, calls["experiment"])
    _cli(cli, calls["analyze"])
    (out / "recommend.txt").write_text(_cli(cli, calls["recommend"]))
    shutil.copy(tmp / "report.json", out / "report.json")
    lines = (tmp / "results.csv").read_text().splitlines()
    col = lines[0].split(",").index("sec_per_step")
    blanked = [lines[0]] + [",".join("" if i == col else v for i, v in enumerate(line.split(",")))
                            for line in lines[1:]]
    (out / "results.csv").write_text("\n".join(blanked) + "\n")
    if w.traces:
        with gzip.open(out / "traces.csv.gz", "wt") as fh:
            fh.write("run_id," + run.check.TRACE_HEADER + "\n")
            for path in sorted((tmp / "traces").glob("run_*.csv")):
                run_id = int(path.stem.split("_")[1])
                for line in path.read_text().splitlines()[1:]:
                    fh.write(f"{run_id},{line}\n")


def main():
    cli = run.load_package()
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        for name in ("factorial_traces" if seed == run.DEFAULT_SEED else "factorial",
                     "wide_sync"):
            w = run.WORKLOADS[name]
            with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
                store(cli, w, seed, run.REFERENCE / f"{w.scenario}-{seed}", Path(tmp))
            print(f"stored {w.scenario}-{seed}")


if __name__ == "__main__":
    main()
