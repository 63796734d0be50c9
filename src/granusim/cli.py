"""Command-line entry point.

Subcommands: generate (topologies + couplings), run (one scenario),
experiment (factorial layout to CSV), analyze (results CSV to report),
recommend (max granularity for an expected recovery time).

Every scenario setting comes from the --scenario file or its
defaults; --seed alone overrides one of them, the master seed.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, experiment
from .errors import GranusimError
from .experiment import FactorLevels, ScenarioConfig, build_layout, write_atomic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_parent(path: Path) -> None:
    # Fail before any work rather than at the final write.
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory {path.parent} does not exist "
                                f"(for {path})")


def _load_scenario(args) -> ScenarioConfig:
    if getattr(args, "scenario", None):
        config = ScenarioConfig.from_json(Path(args.scenario).read_text())
    else:
        config = ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_generate(args) -> int:
    config = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    topologies, interdeps = experiment.wiring(config)
    for topo in topologies:
        write_atomic(out / f"{topo.network_id.value}.json", topo.to_json() + "\n")
    write_atomic(out / "interdependencies.json", interdeps.to_json() + "\n")
    print(f"wrote {len(topologies)} topologies and interdependency map to {out}")
    return 0


def _cmd_run(args) -> int:
    config = _load_scenario(args)
    if args.trace:
        _check_parent(Path(args.trace))
    outcome, trace, pattern = experiment.run_single(
        config, args.tg, args.rt, args.ds)
    if args.trace:
        write_atomic(Path(args.trace), trace.to_csv())
    doc = {
        "tg": outcome.tg, "rt": outcome.rt, "ds": outcome.ds,
        "spds_pct": round(outcome.spds, 6),
        "sprt_steps": outcome.sprt,
        "visible": outcome.visible,
        "censored": outcome.censored,
        "sec_per_step": outcome.sec_per_step,
        "pattern_hash": experiment.pattern_hash(pattern),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    config = _load_scenario(args)
    out = Path(args.out)
    _check_parent(out)
    layout = build_layout(FactorLevels())
    traces_dir = None
    if args.traces:
        traces_dir = Path(args.traces)
        traces_dir.mkdir(parents=True, exist_ok=True)
    rows = experiment.run_experiment(config, layout, jobs=args.jobs,
                                     traces_dir=traces_dir)
    write_atomic(out, experiment.results_csv(rows))
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.out}"
          + (f" ({failed} failed)" if failed else ""))
    return 0


def _cmd_analyze(args) -> int:
    table = analysis.load_results(args.results)
    report = analysis.analysis_report(table)
    text = analysis.report_json(report)
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    if args.plot_data:
        plot_dir = Path(args.plot_data)
        plot_dir.mkdir(parents=True, exist_ok=True)
        model = analysis.fit_visibility_logistic(table)
        max_ratio = float((table["rt"] / table["tg"]).max())
        write_atomic(plot_dir / "visibility_curve.csv",
                     analysis.visibility_curve_csv(model, max_ratio))
        write_atomic(plot_dir / "ratio_scatter.csv",
                     analysis.ratio_scatter_csv(table))
    return 0


def _cmd_recommend(args) -> int:
    table = analysis.load_results(args.results)
    model = analysis.fit_visibility_logistic(table)
    tg = analysis.recommend_tg(model, args.expected_rt, args.target_p)
    print(tg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Every ``main`` call parses with it: ``parse_args`` reads the tree
    without changing it and returns a fresh ``Namespace``, so no option
    carries from one call to the next.
    """
    parser = _Parser(prog="granusim",
                     description="Coupled network simulator with configurable "
                                 "synchronization granularity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="scenario JSON file (defaults built in)")
        p.add_argument("--seed", type=int, help="master seed override")

    p = sub.add_parser("generate", help="write topologies and couplings")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one configuration")
    add_common(p)
    p.add_argument("--tg", type=int, required=True)
    p.add_argument("--rt", type=int, required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--trace", help="write the MoP trace CSV here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run the factorial layout")
    add_common(p)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--jobs", type=positive_int, default=os.cpu_count() or 1,
                   help="worker processes for the runs; 1 runs them in this process")
    p.add_argument("--traces", help="directory for per-run MoP traces")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("analyze", help="fit the models to a results CSV")
    p.add_argument("--in", dest="results", required=True)
    p.add_argument("--out", help="report JSON path (stdout by default)")
    p.add_argument("--plot-data", help="directory for plot-data CSVs")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recommend", help="max granularity for an expected recovery time")
    p.add_argument("--in", dest="results", required=True)
    p.add_argument("--expected-rt", type=float, required=True)
    p.add_argument("--target-p", type=float, default=0.5,
                   help="target visibility likelihood (default 0.5)")
    p.set_defaults(func=_cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (GranusimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
