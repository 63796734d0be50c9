"""Command-line entry point.

Subcommands: run (one scenario), experiment (factorial layout to CSV),
analyze (results CSV to report), recommend (max granularity for an
expected recovery time).

Every scenario setting comes from the --scenario file or its
defaults; --seed alone overrides one of them, the master seed.  The
scenario file is the one wiring artifact: no command writes or reads
topologies or couplings, which ``experiment.wiring`` makes from it.

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
from .errors import ScenarioError, _utf8_text
from .experiment import FactorLevels, ScenarioConfig, build_layout, write_atomic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _check_parent(path: Path) -> None:
    # Fail before any work rather than at the final write.
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory {path.parent} does not exist "
                                f"(for {path})")
    if path.is_dir():
        raise IsADirectoryError(f"output file {path} is a directory")


def _load_scenario(args) -> ScenarioConfig:
    config = (ScenarioConfig.from_json(_utf8_text(args.scenario, ScenarioError))
              if args.scenario else ScenarioConfig())
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _load_scenario(args)
    if args.trace:
        _check_parent(Path(args.trace))
    row, trace = experiment.run_single(config, args.tg, args.rt, args.ds)
    if args.trace:
        write_atomic(Path(args.trace), trace.to_csv())
    doc = {
        "tg": row.tg, "rt": row.rt, "ds": row.ds,
        "spds_pct": round(row.spds, 6),
        "sprt_steps": row.sprt,
        "visible": row.visible,
        "censored": row.censored,
        "sec_per_step": row.sec_per_step,
        "pattern_hash": experiment.pattern_hash(row.pattern),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    config = _load_scenario(args)
    out = Path(args.out)
    _check_parent(out)
    layout = build_layout(FactorLevels())
    rows = experiment.run_experiment(config, layout, jobs=args.jobs,
                                     traces_dir=args.traces or None)
    write_atomic(out, experiment.results_csv(rows))
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.out}"
          + (f" ({failed} failed)" if failed else ""))
    return 0


def _cmd_analyze(args) -> int:
    if args.out:
        _check_parent(Path(args.out))
    table = analysis.load_results(args.results)
    report = analysis.analysis_report(table)
    text = analysis.report_json(report)
    plots = {}
    if args.plot_data:
        logistic = report["visibility_logistic"]
        model = analysis.LogisticVisibilityModel(logistic["intercept"], logistic["slope"])
        max_ratio = float((table["rt"] / table["tg"]).max())
        plots = {"visibility_curve.csv": analysis.visibility_curve_csv(model, max_ratio),
                 "ratio_scatter.csv": analysis.ratio_scatter_csv(table)}
        # Every target is checked before the first file is written, and
        # ``--out`` before the plot directory is made.
        Path(args.plot_data).mkdir(parents=True, exist_ok=True)
        for name in plots:
            _check_parent(Path(args.plot_data, name))
    if args.out:
        write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    for name, csv_text in plots.items():
        write_atomic(Path(args.plot_data, name), csv_text)
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
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
