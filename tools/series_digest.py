"""Print sha256 digests of the factorial and of wide runs at two seeds, and
of the analysis of the stored paper results.

Runs, at master seeds 20200831 and 4093:

- the 125 configurations of the published 5x5x5 design, in layout
  order, on the paper's networks (20-22 nodes), which step on the dense
  kernel;
- tg 1, 5 and 27 with rt 22 and ds 90 on the shape of the ``wide_sync``
  benchmark workload (three 300-node networks with 1,050 edges each,
  3 couplings per node and partner, business lag 2, horizon 300),
  which step on the edge-list kernel;
- the 125 configurations on the paper's networks under each of four
  variants, back to back: the weight triples (0.3, 0.4, 0.3) and
  (0.3, 0.5, 0.2) on every network, each with business lags 2 and 3.
  The variants share one wiring, so the node rules, coupling plan and
  patterns derived from it are shared too, and a rule stored under too
  coarse a key changes these digests.

For each it prints:

- the digest of the raw ``uint64`` bytes of each run's MoP series in
  network order (water, power, business).  Two trees that print the
  same one compute the same bits.
- the digest of the printed outputs: each results row without
  ``sec_per_step``, followed by the run's trace CSV text, and for the
  wide runs ``repr`` of the full-precision spds as well.  Two trees that
  print the same one write the same results and traces, even when their
  raw bits differ in the last places.

The raw digests hold for one BLAS kernel, not for one numpy/BLAS
build: an OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernel per
process, and ``OPENBLAS_CORETYPE`` overrides the pick.  Under
``OPENBLAS_CORETYPE=Prescott`` the factorial raw digest reads
``ef5efaac…6176`` and the variants raw digest ``8b75c8d8…219a``, since
the dense matvec sums in another order; the wide raw digest, whose runs
call no BLAS, and all three printed digests stay.  So the printed
digests and the wide raw digest are the contract across machines,
pinned by ``tests/test_printed_digests.py``, and the factorial and
variants raw digests compare two trees on one machine under one kernel,
so only this script prints them.  ``tests/test_blas_kernel.py`` checks
the printed outputs under both kernels.

After those six it prints one more, the analysis digest: the digest of
what ``granusim analyze --in <file>`` and ``granusim recommend --in
<file> --expected-rt 22`` print for each stored
``perfbench/reference/paper-*/results.csv``, in path order, so two
trees can be compared on their analysis bytes too.  It is printed only,
not pinned: the report prints the full-precision floats of a LAPACK QR,
which may differ across BLAS kernels, as the raw digests may.

Run from the repository root:

    python3 tools/series_digest.py
"""

import contextlib
import hashlib
import io
import itertools
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from granusim.cli import main as granusim_main  # noqa: E402
from granusim.experiment import (DEFAULT_NETWORKS, RESULTS_HEADER,  # noqa: E402
                                 FactorLevels, NetworkSpec, ScenarioConfig, build_layout,
                                 run_single)
from granusim.topology import NETWORK_ORDER, NetworkId  # noqa: E402

SEEDS = (20200831, 4093)
TIMING_COLUMN = RESULTS_HEADER.split(",").index("sec_per_step")
WIDE = ScenarioConfig(horizon=300, couplings_per_node=3, networks=tuple(
    NetworkSpec(net, 300, 1050, lag=lag) for net, lag in zip(NETWORK_ORDER, (1, 1, 2))))
WIDE_LAYOUT = ((1, 22, 90), (5, 22, 90), (27, 22, 90))


def variant(weights, business_lag: int) -> ScenarioConfig:
    """The paper's scenario with ``weights`` on every network and the
    business network lagged by ``business_lag``."""
    return ScenarioConfig(networks=tuple(
        replace(spec, weights=weights,
                lag=business_lag if spec.id == NetworkId.BUSINESS else spec.lag)
        for spec in DEFAULT_NETWORKS))


VARIANTS = [variant(weights, business_lag)
            for weights in ((0.3, 0.4, 0.3), (0.3, 0.5, 0.2)) for business_lag in (2, 3)]


#: Each family's configs, layout and whether the wide spds are printed too.
FAMILIES = {
    "factorial": ([ScenarioConfig()], build_layout(FactorLevels()), False),
    "wide": ([WIDE], WIDE_LAYOUT, True),
    "variants": (VARIANTS, build_layout(FactorLevels()), False),
}


def digests(configs, layout, full_spds: bool) -> tuple[str, str, int]:
    """Raw and printed digests of every run of ``layout`` under each of
    ``configs`` in turn, at each seed, and the number of series."""
    raw, printed = hashlib.sha256(), hashlib.sha256()
    count = 0
    for seed, config in itertools.product(SEEDS, configs):
        seeded = replace(config, master_seed=seed)
        for run_id, (tg, rt, ds) in enumerate(layout):
            row, trace = run_single(seeded, tg, rt, ds)
            for series in trace.series.values():
                raw.update(series.view("uint64").tobytes())
                count += 1
            fields = replace(row, run_id=run_id).to_csv_fields()
            del fields[TIMING_COLUMN]
            text = ",".join(fields) + "\n" + trace.to_csv()
            if full_spds:
                text += repr(row.spds) + "\n"
            printed.update(text.encode())
    return raw.hexdigest(), printed.hexdigest(), count


def analysis_digest() -> tuple[str, int]:
    """The digest of the ``analyze`` report and the ``recommend
    --expected-rt 22`` line, as the CLI prints them, of each stored
    paper results file in path order, and the number of files."""
    digest = hashlib.sha256()
    paths = sorted(ROOT.glob("perfbench/reference/paper-*/results.csv"))
    for path in paths:
        for argv in (["analyze", "--in", str(path)],
                     ["recommend", "--in", str(path), "--expected-rt", "22"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if granusim_main(argv) != 0:
                    raise SystemExit(f"error: granusim {' '.join(argv)} failed")
            digest.update(out.getvalue().encode())
    return digest.hexdigest(), len(paths)


def main() -> None:
    seeds = ", ".join(map(str, SEEDS))
    for name, family in FAMILIES.items():
        raw, printed, count = digests(*family)
        print(f"{raw}  {name}: raw bits of {count} series, seeds {seeds}")
        print(f"{printed}  {name}: printed rows and traces of {count // 3} runs, seeds {seeds}")
    digest, files = analysis_digest()
    print(f"{digest}  analysis: analyze reports and recommend --expected-rt 22 lines "
          f"of {files} paper results files")


if __name__ == "__main__":
    main()
