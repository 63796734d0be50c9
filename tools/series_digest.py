"""Print two sha256 digests of the factorial at two seeds.

Runs the 125 configurations of the published 5x5x5 design at master
seeds 20200831 and 4093, in layout order, and prints:

- the digest of the raw ``uint64`` bytes of each run's MoP series in
  network order (water, power, business).  Two trees that print the
  same one compute the same bits.
- the digest of the printed outputs: each results row without
  ``sec_per_step``, followed by the run's trace CSV text.  Two trees
  that print the same one write the same results and traces, even when
  their raw bits differ in the last places.

The raw digest depends on the numpy/BLAS build, which is why this is a
script and not a test: compare digests taken on one machine.

Run from the repository root:

    python3 tools/series_digest.py
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from granusim.experiment import (RESULTS_HEADER, FactorLevels,  # noqa: E402
                                 ResultRow, ScenarioConfig, build_layout, run_single)

SEEDS = (20200831, 4093)
TIMING_COLUMN = RESULTS_HEADER.split(",").index("sec_per_step")


def main() -> None:
    raw, printed = hashlib.sha256(), hashlib.sha256()
    count = 0
    layout = build_layout(FactorLevels())
    for seed in SEEDS:
        config = replace(ScenarioConfig(), master_seed=seed)
        for run_id, (tg, rt, ds) in enumerate(layout):
            outcome, trace, pattern = run_single(config, tg, rt, ds)
            for net in trace.networks:
                raw.update(trace.series[net].view("uint64").tobytes())
                count += 1
            fields = ResultRow(run_id, tg, rt, ds, outcome, pattern).to_csv_fields()
            del fields[TIMING_COLUMN]
            printed.update((",".join(fields) + "\n" + trace.to_csv()).encode())
    seeds = ", ".join(map(str, SEEDS))
    print(f"{raw.hexdigest()}  raw bits of {count} series, seeds {seeds}")
    print(f"{printed.hexdigest()}  printed rows and traces of {count // 3} runs, seeds {seeds}")


if __name__ == "__main__":
    main()
