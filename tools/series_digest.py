"""Print the sha256 of every MoP series of the factorial at two seeds.

Runs the 125 configurations of the published 5x5x5 design at master
seeds 20200831 and 4093, in layout order, and hashes the raw ``uint64``
bytes of each run's series in network order (water, power, business).
Two trees that print the same digest compute the same bits, so this
checks that a change to the engine left every MoP value unchanged.  The
digest depends on the numpy/BLAS build, which is why this is a script
and not a test: compare digests taken on one machine.

Run from the repository root:

    python3 tools/series_digest.py
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from granusim.experiment import (FactorLevels, ScenarioConfig,  # noqa: E402
                                 build_layout, run_single)

SEEDS = (20200831, 4093)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    layout = build_layout(FactorLevels())
    for seed in SEEDS:
        config = replace(ScenarioConfig(), master_seed=seed)
        for tg, rt, ds in layout:
            _, trace, _ = run_single(config, tg, rt, ds)
            for net in trace.networks:
                digest.update(trace.series[net].view("uint64").tobytes())
                count += 1
    print(f"{digest.hexdigest()}  {count} series, seeds {', '.join(map(str, SEEDS))}")


if __name__ == "__main__":
    main()
