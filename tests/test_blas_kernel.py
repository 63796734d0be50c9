"""The printed outputs do not depend on the BLAS kernel.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernel per process, and
``OPENBLAS_CORETYPE`` overrides the pick.  Under ``Prescott`` the dense
matvec sums in another order, so the raw bits of the factorial's series
move in the last places; the printed rows and traces must not, and the
hold must still engage, since it rests on step 1 rewriting 1.0 exactly.
A BLAS that ignores the variable runs the default kernel twice, and the
outputs compare equal all the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import granusim

SRC = Path(granusim.__file__).resolve().parent.parent

# A few factorial rows on the paper's networks (dense kernel) and one
# run on three 160-node networks (edge-list kernel).  Each run prints
# its results row without ``sec_per_step``, its trace CSV and the
# number of timesteps its federation held.
SCRIPT = """
from granusim.coordinator import run_steps
from granusim.experiment import (RESULTS_HEADER, NetworkSpec, ScenarioConfig, _prepare_run,
                                 run_single)
from granusim.federate import uses_edge_list
from granusim.topology import NETWORK_ORDER

timing = RESULTS_HEADER.split(",").index("sec_per_step")
wide = ScenarioConfig(horizon=280, couplings_per_node=3, networks=tuple(
    NetworkSpec(net, 160, 560, lag=lag) for net, lag in zip(NETWORK_ORDER, (1, 1, 2))))
assert uses_edge_list(160, 560)
for config, (tg, rt, ds) in [(ScenarioConfig(), (2, 9, 14)), (ScenarioConfig(), (12, 9, 8)),
                             (ScenarioConfig(), (27, 22, 21)), (wide, (5, 22, 60))]:
    row, trace = run_single(config, tg, rt, ds)
    fields = row.to_csv_fields()
    del fields[timing]
    federation, schedule, event = _prepare_run(config, tg, rt, ds)
    held = sum(federation.held for _ in run_steps(federation, schedule, [event]))
    print(",".join(fields), trace.to_csv(), f"held {held} of {event.apply_time - 1}", sep="\\n")
"""


def printed(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_printed_rows_and_traces_are_the_same_under_the_prescott_kernel():
    default, prescott = printed(None), printed("Prescott")
    assert prescott == default
    held = [line for line in prescott.splitlines() if line.startswith("held ")]
    # Every run holds from timestep 1 until its event at t = 51.
    assert held == ["held 50 of 50"] * 4
