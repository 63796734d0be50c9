"""The benchmark's own checks pass on this checkout.

``perfbench/run.py --self-check`` checks the pinned traced counts, the
oracle against every stored reference, every metric each workload
prints with its unit, and the error rate a perturbed reference gives.
It imports the package from this checkout's ``src/``, writes only under
``.bench_build/`` and takes about 10 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-check: ok", done.stdout
