"""Machine-speed probe, for reporting times at a fixed reference speed.

The 2-vCPU hosts this benchmark runs on share their cores with other
tenants.  A fixed kernel there ran between 0.12 and 0.27 s per block,
and its 15 s medians drifted from 0.148 to 0.221 s within 90 s.  Raw
times of one workload therefore differ by up to ±20% from run to run,
whatever the run length.

The probe is a short fixed kernel of the same kind as the simulator's
inner loop: small numpy calls driven from a Python loop.  It is timed
next to every measured interval.  Each interval is then scaled by
REFERENCE_S / (the probe's time around it), so it reads in seconds at
the speed where the probe takes REFERENCE_S.  With a probe between
every run of the factorial, 8 chunks of 7 s varied by 11% raw and by
0.95% scaled.

Set-up (a fresh interpreter importing the package) does not follow that
probe: it is mostly numpy's import, which drifts with the host's file and
page-fault cost, by up to 1.7x between minutes.  Set-up samples are
scaled instead by the import time of numpy alone in a fresh interpreter,
timed on either side of each sample.
"""

import bisect
import subprocess
import sys
import time

import numpy as np

#: Probe time defining the reference speed (a typical time on a 2-vCPU host).
REFERENCE_S = 2.5e-3
LOOPS = 250
#: numpy import time defining the reference speed for set-up.
IMPORT_REFERENCE_S = 0.1
IMPORT_PROBE = """
import time
started = time.perf_counter()
import numpy
print(time.perf_counter() - started)
"""
_VECTOR = np.ones(22)
_MATRIX = np.ones((22, 22))


def probe():
    """Run the probe kernel once; returns its (start_ns, end_ns)."""
    start = time.perf_counter_ns()
    for _ in range(LOOPS):
        mixed = _MATRIX @ _VECTOR
        np.clip(np.where(_VECTOR > 0, mixed, _VECTOR), 0.0, 1.0)
    return start, time.perf_counter_ns()


def import_probe():
    """Seconds a fresh interpreter takes to import numpy."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


class Probes:
    """Probe marks in time order, and the scaling of intervals by them."""

    def __init__(self):
        self.marks = []

    def take(self):
        self.marks.append(probe())
        return self.marks[-1]

    def busy(self, start, end):
        """Seconds in [start, end] outside any probe, as measured."""
        inside = self._around(start, end)[0]
        return (end - start - sum(e - s for s, e in inside)) / 1e9

    def scaled(self, start, end):
        """busy(start, end) at the reference speed.

        The speed is the mean probe time over the probes inside the
        interval and the nearest one on each side.
        """
        inside, outside = self._around(start, end)
        return self.busy(start, end) * self.factor(inside + outside)

    def _around(self, start, end):
        lo = bisect.bisect_left(self.marks, (start,))
        hi = bisect.bisect_right(self.marks, (end,))
        inside = [m for m in self.marks[lo:hi] if m[1] <= end]
        return inside, self.marks[max(lo - 1, 0):lo] + self.marks[hi:hi + 1]

    def factor(self, marks=None):
        """REFERENCE_S over the mean probe time (all marks by default)."""
        marks = self.marks if marks is None else marks
        mean = sum(e - s for s, e in marks) / len(marks) / 1e9
        return REFERENCE_S / mean
