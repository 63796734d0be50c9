"""Measure-of-performance traces and the metrics derived from them.

A ``MoPTrace`` holds the percent-of-baseline series of every network;
``MoPTrace.to_csv`` writes it as the trace CSV of ``run --trace`` and
``experiment --traces``, formatting the whole text in one pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError
from .topology import NETWORK_ORDER, NetworkId

# Propagated disruptions count as visible when the target network drops
# below 95% of baseline, i.e. SPDS strictly greater than 5 percentage
# points.  Equality is classified not-visible.
VISIBILITY_THRESHOLD_PCT = 5.0

# A network counts as recovered when its MoP is back at 99% of baseline.
RECOVERY_LEVEL_PCT = 99.0


@dataclass(frozen=True)
class MoPTrace:
    """Per-timestep MoP series for every network, t = 0..horizon."""

    series: dict[NetworkId, np.ndarray]

    @property
    def horizon(self) -> int:
        return len(next(iter(self.series.values()))) - 1

    def to_csv(self) -> str:
        """The trace as CSV text: ``t`` and one ``mop_<network>`` column
        per network in network order, each value with six decimals.

        Written in one pass: a row format with one ``{:.6f}`` field per
        network is mapped over the timesteps and each series as a list
        of Python floats, so no value is formatted on its own.
        """
        cols = [n for n in NETWORK_ORDER if n in self.series]
        header = "t," + ",".join(f"mop_{n.value}" for n in cols)
        rows = map(("{}" + ",{:.6f}" * len(cols)).format, range(self.horizon + 1),
                   *(self.series[n].tolist() for n in cols))
        return "\n".join((header, *rows)) + "\n"


def compute_spds(trace: MoPTrace, network: NetworkId, apply_time: int) -> float:
    """Propagated disruption size: 100 minus the lowest MoP from apply_time on."""
    series = trace.series[network]
    if not 0 <= apply_time <= trace.horizon:
        raise ScheduleError(f"apply_time {apply_time} outside trace [0, {trace.horizon}]")
    return 100.0 - float(series[apply_time:].min())


def compute_sprt(trace: MoPTrace, network: NetworkId,
                 retract_time: int) -> int | None:
    """Propagated recovery time, or None when censored.

    Smallest t >= retract_time with MoP >= 99%, returned relative to
    retract_time; None if the level is never reached within the horizon.
    """
    series = trace.series[network]
    if not 0 <= retract_time <= trace.horizon:
        raise ScheduleError(f"retract_time {retract_time} outside trace [0, {trace.horizon}]")
    recovered = np.nonzero(series[retract_time:] >= RECOVERY_LEVEL_PCT)[0]
    if len(recovered) == 0:
        return None
    return int(recovered[0])


def classify_visibility(spds: float) -> bool:
    """True iff the propagated dip exceeds the 5% visibility threshold."""
    return spds > VISIBILITY_THRESHOLD_PCT

