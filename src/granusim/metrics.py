"""Measure-of-performance traces and the metrics derived from them.

A ``MoPTrace`` holds the percent-of-baseline series of every network in
a dict, at least one and all of one length, each read by the one
real-series rule (``errors._real_series``: a one-dimensional sequence
of real numbers, a bool not one) and stored as a float array
(``run_steps``' as given) under its ``NetworkId`` member; else
``ScheduleError`` naming the network.
``MoPTrace.to_csv`` writes it as the trace CSV of ``run --trace`` and
``experiment --traces``, formatting the whole text in one pass.  Both
metrics read a trace through one rule (``_series_from``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, _count, _is_real_type, _of_kind, _real_series
from .topology import NETWORK_ORDER, NetworkId, _network_member

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

    def __post_init__(self):
        _of_kind(dict, self.series, ScheduleError, "series")
        series = {}
        for key, values in self.series.items():
            net = _network_member(key, ScheduleError, "series")
            series[net] = _real_series(values, ScheduleError, f"series {net.value!r}")
        lengths = sorted({len(values) for values in series.values()})
        if len(lengths) != 1:
            raise ScheduleError("series: expected one or more of one length, "
                                f"got lengths {lengths}")
        object.__setattr__(self, "series", series)

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


def _series_from(trace: MoPTrace, network: NetworkId, time: int, name: str) -> np.ndarray:
    """The one rule of a metric's trace: the series of ``network`` from
    ``time`` on.  ``ScheduleError`` naming what is at fault unless the
    trace is a ``MoPTrace``, the network one ``NetworkId`` accepts and
    the trace holds, and the time (``name``) an integer by
    ``errors._count`` within the trace."""
    _of_kind(MoPTrace, trace, ScheduleError, "trace")
    network = _network_member(network, ScheduleError, "network")
    if network not in trace.series:
        raise ScheduleError(f"network {network.value!r} is not in the trace")
    time = _count(time, ScheduleError, name, minimum=None)
    if not 0 <= time <= trace.horizon:
        raise ScheduleError(f"{name} {time} outside trace [0, {trace.horizon}]")
    return trace.series[network][time:]


def compute_spds(trace: MoPTrace, network: NetworkId, apply_time: int) -> float:
    """Propagated disruption size: 100 minus the lowest MoP from apply_time on."""
    return 100.0 - float(_series_from(trace, network, apply_time, "apply_time").min())


def compute_sprt(trace: MoPTrace, network: NetworkId,
                 retract_time: int) -> int | None:
    """Propagated recovery time, or None when censored.

    Smallest t >= retract_time with MoP >= 99%, returned relative to
    retract_time; None if the level is never reached within the horizon.
    """
    tail = _series_from(trace, network, retract_time, "retract_time")
    recovered = np.nonzero(tail >= RECOVERY_LEVEL_PCT)[0]
    if len(recovered) == 0:
        return None
    return int(recovered[0])


def classify_visibility(spds: float) -> bool:
    """True iff the propagated dip exceeds the 5% visibility threshold;
    ``ScheduleError`` unless ``spds`` is a real number (a bool or a
    string is not one)."""
    if not _is_real_type(type(spds)):
        raise ScheduleError(f"spds must be a real number, got {spds!r}")
    return spds > VISIBILITY_THRESHOLD_PCT

