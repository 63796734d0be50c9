"""Exception types shared across the package."""


class GranusimError(Exception):
    """Base class for all granusim errors."""


class EdgeCountOverflow(GranusimError):
    """Requested more edges than distinct non-loop pairs allow."""


class InvalidTopology(GranusimError, ValueError):
    """A topology's node count, edges or intrinsic levels are malformed:
    a node count or node index that is not an integer, an edge out of
    range, a self-loop, a repeated edge, or a level outside [0, 1]."""


class SizeOverflow(GranusimError):
    """Requested disruption size exceeds the node count."""


class UnknownNode(GranusimError):
    """A node index is out of range for the target network."""


class ScheduleError(GranusimError):
    """An event falls outside the simulation horizon, a federation is
    run a second time, or a schedule's horizon is not a positive
    integer."""


class ZeroBaseline(GranusimError):
    """Baseline performance sum is zero; MoP is undefined."""


class CollinearError(GranusimError):
    """Design matrix is rank-deficient."""


class InvalidFactor(GranusimError):
    """A run's tg, rt or ds, or a schedule's tg, is not a positive
    integer (a bool is not one); message names the factor."""


class InvalidRecoveryTime(GranusimError):
    """An expected recovery time is not a positive finite number."""


class DegenerateModel(GranusimError):
    """Model cannot be fit or queried (single class, zero slope, ...)."""


class ScenarioError(GranusimError):
    """Scenario file is malformed; message names the offending field."""


class MissingColumns(GranusimError):
    """A results file lacks columns the analysis reads; message lists them."""


class MalformedResults(GranusimError, ValueError):
    """A results file row is malformed: its field count differs from the
    header's, or a number the analysis reads does not parse; message
    names the line and the column."""
