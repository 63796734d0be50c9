"""Exception types shared across the package."""


class GranusimError(Exception):
    """Base class for all granusim errors."""


class EdgeCountOverflow(GranusimError):
    """Requested more edges than distinct non-loop pairs allow."""


class InvalidTopology(GranusimError, ValueError):
    """A topology's node count, edges or intrinsic levels are malformed:
    a node count or node index that is not an integer, an edge that is
    not two values, an edge out of range, a self-loop, a repeated edge,
    or a level outside [0, 1]."""


class InvalidEvent(GranusimError, ValueError):
    """A disruption event's network is one ``NetworkId`` refuses, its
    time or node index is not an integer (a bool is not one), it
    retracts no later than it applies, or its node set is empty,
    repeats a node or holds a negative index; or a node set delivered
    to a federate holds an index that is not an integer."""


class SizeOverflow(GranusimError):
    """Requested disruption size exceeds the node count."""


class UnknownNode(GranusimError):
    """A node index is out of range for the target network."""


class ScheduleError(GranusimError):
    """An event falls outside the simulation horizon, a run starts with a
    federate that has stepped, or a horizon is not a positive integer."""


class ZeroBaseline(GranusimError):
    """Baseline performance sum is zero; MoP is undefined."""


class CollinearError(GranusimError):
    """Design matrix is rank-deficient."""


class InvalidFactor(GranusimError):
    """A run's tg, rt or ds, or a schedule's tg, is not a positive
    integer (a bool is not one); message names the factor."""


class InvalidRecoveryTime(GranusimError):
    """An expected recovery time is not a positive finite number."""


class DegenerateModel(GranusimError, ValueError):
    """Model cannot be fit or queried: a response with no rows or zero
    variance, a single class or ratio, a zero slope, ..."""


class ScenarioError(GranusimError):
    """Scenario file is malformed; message names the offending field."""


class MalformedResults(GranusimError, ValueError):
    """A results file lacks columns the analysis reads (message lists
    them), has no ok row, or has a malformed row: its field count
    differs from the header's, a number the analysis reads is not a
    finite number, a tg, rt or ds is not a whole number of at least 1,
    or its visible is not true or false; message names the line and the
    column."""
