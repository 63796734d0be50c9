"""Exception types shared across the package.

Every refusal the package makes is a ``GranusimError``, and a
``GranusimError`` is a ``ValueError``: each class below inherits from
the base alone, and names one kind of fault.
"""


class GranusimError(ValueError):
    """Base class for all granusim errors."""


class InvalidTopology(GranusimError):
    """A topology's edges or intrinsic levels are malformed: a node
    index that is not an integer, an edge that is not two values, an
    edge out of range, a self-loop, a repeated edge, or levels that are
    not a flat sequence of real numbers in [0, 1]; a generator's node,
    edge or coupling count that is not a positive integer (edges:
    nonnegative), more edges than distinct non-loop pairs allow, fewer
    than two topologies to interconnect, an item that is not a
    ``Topology`` or two topologies of one network; a topology given
    where one is expected that is not a ``Topology``; a federate's
    weights or lag; a federation of no federate, of an item that is not
    a ``FederateState``, of two federates of one network or of a
    federate another federation has bound, or whose coupling names a
    network outside it; or a run of what is not a ``Federation``."""


class InvalidEvent(GranusimError):
    """A disruption event's network is one ``NetworkId`` refuses, its
    time or node index is not an integer (a bool is not one), it
    retracts no later than it applies, or its node set is empty,
    repeats a node or holds a negative index; a node set delivered to a
    federate holds an index that is not an integer, or retracts a node
    that is not disrupted; a run's events are not an iterable of
    ``DisruptionEvent``; or a Poisson stream's config is not a
    ``DisruptionStreamConfig``, or its rate, size or rt range, or
    horizon is malformed."""


class UnknownNode(GranusimError):
    """A node index is out of range for the target network."""


class ScheduleError(GranusimError):
    """An event falls outside the simulation horizon, a run starts with a
    federate that has stepped, its schedule is not a ``SyncSchedule``,
    or a horizon is not a positive integer; a trace's series are not a
    dict, or are none or of unequal length; or a metric reads what is
    not a ``MoPTrace``, a network the trace lacks, or a time that is not
    an integer or lies outside its trace."""


class ZeroBaseline(GranusimError):
    """Baseline performance sum is zero; MoP is undefined."""


class InvalidFactor(GranusimError):
    """A run's tg, rt or ds, or a schedule's tg, is not a positive
    integer (a bool is not one); a disruption size exceeds the node
    count; factor levels are not a tuple or list of ascending positive
    integers; a timing
    profile's repeats is not a positive integer; or an expected recovery
    time is not a positive finite number, or a target likelihood lies
    outside (0, 1).  The message names the factor or setting at fault."""


class DegenerateModel(GranusimError):
    """Model cannot be fit or queried: a factor or response that is not
    finite, a response with no rows or zero variance, a rank-deficient
    design (a term the ones before it span), a single class or ratio, a
    zero slope, ..."""


class ScenarioError(GranusimError):
    """Scenario file is malformed; message names the offending field."""


class MalformedResults(GranusimError):
    """A results file lacks columns the analysis reads (message lists
    them), has no ok row, or has a malformed row: its field count
    differs from the header's, a number the analysis reads is not a
    finite number, a tg, rt or ds is not a whole number of at least 1,
    or its visible is not true or false; message names the line and the
    column."""
