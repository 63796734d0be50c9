"""Exception types shared across the package.

Every refusal the package makes is a ``GranusimError``, and a
``GranusimError`` is a ``ValueError``: each class below inherits from
the base alone, and names one kind of fault.  Each message names the
field, item or value at fault; the raising function's docstring says
when.  An integer that the one count rule (``topology._count``) refuses
raises the class its entry point names, with the message ``<field>:
must be a positive integer, got <value>`` ("a nonnegative integer" or
"an integer" where the field allows 0 or any value).
"""


class GranusimError(ValueError):
    """Base class for all granusim errors."""


class InvalidTopology(GranusimError):
    """A wiring is malformed: a topology's edges or levels, a coupling, a
    generator's counts (by the count rule) or topologies, a federate's
    weights or lag (the lag by the count rule), a
    federation's federates or the network of one of its couplings; or
    what is given as a topology, federate, map or federation is not
    one."""


class InvalidEvent(GranusimError):
    """A disruption is malformed: an event's network, times (by the count
    rule) or node set, a node set delivered to a federate, a retraction
    of a node that is not disrupted, a run's events, or a Poisson
    stream's config (its ranges and horizon by the count rule)."""


class UnknownNode(GranusimError):
    """A node index is out of range for the target network."""


class ScheduleError(GranusimError):
    """A run or a trace is out of shape: an event outside the horizon, a
    federation that has stepped, a schedule or a horizon (by the count
    rule), a trace's series, or what a metric reads (a trace, its
    network, a time by the count rule) or classifies (an spds)."""


class ZeroBaseline(GranusimError):
    """Baseline performance sum is zero; MoP is undefined."""


class InvalidFactor(GranusimError):
    """A factor or setting of a design is malformed: a run's or a
    schedule's tg, rt or ds, a disruption size, factor levels, an
    experiment's jobs or a timing profile's repeats (each by the count
    rule), a layout, an experiment's traces directory, a timing
    profile's granularities, an expected recovery time or a target
    likelihood."""


class DegenerateModel(GranusimError):
    """A model cannot be fit or queried: a table that is not a dict,
    lacks a column or holds one that is not a one-dimensional sequence
    of real numbers (of bools for ``visible``), a value that is not
    finite, a response without rows or variance, a rank-deficient
    design, a single class or ratio, a zero slope, or a model that is
    not one."""


class ScenarioError(GranusimError):
    """A scenario is malformed: a field of a scenario file, of a
    ``ScenarioConfig`` or of a ``NetworkSpec`` (each integer by the
    count rule, named ``field '<key>'``), a file's text, or a config
    that is not a ``ScenarioConfig``."""


class MalformedResults(GranusimError):
    """A results file is malformed: a column missing, no ok row, or a row
    whose field count, numbers, levels or visible are bad (the message
    names the line and the column); or its path is not a path."""
