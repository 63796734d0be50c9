"""Exception types shared across the package, and the input rules that
raise them.

Every refusal the package makes is a ``GranusimError``, and a
``GranusimError`` is a ``ValueError``: each class below inherits from
the base alone, and names one kind of fault.  Each message names the
field, item or value at fault; the raising function's docstring says
when.  The input rules below raise the class their caller names; the
one network rule, ``topology._network_member``, lives beside
``NetworkId``.

Every sequence of real numbers an entry point takes (a topology's
levels, a trace's series, a model's table columns) is read by one rule,
``_real_series``: a numpy array of integer or float dtype as it is, any
other sequence only if it is flat and each element is real (a bool or a
string is not).  Each caller adds what it needs beyond that: the [0, 1]
range of a topology's levels, the finiteness of a fitted column, and
bools in place of real numbers for a table's ``visible`` column.

Every integer an entry point takes (a factor, a count, a time, a
scenario setting) is read by one rule too, ``_count``: a Python or
numpy integer (a bool is not one) of at least 1, or of at least 0, or
of any value, returned as a Python int, which the caller stores; else
the caller's error, ``<field>: must be a positive integer, got
<value>`` ("a nonnegative integer", "an integer"); a field with an
upper bound, such as a horizon (``coordinator.MAX_HORIZON``), gives it
as ``maximum``: ``<field>: must be at most <maximum>, got <value>``.
Node indices are
the one exception: a node set is checked as a whole by
``_node_indices``, and the edges and couplings by ``topology``'s row
rule, through ``_is_index_type``, which no other module reads.  An object of the
wrong kind is named by ``_of_kind``, and a collection of them by
``_items_of``.

Every file the package reads (a scenario, a results file) is read by
one rule too, ``_utf8_text``: its bytes decoded as UTF-8 whatever the
locale, else the caller's error, ``<path>: line <n>: not utf-8 text
(<reason>)``.  ``experiment.write_atomic``, which writes every file,
writes UTF-8, so each file the package writes is one this rule reads.
"""
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np


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
    not one or whose intercept or slope is not a finite real number."""


class ScenarioError(GranusimError):
    """A scenario is malformed: a field of a scenario file, of a
    ``ScenarioConfig`` or of a ``NetworkSpec`` (each integer by the
    count rule, named ``field '<key>'``), a file's text (not JSON, not
    an object, nested too deeply or an integer too long to read) or
    bytes (not UTF-8, named with the path and the line), or a config
    that is not a ``ScenarioConfig``."""


class MalformedResults(GranusimError):
    """A results file is malformed: a column missing, no ok row, a row
    whose field count, numbers, levels or visible are bad (the message
    names the line and the column), a field too long for the csv module
    or bytes that are not UTF-8 (the message names the line); or its
    path is not a path."""


def _is_index_type(kind: type) -> bool:
    """The type rule of an integer, of ``_count``, of every node index
    and of ``topology``'s row rule; no other module reads it."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_real_type(kind: type) -> bool:
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


#: What ``_count`` names for each minimum it takes.
_COUNT_KINDS = {1: "a positive integer", 0: "a nonnegative integer", None: "an integer"}


def _count(value, error, field: str, minimum: int | None = 1, maximum: int | None = None) -> int:
    """The one rule of every integer an entry point takes: ``value`` as
    a Python int if it is a Python or numpy integer (a bool is not one)
    of at least ``minimum`` (1, 0, or None for no bound) and at most
    ``maximum`` (None for no bound); ``error`` naming ``field`` and the
    value otherwise."""
    if _is_index_type(type(value)) and (minimum is None or value >= minimum):
        if maximum is None or value <= maximum:
            return int(value)
        raise error(f"{field}: must be at most {maximum}, got {value!r}")
    raise error(f"{field}: must be {_COUNT_KINDS[minimum]}, got {value!r}")


def _of_kind(kind: type, value, error, field: str) -> None:
    """The one rule of every entry point's objects: ``error`` naming
    ``field`` and the value unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise error(f"field '{field}': expected {kind.__name__}, got {value!r}")


def _items_of(kind: type, values, error, field: str) -> tuple:
    """The one rule of every entry point's collections: ``values`` as a
    tuple, by ``_of_kind``'s rule an ``Iterable`` of ``kind`` items (a
    dict's items are its keys)."""
    _of_kind(Iterable, values, error, field)
    items = tuple(values)
    for item in items:
        _of_kind(kind, item, error, field)
    return items


def _real_series(values, error, field: str, bools: bool = False) -> np.ndarray:
    """The one rule of every entry point's sequences of real numbers:
    ``values`` as a one-dimensional float array.  A numpy array of
    integer or float dtype is taken as it is, with no pass over its
    elements; any other ``Sequence`` only if each of its elements is
    real by ``_is_real_type`` (a bool, a string or a sequence is not),
    one test per type seen, and numpy holds it in a numeric dtype (an
    integer beyond 64 bits makes an object array); an empty one is
    taken whatever its dtype.  With ``bools`` the elements are bools
    instead (a numpy array of bool dtype, or Python or numpy bools),
    returned as 0.0 and 1.0.  ``error`` naming ``field`` and the value
    otherwise."""
    kinds, is_kind, what = (("b", lambda kind: issubclass(kind, (bool, np.bool_)), "bools")
                            if bools else ("iuf", _is_real_type, "real numbers"))
    if isinstance(values, np.ndarray) or (
            isinstance(values, Sequence) and all(map(is_kind, set(map(type, values))))):
        array = np.asarray(values)  # of object dtype if an int is beyond 64 bits
        if array.ndim == 1 and (array.dtype.kind in kinds or not array.size):
            return array.astype(float, copy=False)
    raise error(f"{field}: expected a one-dimensional sequence of {what}, got {values!r}")


def _node_indices(nodes) -> tuple:
    """The one rule of every entry point's node sets: ``nodes`` as a
    tuple, by ``_of_kind``'s rule an ``Iterable`` of integers (a bool is
    not one); ``InvalidEvent`` naming the node set otherwise."""
    _of_kind(Iterable, nodes, InvalidEvent, "nodes")
    given = tuple(nodes)  # the int cast would take 1.5, True and '1' as 1
    if not all(map(_is_index_type, set(map(type, given)))):
        raise InvalidEvent(f"node set has an index that is not an integer: {nodes}")
    return given


def _utf8_text(path, error) -> str:
    """The one rule of every file the package reads: the bytes at
    ``path`` decoded as UTF-8, whatever the locale; ``error`` naming
    the path and the line of the first byte that is not UTF-8
    otherwise, the line being the newlines before it plus one."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not utf-8 text ({exc.reason})") from None
