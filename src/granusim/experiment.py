"""Factorial experiment layout, execution, and persistence.

The shipped default levels are the published 5x5x5 design.  Runs are
independent and may execute in worker processes; the results file is
always in layout order and all columns except sec_per_step are a pure
function of (seed, config, layout).
"""

import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

from .coordinator import Federation, SyncSchedule, run, run_steps
from .disruption import DisruptionEvent, fixed_pattern
from .errors import (MAX_HORIZON, GranusimError, InvalidFactor, ScenarioError, _count, _items_of,
                     _of_kind)
from .federate import DEFAULT_WEIGHTS, FederateState, _weight_triple
from .metrics import MoPTrace, classify_visibility, compute_spds, compute_sprt
from .topology import (MAX_NODES, InterdependencyMap, NetworkId, Topology, _network_member,
                       generate_interdependencies, generate_topology)

RESULTS_HEADER = ("run_id,tg,rt,ds,spds_pct,sprt_steps,visible,censored,"
                  "sec_per_step,pattern_hash,status")

#: Steps the horizon must leave after retraction for recovery to settle.
RECOVERY_HEADROOM = 200


@dataclass(frozen=True)
class FactorLevels:
    """Each factor's levels: a tuple or list of ascending counts
    (``errors._count``; ``InvalidFactor`` naming the factor), stored
    as a tuple of Python ints."""

    tg_levels: tuple[int, ...] = (2, 12, 14, 21, 27)
    rt_levels: tuple[int, ...] = (2, 9, 13, 17, 22)
    ds_levels: tuple[int, ...] = (8, 12, 14, 18, 21)

    def __post_init__(self):
        for name in ("tg_levels", "rt_levels", "ds_levels"):
            given = getattr(self, name)
            levels = (tuple(_count(level, InvalidFactor, name) for level in given)
                      if isinstance(given, (tuple, list)) else ())
            if not levels or list(levels) != sorted(set(levels)):
                raise InvalidFactor(f"{name} must be ascending positive integers, got {given}")
            object.__setattr__(self, name, levels)


def _json_object(text: str) -> dict:
    """The JSON object of ``text``; ``ScenarioError`` naming the line of
    text that is not JSON, or a top level that is not an object; and
    naming ``text`` unless it is a ``str``, or if it nests too deeply
    for the parser's recursion or holds an integer longer than Python
    converts (``sys.get_int_max_str_digits()``)."""
    _of_kind(str, text, ScenarioError, "text")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError("text: nested too deeply to read") from None
    except ValueError:  # the one other fault of a str: an integer too long
        raise ScenarioError("text: an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")
    return doc


def _checked_object(cls, doc) -> dict:
    """``doc``, a JSON object whose keys are the names of ``cls``'s
    fields, to make a ``cls`` with; a key it leaves out keeps its
    field's default.  ``ScenarioError`` for a non-object, an unknown key
    or a missing required field, before ``cls`` checks the values."""
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object")
    known = {f.name: f.default for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ScenarioError(f"field {key!r}: unknown")
    for key, default in known.items():
        if default is MISSING and key not in doc:
            raise ScenarioError(f"field '{key}': missing")
    return doc


@dataclass(frozen=True)
class NetworkSpec:
    """One network of a scenario; its fields are the keys of a scenario
    file's network objects, and a bad one raises a ``ScenarioError``
    naming its key.  ``id`` is stored as a ``NetworkId`` member, and
    ``nodes``, ``edges`` and ``lag`` by the count rule
    (``errors._count``) as Python ints, ``nodes`` at most
    ``topology.MAX_NODES``."""

    id: NetworkId
    nodes: int
    edges: int
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    lag: int = 1

    def __post_init__(self):
        object.__setattr__(self, "id", _network_member(self.id, ScenarioError, "id"))
        for name, minimum, maximum in (("nodes", 1, MAX_NODES), ("edges", 0, None),
                                       ("lag", 1, None)):
            object.__setattr__(self, name, _count(getattr(self, name), ScenarioError,
                                                  f"field '{name}'", minimum, maximum))
        n = self.nodes
        if self.edges > n * (n - 1):
            raise ScenarioError(f"field 'edges': must lie in [0, {n * (n - 1)}] "
                                f"for {n} nodes, got {self.edges}")
        object.__setattr__(self, "weights",
                           _weight_triple(self.weights, ScenarioError, "field 'weights'"))


def _networks(docs) -> tuple[NetworkSpec, ...]:
    """A scenario file's list of network objects; each error names the
    network's place."""
    if not isinstance(docs, list):
        raise ScenarioError("field 'networks': expected a list")
    specs = []
    for index, doc in enumerate(docs):
        try:
            specs.append(NetworkSpec(**_checked_object(NetworkSpec, doc)))
        except ScenarioError as exc:
            raise ScenarioError(f"field 'networks[{index}]': {exc}") from exc
    return tuple(specs)


DEFAULT_NETWORKS = (
    NetworkSpec(NetworkId.WATER, 22, 77, lag=1),
    NetworkSpec(NetworkId.POWER, 21, 77, lag=1),
    NetworkSpec(NetworkId.BUSINESS, 20, 75, lag=2),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario setting; a bad one raises a ``ScenarioError``
    naming its field, whether built in Python or by ``from_json``.
    ``networks`` is a tuple of at least two ``NetworkSpec``; networks
    (``origin``, ``target`` and each spec's id) are stored as
    ``NetworkId`` members and integers, each read by the count rule
    (``errors._count``), as Python ints, the horizon at most
    ``errors.MAX_HORIZON``."""

    master_seed: int = 20200831
    horizon: int = 400
    warmup: int = 50
    networks: tuple[NetworkSpec, ...] = DEFAULT_NETWORKS
    couplings_per_node: int = 1
    origin: NetworkId = NetworkId.WATER
    target: NetworkId = NetworkId.BUSINESS
    align_sync: bool = False

    def __post_init__(self):
        for name, minimum, maximum in (("master_seed", None, None), ("horizon", 1, MAX_HORIZON),
                                       ("warmup", 1, None), ("couplings_per_node", 1, None)):
            object.__setattr__(self, name, _count(getattr(self, name), ScenarioError,
                                                  f"field '{name}'", minimum, maximum))
        if not isinstance(self.align_sync, bool):
            raise ScenarioError(f"field 'align_sync': expected a bool, got {self.align_sync!r}")
        for name in ("origin", "target"):
            object.__setattr__(self, name,
                               _network_member(getattr(self, name), ScenarioError, name))
        networks = self.networks
        if not (isinstance(networks, tuple) and all(isinstance(n, NetworkSpec) for n in networks)):
            raise ScenarioError(
                f"field 'networks': expected a tuple of NetworkSpec, got {networks!r}")
        if len(networks) < 2:
            raise ScenarioError("field 'networks': need at least two networks to interconnect, "
                                f"got {len(networks)}")
        ids = [n.id for n in networks]
        if len(set(ids)) != len(ids):
            raise ScenarioError("field 'networks': duplicate network ids")
        if self.origin not in ids or self.target not in ids:
            raise ScenarioError("field 'origin'/'target': must name configured networks")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """The scenario of a scenario file's text: its keys and each
        network's are the fields' names (``_checked_object``)."""
        doc = _checked_object(cls, _json_object(text))
        if "networks" in doc:
            doc["networks"] = _networks(doc["networks"])
        return cls(**doc)


def build_layout(levels: FactorLevels) -> list[tuple[int, int, int]]:
    """Cartesian product of the levels in lexicographic (ds, rt, tg) order;
    ``InvalidFactor`` unless ``levels`` is a ``FactorLevels``."""
    _of_kind(FactorLevels, levels, InvalidFactor, "levels")
    return [(tg, rt, ds)
            for ds in levels.ds_levels
            for rt in levels.rt_levels
            for tg in levels.tg_levels]


def wiring(config: ScenarioConfig) -> tuple[tuple[Topology, ...], InterdependencyMap]:
    """Topologies and couplings of a scenario: the one path from a
    scenario to its wiring.

    They are generated once for the fields that decide them: the master
    seed, the couplings per node and each network's id, nodes and
    edges.  Both are frozen, so every federation built from configs
    that agree on those (whatever their horizon, warm-up, onset, weights
    or lag) shares them; each build still makes fresh federate states.
    Only the latest wiring is kept.  A ``config`` of another kind raises
    ``ScenarioError`` here and at every entry point that reads one.
    """
    _of_kind(ScenarioConfig, config, ScenarioError, "config")
    return _wiring(config.master_seed, config.couplings_per_node,
                   tuple((n.id, n.nodes, n.edges) for n in config.networks))


@functools.lru_cache(maxsize=1)
def _wiring(seed: int, couplings_per_node: int, networks: tuple) -> tuple:
    topologies = tuple(generate_topology(*network, seed) for network in networks)
    return topologies, generate_interdependencies(topologies, couplings_per_node, seed)


def build_federation(config: ScenarioConfig) -> Federation:
    topologies, interdeps = wiring(config)
    return Federation((FederateState(topo, spec.weights, spec.lag)
                       for spec, topo in zip(config.networks, topologies)), interdeps)


def disruption_onset(config: ScenarioConfig, tg: int) -> int:
    """First disrupted timestep: right after warm-up, optionally
    aligned to the next sync instant."""
    t0 = config.warmup + 1
    if config.align_sync and t0 % tg != 0:
        t0 += tg - t0 % tg
    return t0


def pattern_hash(nodes: tuple[int, ...]) -> str:
    return hashlib.sha256(json.dumps(list(nodes)).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ResultRow:
    """One run: its factors, what it measured, its pattern and status.

    ``spds``, ``sprt`` and ``sec_per_step`` are None on a failed row;
    ``sprt`` is None on a censored one too.
    """

    run_id: int
    tg: int
    rt: int
    ds: int
    spds: float | None = None
    sprt: int | None = None
    sec_per_step: float | None = None
    pattern: tuple[int, ...] = ()
    status: str = "ok"

    @property
    def visible(self) -> bool:
        """The dip exceeded the visibility threshold; False on a failed row."""
        return self.spds is not None and classify_visibility(self.spds)

    @property
    def censored(self) -> bool:
        """The target never recovered within the horizon; False on a failed row."""
        return self.spds is not None and self.sprt is None

    def to_csv_fields(self) -> list[str]:
        if self.spds is None:
            measured = [""] * 5
        else:
            measured = [f"{self.spds:.6f}", "" if self.sprt is None else str(self.sprt),
                        "true" if self.visible else "false",
                        "true" if self.censored else "false",
                        f"{self.sec_per_step:.9f}"]
        return [str(self.run_id), str(self.tg), str(self.rt), str(self.ds), *measured,
                pattern_hash(self.pattern) if self.pattern else "", self.status]


def _prepare_run(config: ScenarioConfig, tg: int, rt: int,
                 ds: int) -> tuple[Federation, SyncSchedule, DisruptionEvent]:
    """Fresh federation, schedule and disruption of one configuration.

    ``InvalidFactor`` if tg, rt or ds is not a count
    (``errors._count``), before anything uses it; the schedule checks
    tg.
    """
    _of_kind(ScenarioConfig, config, ScenarioError, "config")
    schedule = SyncSchedule(tg=tg, horizon=config.horizon)
    rt = _count(rt, InvalidFactor, "rt")
    ds = _count(ds, InvalidFactor, "ds")
    t0 = disruption_onset(config, schedule.tg)
    if config.horizon < t0 + rt + RECOVERY_HEADROOM:
        raise ScenarioError(
            f"horizon {config.horizon} below onset {t0} + rt {rt} "
            f"+ headroom {RECOVERY_HEADROOM}")
    federation = build_federation(config)
    origin_topo = federation.federates[config.origin].topology
    pattern = fixed_pattern(ds, origin_topo, config.master_seed)
    event = DisruptionEvent(apply_time=t0, retract_time=t0 + rt,
                            network_id=config.origin, nodes=pattern)
    return federation, schedule, event


def run_single(config: ScenarioConfig, tg: int, rt: int,
               ds: int) -> tuple[ResultRow, MoPTrace]:
    """Run one (tg, rt, ds) configuration from a fresh deterministic
    federation: its row, with run id 0, and its trace."""
    federation, schedule, event = _prepare_run(config, tg, rt, ds)
    t0 = event.apply_time

    started = time.perf_counter()
    trace = run(federation, schedule, [event])
    elapsed = time.perf_counter() - started

    row = ResultRow(0, tg, rt, ds, spds=compute_spds(trace, config.target, t0),
                    sprt=compute_sprt(trace, config.target, t0 + rt),
                    sec_per_step=elapsed / config.horizon, pattern=event.nodes)
    return row, trace


def _run_indexed(args) -> ResultRow:
    index, config, (tg, rt, ds) = args
    try:
        return replace(run_single(config, tg, rt, ds)[0], run_id=index)
    except GranusimError as exc:  # per-run failures recorded, batch continues
        return ResultRow(index, tg, rt, ds, status=f"error: {exc}")


def run_experiment(config: ScenarioConfig, layout: list[tuple[int, int, int]],
                   jobs: int = 1, traces_dir=None) -> list[ResultRow]:
    """Execute a layout; rows come back in layout order regardless of
    completion order.  jobs=1 is the sequential reference path.  The
    config, the layout as an iterable of (tg, rt, ds) tuples, ``jobs``
    as a count (``errors._count``) and ``traces_dir`` as None, a
    ``str`` or a path object (each ``InvalidFactor`` but the config) are
    checked before any run, and then ``traces_dir`` is made with its
    parents if it is missing; each trace is written to it."""
    _of_kind(ScenarioConfig, config, ScenarioError, "config")
    layout = _items_of(tuple, layout, InvalidFactor, "layout")
    bad = next((item for item in layout if len(item) != 3), None)
    if bad is not None:
        raise InvalidFactor(f"field 'layout': expected (tg, rt, ds), got {bad!r}")
    jobs = _count(jobs, InvalidFactor, "jobs")
    if not isinstance(traces_dir, (str, os.PathLike, type(None))):
        raise InvalidFactor(f"field 'traces_dir': expected a str or a path, got {traces_dir!r}")
    if traces_dir is not None:
        Path(traces_dir).mkdir(parents=True, exist_ok=True)
    tasks = [(i, config, triple) for i, triple in enumerate(layout)]
    if jobs <= 1:
        rows = [_run_indexed(task) for task in tasks]
    else:
        # Imported here: it pulls in ``logging``, which a sequential run
        # and every CLI start-up would otherwise pay for.
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_indexed, tasks))
    if traces_dir is not None:
        for row in rows:
            if row.status == "ok":
                _, trace = run_single(config, row.tg, row.rt, row.ds)
                write_atomic(Path(traces_dir, f"run_{row.run_id:03d}.csv"), trace.to_csv())
    return rows


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale, through
    a temporary file in the same directory, so a failure never leaves a
    partial file behind.  Every file the package writes is written
    here, and ``errors._utf8_text`` reads each back."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def results_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULTS_HEADER.split(","))
    for row in rows:
        writer.writerow(row.to_csv_fields())
    return buf.getvalue()


def timing_profile(config: ScenarioConfig, tg_list: list[int],
                   rt: int, ds: int, repeats: int = 3) -> list[tuple[int, float]]:
    """Seconds-per-timestep at fixed (rt, ds) for each granularity.

    Each of ``repeats`` rounds runs every granularity once, interleaved
    timestep by timestep: one fresh run per level is advanced in
    lockstep through ``run_steps`` and each level's timesteps are timed
    on their own.  A slow spell of the host then lands on all levels
    alike instead of on one.  A timestep does the same work in every
    round, so each keeps its fastest round, and a granularity's cost is
    the mean of its timesteps' fastest times; only the simulation loop
    is timed.  ``repeats`` must be a count (``errors._count``,
    ``InvalidFactor`` naming it) and ``tg_list`` an iterable
    (``InvalidFactor``); an empty one gives an empty profile.
    """
    _of_kind(ScenarioConfig, config, ScenarioError, "config")
    tg_list = _items_of(object, tg_list, InvalidFactor, "tg_list")
    repeats = _count(repeats, InvalidFactor, "repeats")
    if not tg_list:
        return []
    best = [[float("inf")] * config.horizon for _ in tg_list]
    for round_ in range(repeats):
        runs = []
        for tg in tg_list:
            federation, schedule, event = _prepare_run(config, tg, rt, ds)
            runs.append(run_steps(federation, schedule, [event]))
        # Round r advances the levels starting from level r, so no level
        # holds one place in the interleaving in every round.
        first = round_ % len(runs)
        order = list(zip(runs, best))
        order = order[first:] + order[:first]
        for t in range(config.horizon):
            for steps, fastest in order:
                started = time.perf_counter()
                next(steps)
                fastest[t] = min(fastest[t], time.perf_counter() - started)
    return [(tg, sum(fastest) / config.horizon)
            for tg, fastest in zip(tg_list, best)]
