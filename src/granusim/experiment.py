"""Factorial experiment layout, execution, and persistence.

The shipped default levels are the published 5x5x5 design.  Runs are
independent and may execute in worker processes; the results file is
always in layout order and all columns except sec_per_step are a pure
function of (seed, config, layout).
"""

import csv
import hashlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .coordinator import Federation, SyncSchedule, _is_positive_int, run, run_steps
from .disruption import DisruptionEvent, fixed_pattern
from .errors import GranusimError, InvalidFactor, ScenarioError
from .federate import DEFAULT_WEIGHTS, FederateState
from .metrics import MoPTrace, RunOutcome, classify_visibility, compute_spds, compute_sprt
from .topology import (InterdependencyMap, NetworkId, Topology,
                       generate_interdependencies, generate_topology)

RESULTS_HEADER = ("run_id,tg,rt,ds,spds_pct,sprt_steps,visible,censored,"
                  "sec_per_step,pattern_hash,status")

#: Steps the horizon must leave after retraction for recovery to settle.
RECOVERY_HEADROOM = 200


@dataclass(frozen=True)
class FactorLevels:
    tg_levels: tuple[int, ...] = (2, 12, 14, 21, 27)
    rt_levels: tuple[int, ...] = (2, 9, 13, 17, 22)
    ds_levels: tuple[int, ...] = (8, 12, 14, 18, 21)

    def __post_init__(self):
        for name in ("tg_levels", "rt_levels", "ds_levels"):
            levels = getattr(self, name)
            if not levels:
                raise ValueError(f"{name} must be non-empty")
            if (not all(map(_is_positive_int, levels))
                    or list(levels) != sorted(set(levels))):
                raise ValueError(f"{name} must be ascending positive integers, got {levels}")


def _check_int(field: str, value, minimum: int | None = 1) -> None:
    """``ScenarioError`` naming ``field`` unless ``value`` is an int, not
    a bool, and at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"field '{field}': expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"field '{field}': must be at least {minimum}, got {value}")


def _reject_unknown(doc: dict, known) -> None:
    for key in doc:
        if key not in known:
            raise ScenarioError(f"field {key!r}: unknown")


def _network_id(value, field: str) -> NetworkId:
    try:
        return NetworkId(value)
    except ValueError:
        raise ScenarioError(f"field '{field}': unknown network {value!r}") from None


@dataclass(frozen=True)
class NetworkSpec:
    network_id: NetworkId
    node_count: int
    edge_count: int
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    lag: int = 1

    def __post_init__(self):
        n = self.node_count
        _check_int("nodes", n)
        _check_int("edges", self.edge_count, minimum=None)
        if not 0 <= self.edge_count <= n * (n - 1):
            raise ScenarioError(f"field 'edges': must lie in [0, {n * (n - 1)}] "
                                f"for {n} nodes, got {self.edge_count}")
        w = self.weights
        if (not isinstance(w, (tuple, list)) or len(w) != 3
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in w)
                or not all(map(math.isfinite, w))
                or min(w) < 0 or abs(sum(w) - 1.0) > 1e-9):
            raise ScenarioError(
                f"field 'weights': expected 3 finite nonnegative numbers summing to 1, got {w!r}")
        _check_int("lag", self.lag)


#: JSON key of each ``NetworkSpec`` field in a scenario file.
_NETWORK_KEYS = {"id": "network_id", "nodes": "node_count", "edges": "edge_count",
                 "weights": "weights", "lag": "lag"}


def _network_from_json(net, index: int) -> NetworkSpec:
    try:
        if not isinstance(net, dict):
            raise ScenarioError("expected an object")
        _reject_unknown(net, _NETWORK_KEYS)
        for key in ("id", "nodes", "edges"):
            if key not in net:
                raise ScenarioError(f"field '{key}': missing")
        kwargs = {_NETWORK_KEYS[key]: value for key, value in net.items()}
        kwargs["network_id"] = _network_id(net["id"], "id")
        if isinstance(net.get("weights"), list):
            kwargs["weights"] = tuple(net["weights"])
        return NetworkSpec(**kwargs)
    except ScenarioError as exc:
        raise ScenarioError(f"field 'networks[{index}]': {exc}") from exc


DEFAULT_NETWORKS = (
    NetworkSpec(NetworkId.WATER, 22, 77, lag=1),
    NetworkSpec(NetworkId.POWER, 21, 77, lag=1),
    NetworkSpec(NetworkId.BUSINESS, 20, 75, lag=2),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario setting; a bad one raises a ``ScenarioError``
    naming its field, whether built in Python or by ``from_json``."""

    master_seed: int = 20200831
    horizon: int = 400
    warmup: int = 50
    networks: tuple[NetworkSpec, ...] = DEFAULT_NETWORKS
    couplings_per_node: int = 1
    origin: NetworkId = NetworkId.WATER
    target: NetworkId = NetworkId.BUSINESS
    align_sync: bool = False

    def __post_init__(self):
        _check_int("master_seed", self.master_seed, minimum=None)
        for name in ("horizon", "warmup", "couplings_per_node"):
            _check_int(name, getattr(self, name))
        if not isinstance(self.align_sync, bool):
            raise ScenarioError(f"field 'align_sync': expected a bool, got {self.align_sync!r}")
        ids = [n.network_id for n in self.networks]
        if len(set(ids)) != len(ids):
            raise ScenarioError("field 'networks': duplicate network ids")
        if self.origin not in ids or self.target not in ids:
            raise ScenarioError("field 'origin'/'target': must name configured networks")

    def network(self, network_id: NetworkId) -> NetworkSpec:
        for spec in self.networks:
            if spec.network_id == network_id:
                return spec
        raise KeyError(network_id)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["networks"] = [{key: getattr(n, name) for key, name in _NETWORK_KEYS.items()}
                           for n in self.networks]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """Map a scenario file's keys onto the fields; keys it leaves out
        keep their defaults, and an unknown key is a ``ScenarioError``."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("top level: expected an object")
        _reject_unknown(doc, {f.name for f in fields(cls)})
        kwargs = dict(doc)
        for name in ("origin", "target"):
            if name in doc:
                kwargs[name] = _network_id(doc[name], name)
        if "networks" in doc:
            if not isinstance(doc["networks"], list):
                raise ScenarioError("field 'networks': expected a list")
            kwargs["networks"] = tuple(_network_from_json(net, i)
                                       for i, net in enumerate(doc["networks"]))
        return cls(**kwargs)


def build_layout(levels: FactorLevels) -> list[tuple[int, int, int]]:
    """Cartesian product of the levels in lexicographic (ds, rt, tg) order."""
    return [(tg, rt, ds)
            for ds in levels.ds_levels
            for rt in levels.rt_levels
            for tg in levels.tg_levels]


def build_topologies(config: ScenarioConfig) -> list[Topology]:
    return [generate_topology(n.network_id, n.node_count, n.edge_count,
                              config.master_seed)
            for n in config.networks]


#: The one wiring ``wiring`` keeps, under the key it was generated for.
_WIRING: dict = {}


def wiring(config: ScenarioConfig) -> tuple[tuple[Topology, ...], InterdependencyMap]:
    """Topologies and couplings of a scenario, generated once for the
    fields that decide them: the master seed, the couplings per node and
    each network's id, node count and edge count.

    Both are frozen, so every federation built from configs that agree
    on those (whatever their horizon, warm-up, onset, weights or lag)
    shares them, and ``generate`` writes the same objects; each build
    still makes fresh federate states.  Only the latest wiring is kept.
    """
    key = (config.master_seed, config.couplings_per_node,
           tuple((n.network_id, n.node_count, n.edge_count) for n in config.networks))
    if key not in _WIRING:
        topologies = tuple(build_topologies(config))
        _WIRING.clear()
        _WIRING[key] = topologies, generate_interdependencies(
            topologies, config.couplings_per_node, config.master_seed)
    return _WIRING[key]


def build_federation(config: ScenarioConfig) -> Federation:
    topologies, interdeps = wiring(config)
    federates = {}
    for spec, topo in zip(config.networks, topologies):
        federates[spec.network_id] = FederateState(
            topo, weights=spec.weights, lag=spec.lag)
    return Federation(federates, interdeps)


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
    run_id: int
    tg: int
    rt: int
    ds: int
    outcome: RunOutcome | None
    pattern: tuple[int, ...] = ()
    status: str = "ok"

    def to_csv_fields(self) -> list[str]:
        out = self.outcome
        return [
            str(self.run_id), str(self.tg), str(self.rt), str(self.ds),
            f"{out.spds:.6f}" if out else "",
            "" if out is None or out.sprt is None else str(out.sprt),
            "" if out is None else ("true" if out.visible else "false"),
            "" if out is None else ("true" if out.censored else "false"),
            f"{out.sec_per_step:.9f}" if out else "",
            pattern_hash(self.pattern) if self.pattern else "",
            self.status,
        ]


def _prepare_run(config: ScenarioConfig, tg: int, rt: int,
                 ds: int) -> tuple[Federation, SyncSchedule, DisruptionEvent]:
    """Fresh federation, schedule and disruption of one configuration.

    ``InvalidFactor`` if tg, rt or ds is not a positive integer (a bool
    is not one), before anything uses it.
    """
    for name, level in (("tg", tg), ("rt", rt), ("ds", ds)):
        if not _is_positive_int(level):
            raise InvalidFactor(f"{name}: must be a positive integer, got {level!r}")
    t0 = disruption_onset(config, tg)
    if config.horizon < t0 + rt + RECOVERY_HEADROOM:
        raise ScenarioError(
            f"horizon {config.horizon} below onset {t0} + rt {rt} "
            f"+ headroom {RECOVERY_HEADROOM}")
    federation = build_federation(config)
    origin_topo = federation.federates[config.origin].topology
    pattern = fixed_pattern(ds, origin_topo, config.master_seed)
    event = DisruptionEvent(apply_time=t0, retract_time=t0 + rt,
                            network_id=config.origin, nodes=pattern)
    return federation, SyncSchedule(tg=tg, horizon=config.horizon), event


def run_single(config: ScenarioConfig, tg: int, rt: int,
               ds: int) -> tuple[RunOutcome, MoPTrace, tuple[int, ...]]:
    """Run one (tg, rt, ds) configuration from a fresh deterministic federation."""
    federation, schedule, event = _prepare_run(config, tg, rt, ds)
    t0, pattern = event.apply_time, event.nodes

    started = time.perf_counter()
    trace = run(federation, schedule, [event])
    elapsed = time.perf_counter() - started

    spds = compute_spds(trace, config.target, t0)
    sprt = compute_sprt(trace, config.target, t0 + rt)
    outcome = RunOutcome(tg=tg, rt=rt, ds=ds, spds=spds, sprt=sprt,
                         visible=classify_visibility(spds),
                         sec_per_step=elapsed / config.horizon)
    return outcome, trace, pattern


def _run_indexed(args) -> ResultRow:
    index, config, triple = args
    tg, rt, ds = triple
    try:
        outcome, _, pattern = run_single(config, tg, rt, ds)
        return ResultRow(index, tg, rt, ds, outcome, pattern)
    except GranusimError as exc:  # per-run failures recorded, batch continues
        return ResultRow(index, tg, rt, ds, None, (), f"error: {exc}")


def run_experiment(config: ScenarioConfig, layout: list[tuple[int, int, int]],
                   jobs: int = 1, traces_dir=None) -> list[ResultRow]:
    """Execute a layout; rows come back in layout order regardless of
    completion order.  jobs=1 is the sequential reference path."""
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
            if row.status != "ok":
                continue
            _, trace, _ = run_single(config, row.tg, row.rt, row.ds)
            write_atomic(traces_dir / f"run_{row.run_id:03d}.csv", trace.to_csv())
    return rows


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so a failure never leaves a partial file behind."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
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
    is timed.
    """
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
