"""Per-network node dynamics.

Each node combines three channels into its next performance value:
its intrinsic level, the lagged mean of its in-network predecessors,
and the mean of its cross-network inputs:

    p_i <- min(w_int * b_i + w_in * m_i + w_ext * f_i, 1)

where m_i averages predecessor performance from ``lag`` timesteps back
with disrupted predecessors contributing zero (lost supply, not
renormalized demand), a node without in-edges falls back to b_i, and a
node without couplings renormalizes w_ext away.  Weights and intrinsic
levels are nonnegative, so p_i never needs a lower clamp.  Disrupted
nodes are pinned to zero until every disruption covering them is
retracted.

The rule runs in affine form, ``p = min(M x + term, 1)``.  ``M`` is the
in-adjacency with row i scaled by ``w_in / max(in_degree_i, 1)``, so
``M x`` is ``w_in * m_i`` and the rows of nodes without in-edges are
zero.  ``M x`` runs on one of two kernels, picked once per federate from
the network's node and edge counts (``uses_edge_list``): a dense matvec
with the n x n ``in_matrix``, O(n^2), or, on a large sparse network, an
edge-list product, O(edges), that gathers each edge's source, scales it
by the edge's entry of ``M`` and sums per target with ``bincount``.  A
federate on the edge list builds no dense matrix.  ``term`` is the
constant ``base_i = w_int * b_i`` (plus ``w_in * b_i`` on nodes without
in-edges) plus the foreign channel ``w_ext * f_i``, which can only
change at a synchronization point.  The foreign channel belongs to the
federation (``coordinator.Federation``), and a federate to at most one
federation, which marks it ``bound``.  It rebinds ``foreign_inputs``
to the federate's (K, n) block of its slot grid, a view whose column i
holds node i's slot values in map order and then 0.0 in the rows the
node has no coupling for.  It rebinds ``term`` and ``uncoupled`` to the
federate's share of its barrier and latches ``term`` at every barrier,
and the term is added as it is until the next one.  A federate on
its own has no slots (``foreign_inputs`` has 0 rows): its term is
``base`` and every node is uncoupled.  Uncoupled nodes are divided by
``w_int + w_in`` on their own after the add.  The sums run in another
order than the plain formula, and each kernel in its own order, so
values agree with the plain formula within 1e-12, not bit for bit.

A federate on its own owns its states in one ring, ``states``, of
``R = MOP_BLOCK * (lag // MOP_BLOCK + 1)`` rows, at first intrinsic.
Step ``k`` (the count ``steps``) reads row ``(k - lag) % R`` and writes
row ``k % R`` in place, which becomes ``performance``.  A row is
rewritten ``R > lag`` steps later, so a caller that keeps a state
copies it, in a run or alone.  Its ``step`` runs the whole rule: the
product ``M x`` into the row, then the affine tail (``affine_tail``)
on it: add the term, renormalize, clamp, mask.  A federation owns one
ring for all its federates instead, whose R is the largest of theirs,
and rebinds each federate's ``states``, ``performance`` and keep mask
to its column block.  A bound federate's ``step`` then takes its rows
from the federation's timestep count, not its own ``steps``, and
writes only the product into its block of the row; the federation
(``coordinator.Federation.step``) runs the tail once over the row's
states; each element takes the same operations either way, so a
federate stepped alone and one in a run write the same bits.  The
federation's barrier reads the ring itself, so a caller that sets a
bound federate's values writes them into ``performance`` in place.

What the step reads but never writes, the node rule (``NodeRule``:
the intrinsic state, ``M`` in its kernel's form, ``base`` and
``w_int + w_in``), depends only on the topology and on ``w_int`` and
``w_in``.  It is derived once per such pair on a frozen ``Topology``,
stored in its one store (``topology.derive_once``) and shared,
read-only, by every federate built from the two; each federate still
makes its own ring, masks and term (a federation replaces all three by
its own), and its own copy of the edge-list index arrays.

Only ``coordinator.run_steps`` holds a federate (``held``): after its
first step, if every row of its ring holds the bits that step wrote,
until the run's first event.  Every row then already holds what the
rule would write, so a held ``step`` only counts.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (InvalidEvent, InvalidTopology, UnknownNode, _count, _node_indices, _of_kind,
                     _real_series)
from .topology import Topology, _read_only, derive_once

DEFAULT_WEIGHTS = (0.3, 0.4, 0.3)

#: Ring sizes are multiples of this: ``run_steps`` sums this many rows at once.
MOP_BLOCK = 32

#: The edge-list kernel runs on networks of at least this many nodes ...
EDGE_LIST_MIN_NODES = 160
#: ... whose n * n matrix entries number at least this many per edge.
EDGE_LIST_ENTRIES_PER_EDGE = 40


def uses_edge_list(node_count: int, edge_count: int) -> bool:
    """Whether a network's in-network mean runs on its edge list.

    The dense matvec costs O(n^2) and the edge list O(edges) with a
    larger fixed cost, so the edge list wins on large sparse networks
    only.  Measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4, median
    of 15 interleaved rounds), dense vs edge list per call at 3.5 edges
    per node, as in the paper's networks: 2.55 vs 3.74 us at 96 nodes,
    3.33 vs 4.09 us at 144, 4.80 vs 4.65 us at 160, 6.92 vs 4.97 us at
    192, 15.2 vs 6.4 us at 300.  At 300 nodes the edge list still won
    at 2,000 edges (14.7 vs 10.2 us, 45 entries per edge) and lost at
    2,800 (11.4 vs 14.0 us, 32 per edge).  The paper's networks (20-22
    nodes) take the dense kernel; three 300-node networks with 1,050
    edges each take the edge list.
    """
    return (node_count >= EDGE_LIST_MIN_NODES
            and node_count * node_count >= EDGE_LIST_ENTRIES_PER_EDGE * edge_count)


class NodeRule(NamedTuple):
    """The read-only arrays and scalar a federate's step reads (module
    docstring).  ``in_matrix`` is None on the edge-list kernel, whose
    edges are the topology's ``edges_by_target``, and ``edge_scale`` is
    None on the dense one."""

    intrinsic: np.ndarray
    in_matrix: np.ndarray | None
    edge_scale: np.ndarray | None
    base: np.ndarray
    local_weight: float
    ones: np.ndarray


def _derive_rule(topology: Topology, w_int: float, w_in: float) -> NodeRule:
    n = topology.node_count
    intrinsic = np.array(topology.intrinsic_performance, dtype=float)
    # Scaled in-adjacency: entry (i, j) is w_in / in_degree_i iff
    # edge j -> i, so row i of ``M @ x`` is w_in times the predecessor
    # mean.  Edges are distinct (the topology checks), so each entry
    # is set once, and no unscaled copy is kept.  A small or dense
    # network holds M as the dense ``in_matrix``; a large sparse one
    # holds only its nonzeros, one per edge, in the topology's
    # (target, source) order, and ``in_matrix`` is None.
    sources, targets = topology.edges_by_target
    in_degree = np.bincount(targets, minlength=n)
    row_scale = w_in / np.maximum(in_degree, 1.0)
    in_matrix = edge_scale = None
    if uses_edge_list(n, len(targets)):
        edge_scale = _read_only(row_scale[targets])
    else:
        in_matrix = np.zeros((n, n))
        in_matrix[targets, sources] = row_scale[targets]
        _read_only(in_matrix)

    # The constant part of the step term: w_int * b, and on nodes
    # without in-edges (zero rows) the fallback w_in * b as well.
    base = w_int * intrinsic
    no_in = in_degree == 0
    base[no_in] += w_in * intrinsic[no_in]
    # ``ones`` is an array operand: it skips converting the Python
    # scalar on every call.
    return NodeRule(_read_only(intrinsic), in_matrix, edge_scale,
                    _read_only(base), w_int + w_in, _read_only(np.ones(n)))


def node_rule(topology: Topology, w_int: float, w_in: float) -> NodeRule:
    """The node rule of ``topology`` under weights ``w_int`` and ``w_in``
    (``w_ext`` does not enter it), derived once per topology
    (``topology.derive_once``).

    The weights must be finite floats, as ``FederateState`` checks.
    They are keyed by their exact values, so 0.0 and -0.0 get rules of
    their own.
    """
    return derive_once(topology, ("rule", w_int.hex(), w_in.hex()),
                       lambda: _derive_rule(topology, w_int, w_in))


def _weight_triple(weights, error, field: str) -> tuple[float, float, float]:
    """The one weight rule of ``FederateState`` and ``NetworkSpec``:
    ``weights`` as a tuple of three Python floats, read by the
    real-series rule (``errors._real_series``) and finite, nonnegative
    and summing to 1 within 1e-9; ``error`` naming ``field`` and the
    weights otherwise."""
    triple = tuple(_real_series(weights, error, field).tolist())
    if not (len(triple) == 3 and all(map(math.isfinite, triple)) and min(triple) >= 0
            and abs(sum(triple) - 1.0) <= 1e-9):
        raise error(f"{field}: must be finite, nonnegative and sum to 1 as "
                    f"(w_int, w_in, w_ext), got {weights}")
    return triple


def affine_tail(p: np.ndarray, term: np.ndarray, local_weight, uncoupled: np.ndarray | None,
                ones: np.ndarray, keep: np.ndarray | None) -> None:
    """The elementwise half of the node rule, in place on ``p``, which
    holds the in-network product ``M x``: add the step ``term``, divide
    the nodes where ``uncoupled`` is True (none if it is None) by
    ``local_weight`` (``w_int + w_in``, a scalar or one per node), clamp
    at ``ones`` and, unless ``keep`` is None (no node down), zero the
    disrupted nodes by the 1/0 ``keep`` mask.  An unbound
    ``FederateState.step`` runs it on its own row, and
    ``coordinator.Federation.step`` once per timestep on its whole row,
    with the same operations on each element."""
    p += term
    if uncoupled is not None:
        np.divide(p, local_weight, out=p, where=uncoupled)
    np.minimum(p, ones, out=p)
    if keep is not None:
        p *= keep


class FederateState:
    """Mutable state of one network federate.

    Confined to one logical owner at a time, and bound by at most one
    federation (``bound``); all cross-federate interaction goes through
    the coordinator's exchange.  ``topology`` must be a ``Topology``,
    weights ``(w_int, w_in, w_ext)`` what the weight rule
    (``_weight_triple``) takes, and ``lag`` a count
    (``errors._count``); anything else raises ``InvalidTopology``.
    """

    def __init__(self, topology: Topology,
                 weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                 lag: int = 1):
        _of_kind(Topology, topology, InvalidTopology, "topology")
        self.w_int, self.w_in, self.w_ext = _weight_triple(weights, InvalidTopology, "weights")
        self.lag = _count(lag, InvalidTopology, "lag")
        self.topology = topology

        n = topology.node_count
        rule = node_rule(topology, self.w_int, self.w_in)
        self.intrinsic = rule.intrinsic
        self.in_matrix = rule.in_matrix
        self._edge_scale = rule.edge_scale
        if self.in_matrix is None:
            # numpy's ``take`` and ``bincount`` copy a read-only index
            # array on every call, so each federate copies them once.
            self._sources, self._targets = topology.edges_by_target.copy()
        self.base = rule.base
        self._local_weight = rule.local_weight
        self._ones = rule.ones

        self.states = np.tile(self.intrinsic, (MOP_BLOCK * (self.lag // MOP_BLOCK + 1), 1))
        self._rows = list(self.states)  # views made once: a list index is cheaper
        self.steps = 0
        # The bound federate's row comes from its federation's timestep
        # count, ``_clock[0]``, shared with it; set by the federation.
        self._clock = None
        self.performance = self._rows[-1]  # the state of step -1
        # Set and cleared by ``coordinator.run_steps`` only (module docstring).
        self.held = False
        # Set by the one ``coordinator.Federation`` that binds the federate.
        self.bound = False
        # Number of active disruptions per node, so overlapping events
        # compose: a node is up again only when its count is back at 0.
        self.disrupted = np.zeros(n, dtype=int)
        # 1.0 where the count is 0, else 0.0; kept in step with
        # ``disrupted`` so the step masks by multiplication, which it
        # skips while no node is down (x * 1.0 is x).
        self._keep = np.ones(n)
        self._any_down = False

        # The foreign channel, alone: no slots, every node renormalizes
        # w_ext away, and the step term is the base.  A federation
        # rebinds all three to its share of the barrier; there
        # ``uncoupled`` is None when every node holds a slot.
        self.foreign_inputs = np.zeros((0, n))
        self.term = self.base.copy()
        self.uncoupled = np.ones(n, dtype=bool)

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def check_nodes(self, node_set) -> np.ndarray:
        """Sorted distinct node indices; ``InvalidEvent`` unless an iterable
        of integers (``errors._node_indices``), ``UnknownNode`` if out of range."""
        nodes = sorted(set(_node_indices(node_set)))
        # Tested before the cast, which an index past 64 bits overflows.
        if nodes and (nodes[0] < 0 or nodes[-1] >= self.node_count):
            raise UnknownNode(
                f"node indices {node_set} out of range for "
                f"{self.topology.network_id.value} ({self.node_count} nodes)")
        return np.asarray(nodes, dtype=int)

    def step(self) -> None:
        """Advance the federate by one internal timestep.

        The rule in affine form: the product of the scaled in-adjacency
        (``_derive_rule``) with the lagged state, as a dense matvec with
        ``in_matrix`` or, when that is None, as a gather of the edges'
        sources, a multiply by their entries and a ``bincount`` per
        target; then the affine tail (``affine_tail``): add the step
        term fixed at the last barrier, renormalize the ``uncoupled``
        nodes, clamp at 1.  While some node is down the 1/0 keep mask of
        undisrupted nodes (kept by ``apply_disruption`` and
        ``retract_disruption``) zeroes the disrupted predecessors before
        the product and the disrupted nodes after the clamp; otherwise
        both products are skipped, since multiplying by 1.0 changes no
        bit.  The result is within 1e-12 of the plain formula (see the
        module docstring).

        It reads ring row ``(k - lag) % R`` and writes row ``k % R``
        (see the module docstring), k being ``steps`` or, for a bound
        federate, its federation's timestep count.  A bound federate's
        step writes only the product: its federation runs the tail once
        over all its federates' rows (``coordinator.Federation.step``),
        so a bound federate stepped alone holds ``M x``, not its state,
        in the row of the federation's next timestep, which rewrites
        it.
        A held federate only counts the step: every row of its ring
        already holds the bits this one would write, and
        ``performance`` is one of them.
        """
        if self.held:
            self.steps += 1
            return
        rows = self._rows
        i = (self._clock[0] if self.bound else self.steps) % len(rows)
        x, out = rows[i - self.lag], rows[i]  # lag < R: i - lag wraps
        if self._any_down:
            x = x * self._keep
        if self.in_matrix is not None:
            self.in_matrix.dot(x, out=out)
        else:
            p = x.take(self._sources)
            p *= self._edge_scale
            np.copyto(out, np.bincount(self._targets, weights=p, minlength=len(x)))
        if not self.bound:
            affine_tail(out, self.term, self._local_weight, self.uncoupled, self._ones,
                        self._keep if self._any_down else None)
        self.performance = out
        self.steps += 1

    def apply_disruption(self, node_set) -> None:
        """Add one active disruption to each node.

        Only the masks change: ``performance`` keeps its value until the
        next ``step()``, which pins the nodes to zero and hides them from
        their out-neighbours.  The nodes are checked first
        (``check_nodes``), so a refused set disrupts no node.
        """
        nodes = self.check_nodes(node_set)
        self.disrupted[nodes] += 1
        self._keep[nodes] = 0.0
        self._any_down = bool(self.disrupted.any())

    def retract_disruption(self, node_set) -> None:
        """Remove one active disruption from each node.

        A node whose count falls to zero comes back through the update
        rule at the next ``step()``.  Its out-neighbours read the lagged
        zero from the ring for ``lag`` more steps, so downstream nodes
        recover through the dynamics only.  The deficit shrinks by a
        factor of about ``w_in`` per step, and the first sync at or after
        retraction exports what is left of it.
        """
        nodes = self.check_nodes(node_set)
        if not self.disrupted[nodes].all():
            raise InvalidEvent(f"retract of nodes that are not disrupted: {node_set}")
        self.disrupted[nodes] -= 1
        self._keep[nodes] = self.disrupted[nodes] == 0
        self._any_down = bool(self.disrupted.any())
