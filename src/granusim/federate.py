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
federation (``coordinator.Federation``): it rebinds ``foreign_inputs``,
``term`` and ``uncoupled`` to its own barrier vectors and latches
``term`` at every barrier, and ``step`` adds the term as it is until the
next one.  A federate on its own has no slots: its term is ``base`` and
every node is uncoupled.  Uncoupled nodes are divided by
``w_int + w_in`` on their own after the add.  The sums run in another
order than the plain formula, and each kernel in its own order, so
values agree with the plain formula within 1e-12, not bit for bit.

A federate owns its states in one ring, ``states``, of
``R = MOP_BLOCK * (lag // MOP_BLOCK + 1)`` rows, at first intrinsic.
Step ``k`` (the count ``steps``) reads row ``(k - lag) % R`` and writes
row ``k % R`` in place, which becomes ``performance``.  A row is
rewritten ``R > lag`` steps later, so a caller that keeps a state
copies it, in a run or alone.

What the step reads but never writes, the node rule (``NodeRule``:
the intrinsic state, ``M`` in its kernel's form, ``base`` and
``w_int + w_in``), depends only on the topology and on ``w_int`` and
``w_in``.  It is derived once per such pair on a frozen ``Topology``,
stored on it (``Topology.node_rules``) and shared, read-only, by every
federate built from the two; each federate still makes its own ring,
masks and term, and its own copy of the edge-list index arrays.

Only ``coordinator.run_steps`` holds a federate (``held``): after its
first step, if every row of its ring holds the bits that step wrote,
until the run's first event.  Every row then already holds what the
rule would write, so a held ``step`` only counts.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import UnknownNode
from .topology import Topology, _is_index_type, _read_only

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
    edges = topology.edge_array
    in_degree = np.bincount(edges[:, 1], minlength=n)
    row_scale = w_in / np.maximum(in_degree, 1.0)
    in_matrix = edge_scale = None
    if uses_edge_list(n, len(edges)):
        edge_scale = _read_only(row_scale[topology.edges_by_target[1]])
    else:
        in_matrix = np.zeros((n, n))
        in_matrix[edges[:, 1], edges[:, 0]] = row_scale[edges[:, 1]]
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
    (``w_ext`` does not enter it), derived on first use and then read
    from ``topology.node_rules``.

    The weights must be finite floats, as ``FederateState`` checks.
    They are keyed by their exact values, so 0.0 and -0.0 get rules of
    their own.
    """
    key = (w_int.hex(), w_in.hex())
    rule = topology.node_rules.get(key)
    if rule is None:
        rule = topology.node_rules[key] = _derive_rule(topology, w_int, w_in)
    return rule


class FederateState:
    """Mutable state of one network federate.

    Confined to one logical owner at a time; all cross-federate
    interaction goes through the coordinator's exchange.  Weights must
    be finite, nonnegative and sum to 1, and ``lag`` an integer of at
    least 1 (a bool is not one); anything else raises ``ValueError``.
    """

    def __init__(self, topology: Topology,
                 weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                 lag: int = 1):
        w_int, w_in, w_ext = weights
        # NaN fails the sign and the sum comparison alike, so it is
        # refused on its own, before it could key a node rule.
        if (not all(map(math.isfinite, weights)) or min(weights) < 0
                or abs(w_int + w_in + w_ext - 1.0) > 1e-9):
            raise ValueError(f"weights must be finite, nonnegative and sum to 1, got {weights}")
        if not _is_index_type(type(lag)) or lag < 1:
            raise ValueError(f"lag must be a positive integer, got {lag!r}")
        self.topology = topology
        w_int, w_in, w_ext = map(float, weights)
        self.w_int, self.w_in, self.w_ext = w_int, w_in, w_ext
        self.lag = lag

        n = topology.node_count
        rule = node_rule(topology, w_int, w_in)
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

        self.states = np.tile(self.intrinsic, (MOP_BLOCK * (lag // MOP_BLOCK + 1), 1))
        self._rows = list(self.states)  # views made once: a list index is cheaper
        self.steps = 0
        self.performance = self._rows[-1]  # the state of step -1
        # Set and cleared by ``coordinator.run_steps`` only (module docstring).
        self.held = False
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
        self.foreign_inputs = np.zeros(0)
        self.term = self.base.copy()
        self.uncoupled = np.ones(n, dtype=bool)

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def check_nodes(self, node_set) -> np.ndarray:
        """Sorted distinct node indices; ``UnknownNode`` if any is out of range."""
        nodes = np.asarray(sorted(set(node_set)), dtype=int)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.node_count):
            raise UnknownNode(
                f"node indices {node_set} out of range for "
                f"{self.topology.network_id.value} ({self.node_count} nodes)")
        return nodes

    def step(self) -> None:
        """Advance the federate by one internal timestep.

        The rule in affine form: the product of the scaled in-adjacency
        (``_derive_rule``) with the lagged state, as a dense matvec with
        ``in_matrix`` or, when that is None, as a gather of the edges'
        sources, a multiply by their entries and a ``bincount`` per
        target; then add the step term fixed at the last barrier,
        renormalize the ``uncoupled`` nodes, clamp at 1.  While some
        node is down the 1/0 keep mask of undisrupted nodes (kept by
        ``apply_disruption`` and ``retract_disruption``) zeroes the
        disrupted predecessors before the product and the disrupted
        nodes after the clamp; otherwise both products are skipped,
        since multiplying by 1.0 changes no bit.  The result is within
        1e-12 of the plain formula (see the module docstring).

        It reads ring row ``(steps - lag) % R`` and writes row
        ``steps % R`` (see the module docstring).  A held federate only
        counts the step: every row of its ring already holds the bits
        this one would write, and ``performance`` is one of them.
        """
        if self.held:
            self.steps += 1
            return
        rows = self._rows
        i = self.steps % len(rows)
        x, out = rows[i - self.lag], rows[i]  # lag < R: i - lag wraps
        if self._any_down:
            x = x * self._keep
        if self.in_matrix is not None:
            p = self.in_matrix.dot(x, out=out)
            p += self.term
        else:
            p = x.take(self._sources)
            p *= self._edge_scale
            p = np.add(np.bincount(self._targets, weights=p, minlength=len(x)),
                       self.term, out=out)
        if self.uncoupled is not None:
            np.divide(p, self._local_weight, out=p, where=self.uncoupled)
        np.minimum(p, self._ones, out=p)
        if self._any_down:
            p *= self._keep
        self.performance = p
        self.steps += 1

    def apply_disruption(self, node_set) -> None:
        """Add one active disruption to each node.

        Only the masks change: ``performance`` keeps its value until the
        next ``step()``, which pins the nodes to zero and hides them from
        their out-neighbours.
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
            raise ValueError(f"retract of nodes that are not disrupted: {node_set}")
        self.disrupted[nodes] -= 1
        self._keep[nodes] = self.disrupted[nodes] == 0
        self._any_down = bool(self.disrupted.any())
