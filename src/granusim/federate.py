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
"""

import numpy as np

from .errors import UnknownNode
from .topology import Topology

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


class FederateState:
    """Mutable state of one network federate.

    Confined to one logical owner at a time; all cross-federate
    interaction goes through the coordinator's exchange.
    """

    def __init__(self, topology: Topology,
                 weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                 lag: int = 1):
        w_int, w_in, w_ext = weights
        if min(weights) < 0 or abs(w_int + w_in + w_ext - 1.0) > 1e-9:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")
        if lag < 1:
            raise ValueError(f"lag must be a positive integer, got {lag}")
        self.topology = topology
        self.w_int, self.w_in, self.w_ext = w_int, w_in, w_ext
        self.lag = lag

        n = topology.node_count
        self.intrinsic = np.array(topology.intrinsic_performance, dtype=float)
        self.states = np.tile(self.intrinsic, (MOP_BLOCK * (lag // MOP_BLOCK + 1), 1))
        self._rows = list(self.states)  # views made once: a list index is cheaper
        self.steps = 0
        self.performance = self._rows[-1]  # the state of step -1
        # Number of active disruptions per node, so overlapping events
        # compose: a node is up again only when its count is back at 0.
        self.disrupted = np.zeros(n, dtype=int)
        # 1.0 where the count is 0, else 0.0; kept in step with
        # ``disrupted`` so the step masks by multiplication, which it
        # skips while no node is down (x * 1.0 is x).
        self._keep = np.ones(n)
        self._any_down = False

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
        if uses_edge_list(n, len(edges)):
            self.in_matrix = None
            self._sources, self._targets = topology.edges_by_target
            self._edge_scale = row_scale[self._targets]
        else:
            self.in_matrix = np.zeros((n, n))
            self.in_matrix[edges[:, 1], edges[:, 0]] = row_scale[edges[:, 1]]

        # The constant part of the step term: w_int * b, and on nodes
        # without in-edges (zero rows) the fallback w_in * b as well.
        self.base = w_int * self.intrinsic
        no_in = in_degree == 0
        self.base[no_in] += w_in * self.intrinsic[no_in]
        self._local_weight = w_int + w_in
        # Array operand: skips converting the Python scalar on every call.
        self._ones = np.ones(n)

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
        (``__init__``) with the lagged state, as a dense matvec with
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
        ``steps % R`` (see the module docstring).
        """
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
