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
zero.  ``term`` is the constant ``base_i = w_int * b_i`` (plus
``w_in * b_i`` on nodes without in-edges) plus the foreign channel
``w_ext * f_i``, which can only change at a synchronization point:
``latch`` writes it from the slot values, for every federate at once
when the coordinator's barrier has written them or for one federate
through ``latch_foreign_inputs``, and ``step`` adds it as it is until
the next barrier.  Uncoupled nodes are divided by ``w_int + w_in`` on
their own after the add.  The sums run in another order than the plain
formula, so values agree with it within 1e-12, not bit for bit.
"""

import json
from collections import deque

import numpy as np

from .errors import UnknownNode
from .topology import Topology

DEFAULT_WEIGHTS = (0.3, 0.4, 0.3)


def latch(consumers, slots, divisor, w_ext, base, out) -> None:
    """Write the step term ``base + w_ext * mean(slots)`` per node to ``out``.

    Slot values are summed per node by ``bincount`` in slot order, then
    divided by the per-node slot-count divisor, scaled by ``w_ext`` and
    added to the node's constant ``base``; a node without slots gets
    ``base`` alone.  The one formula of both
    ``FederateState.latch_foreign_inputs`` (one federate) and the
    coordinator's barrier (every federate at once, node indices offset
    and ``divisor``, ``w_ext`` and ``base`` laid end to end): each node
    sums its own slots in the same order and the rest is elementwise,
    so both give the same bits.
    """
    np.divide(np.bincount(consumers, weights=slots, minlength=len(out)), divisor, out=out)
    out *= w_ext
    out += base


class FederateState:
    """Mutable state of one network federate.

    Confined to one logical owner at a time; all cross-federate
    interaction goes through the coordinator's exchange.
    """

    def __init__(self, topology: Topology,
                 weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                 lag: int = 1,
                 consumer_nodes: list[int] | None = None):
        w_int, w_in, w_ext = weights
        if min(weights) < 0 or abs(w_int + w_in + w_ext - 1.0) > 1e-9:
            raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")
        if lag < 1:
            raise ValueError(f"lag must be a positive integer, got {lag}")
        intrinsic = np.array(topology.intrinsic_performance, dtype=float)
        if not ((intrinsic >= 0.0) & (intrinsic <= 1.0)).all():
            raise ValueError("intrinsic performance levels must lie in [0, 1], "
                             f"got {topology.intrinsic_performance}")
        self.topology = topology
        self.w_int, self.w_in, self.w_ext = w_int, w_in, w_ext
        self.lag = lag

        n = topology.node_count
        self.intrinsic = intrinsic
        self.performance = self.intrinsic.copy()
        # Number of active disruptions per node, so overlapping events
        # compose: a node is up again only when its count is back at 0.
        self.disrupted = np.zeros(n, dtype=int)
        # 1.0 where the count is 0, else 0.0; kept in step with
        # ``disrupted`` so the step masks by multiplication, which it
        # skips while no node is down (x * 1.0 is x).
        self._keep = np.ones(n)
        self._any_down = False
        self.history: deque[np.ndarray] = deque(
            [self.performance.copy() for _ in range(lag)], maxlen=lag)

        # Scaled in-adjacency: in_matrix[i, j] = w_in / in_degree_i iff
        # edge j -> i, so row i of ``in_matrix @ x`` is w_in times the
        # predecessor mean.  Edges are distinct, so one assignment sets
        # each entry once, and no unscaled copy is kept.
        edges = topology.edge_array
        in_degree = np.bincount(edges[:, 1], minlength=n)
        row_scale = w_in / np.maximum(in_degree, 1.0)
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

        if consumer_nodes is None:
            # No slots until ``set_consumers`` wires some, as a federation
            # does once for each of its federates: every node
            # renormalizes w_ext away, and the step term is the base,
            # which is what ``latch`` writes when no slot feeds a node.
            self.consumer_nodes = np.zeros(0, dtype=int)
            self.foreign_inputs = np.zeros(0)
            self.coupling_count = np.zeros(n)
            self._coupling_divisor = self._ones
            self._uncoupled = np.ones(n, dtype=bool)
            self.term = self.base.copy()
        else:
            self.set_consumers(consumer_nodes)

    def set_consumers(self, consumer_nodes, slots=None, term=None) -> None:
        """Wire foreign slot k to local node ``consumer_nodes[k]``.

        Resets every slot to 1.0, derives the step constants that depend
        on the coupling (the per-node slot count, its divisor and the
        mask of uncoupled nodes, which renormalize w_ext away) and
        latches the step term of the 1.0 slots.  ``slots`` (one entry
        per slot) and ``term`` (one per node) are where
        ``foreign_inputs`` and the step term live; a federation passes
        views into its own barrier vectors, and without them the
        federate allocates its own.  The coordinator writes the slots at
        sync instants and latches every node's term at once.
        ``UnknownNode`` if a consumer node is out of range.
        """
        self.consumer_nodes = np.array(consumer_nodes, dtype=int)
        self._check_range(self.consumer_nodes, consumer_nodes)
        k, n = len(self.consumer_nodes), self.node_count
        self.foreign_inputs = np.empty(k) if slots is None else slots
        self.foreign_inputs[:] = 1.0
        self.coupling_count = np.bincount(
            self.consumer_nodes, minlength=n).astype(float)
        self._coupling_divisor = np.maximum(self.coupling_count, 1.0)
        uncoupled = self.coupling_count == 0
        self._uncoupled = uncoupled if uncoupled.any() else None
        self.term = np.empty(n) if term is None else term
        self.latch_foreign_inputs()

    def latch_foreign_inputs(self) -> None:
        """Fix the step term from the current slot values.

        Writes ``base + w_ext * mean(slots)`` per node in place (see
        ``latch``).  Every ``step()`` until the next call adds this term
        as it is, so a write to ``foreign_inputs`` reaches the dynamics
        only once it is latched.  With no slots the term is ``base``.
        """
        latch(self.consumer_nodes, self.foreign_inputs, self._coupling_divisor,
              self.w_ext, self.base, self.term)

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def check_nodes(self, node_set) -> np.ndarray:
        """Sorted distinct node indices; ``UnknownNode`` if any is out of range."""
        nodes = np.asarray(sorted(set(node_set)), dtype=int)
        self._check_range(nodes, node_set)
        return nodes

    def _check_range(self, nodes: np.ndarray, node_set) -> None:
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.node_count):
            raise UnknownNode(
                f"node indices {node_set} out of range for "
                f"{self.topology.network_id.value} ({self.node_count} nodes)")

    def step(self) -> None:
        """Advance the federate by one internal timestep.

        The rule in affine form: one matvec of the lagged state with the
        scaled in-adjacency (``__init__``), add the step term fixed at
        the last barrier (``latch``), renormalize the uncoupled nodes
        (mask from ``set_consumers``), clamp at 1.  While some node is
        down the 1/0 keep mask of undisrupted nodes (kept by
        ``apply_disruption`` and ``retract_disruption``) zeroes the
        disrupted predecessors before the matvec and the disrupted
        nodes after the clamp; otherwise both products are skipped,
        since multiplying by 1.0 changes no bit.  The result is within
        1e-12 of the plain formula (see the module docstring).

        The new state is a fresh array that becomes both
        ``performance`` and the newest ``history`` entry.
        """
        if self._any_down:
            p = self.in_matrix.dot(self.history[0] * self._keep)
        else:
            p = self.in_matrix.dot(self.history[0])
        p += self.term
        if self._uncoupled is not None:
            np.divide(p, self._local_weight, out=p, where=self._uncoupled)
        np.minimum(p, self._ones, out=p)
        if self._any_down:
            p *= self._keep
        self.performance = p
        self.history.append(p)

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
        zero from ``history`` for ``lag`` more steps, so downstream nodes
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

    def snapshot_json(self) -> str:
        doc = {
            "network_id": self.topology.network_id.value,
            "performance": self.performance.tolist(),
            "disrupted": self.disrupted.tolist(),
            "foreign_inputs": self.foreign_inputs.tolist(),
            "history": [h.tolist() for h in self.history],
            "lag": self.lag,
            "weights": [self.w_int, self.w_in, self.w_ext],
        }
        return json.dumps(doc, sort_keys=True)
