"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented behaviour alone, in
plain Python (no shared code paths with the package), so agreement is
meaningful evidence rather than tautology.
"""

import numpy as np

from granusim.coordinator import Federation
from granusim.experiment import wiring
from granusim.federate import FederateState
from granusim.topology import (NETWORK_ORDER, Coupling, InterdependencyMap, NetworkId,
                               Topology, generate_interdependencies)


def make_topology(edges, n, network_id=NetworkId.WATER, intrinsic=None):
    """A topology of ``n`` nodes, each at level 1.0 unless ``intrinsic``
    gives the levels."""
    return Topology(
        network_id=network_id,
        edges=tuple(edges),
        intrinsic_performance=tuple(intrinsic or [1.0] * n),
    )


def fed_by_feeder(fed, consumers):
    """A federation of ``fed`` and a feeder of one isolated node per slot.

    ``fed`` must be a water federate; slot k is wired to its node
    ``consumers[k]`` and fed by feeder node k.  Returns the federation
    and the feeder: a test writes the feeder's values into
    ``feeder.performance`` in place, since the barrier gathers from the
    federation's ring, and calls the federation's ``exchange()`` to
    write and latch the slots, right after it, since the federation's
    ``step()`` steps the feeder too.  A test steps ``fed`` through the
    federation's ``step()``, which runs the tail of its node rule.
    """
    feeder = FederateState(make_topology([], len(consumers), NetworkId.POWER))
    couplings = tuple(Coupling(NetworkId.WATER, node, NetworkId.POWER, k)
                      for k, node in enumerate(consumers))
    return (Federation([fed, feeder], InterdependencyMap(couplings=couplings)),
            feeder)


def sample_edges_from_pair_list(rng, n, m):
    """``generate_topology``'s edges by their definition: m pairs drawn
    from the list of all n(n-1) non-loop pairs in row-major order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(sorted(rng.sample(pairs, m)))


class ScalarFederate:
    """Pure-Python per-node re-evaluation of the update rule."""

    def __init__(self, edges, n, weights=(0.3, 0.4, 0.3), lag=1,
                 intrinsic=None, consumers=()):
        self.w_int, self.w_in, self.w_ext = weights
        self.n = n
        self.preds = [[] for _ in range(n)]
        for src, dst in edges:
            self.preds[dst].append(src)
        self.intrinsic = list(intrinsic or [1.0] * n)
        self.perf = list(self.intrinsic)
        self.down = [0] * n  # active disruptions per node
        self.hist = [list(self.perf) for _ in range(lag)]
        self.consumers = list(consumers)
        self.foreign = [1.0] * len(self.consumers)

    def step(self):
        old = self.hist[0]
        new = []
        for i in range(self.n):
            if self.preds[i]:
                m = sum(0.0 if self.down[j] else old[j]
                        for j in self.preds[i]) / len(self.preds[i])
            else:
                m = self.intrinsic[i]
            base = self.w_int * self.intrinsic[i] + self.w_in * m
            slots = [k for k, c in enumerate(self.consumers) if c == i]
            if slots:
                f = sum(self.foreign[k] for k in slots) / len(slots)
                p = base + self.w_ext * f
            else:
                p = base / (self.w_int + self.w_in)
            p = min(1.0, max(0.0, p))
            if self.down[i]:
                p = 0.0
            new.append(p)
        self.perf = new
        self.hist.pop(0)
        self.hist.append(list(new))

    def apply(self, nodes):
        for i in nodes:
            self.down[i] += 1

    def retract(self, nodes):
        for i in nodes:
            assert self.down[i] > 0, f"retract of node {i} that is not disrupted"
            self.down[i] -= 1


def scenario_lockstep_inputs(config):
    """``lockstep_series`` networks and wiring of a scenario's federation.

    Only the inputs come from the package (topologies, couplings, the
    weights and lags of the scenario); the dynamics are re-evaluated by
    the scalar federates.
    """
    topologies = wiring(config)[0]
    couplings = generate_interdependencies(
        topologies, config.couplings_per_node, config.master_seed).couplings
    nets = {spec.id: (t.edges, t.node_count, spec.lag, spec.weights,
                              t.intrinsic_performance)
            for spec, t in zip(config.networks, topologies)}
    return nets, [tuple(c) for c in couplings]


def lockstep_series(nets, wiring, tg, horizon, events):
    """MoP series of scalar federates advanced by hand under the barrier.

    ``nets`` maps a network id to (edges, node count, lag, weights,
    intrinsic levels); ``wiring``
    lists (consumer network, consumer node, producer network, producer
    node), one entry per foreign slot in slot order; ``events`` lists
    (apply time, retract time, network, nodes).  Every timestep delivers
    retractions, then applications, steps every federate and records
    its MoP; at multiples of ``tg``, and once before the first step,
    every consumer slot takes the producer's value read before any slot
    is written.
    """
    refs = {net: ScalarFederate(edges, n, weights=weights, lag=lag, intrinsic=intrinsic,
                                consumers=[w[1] for w in wiring if w[0] == net])
            for net, (edges, n, lag, weights, intrinsic) in nets.items()}
    sources = {net: [(w[2], w[3]) for w in wiring if w[0] == net] for net in nets}
    baselines = {net: sum(refs[net].perf) for net in nets}

    def barrier():
        snapshot = {net: list(refs[net].perf) for net in nets}
        for net in nets:
            refs[net].foreign = [snapshot[pn][pnode] for pn, pnode in sources[net]]

    series = {net: [100.0] for net in nets}
    barrier()
    for t in range(1, horizon + 1):
        for apply_t, retract_t, net, nodes in events:
            if t == retract_t:
                refs[net].retract(nodes)
        for apply_t, retract_t, net, nodes in events:
            if t == apply_t:
                refs[net].apply(nodes)
        for net in nets:
            refs[net].step()
            series[net].append(100.0 * sum(refs[net].perf) / baselines[net])
        if t % tg == 0:
            barrier()
    return series


def trace_csv(trace):
    """A trace's CSV text formatted row by row and value by value."""
    cols = [n for n in NETWORK_ORDER if n in trace.series]
    lines = ["t," + ",".join(f"mop_{n.value}" for n in cols)]
    for t in range(trace.horizon + 1):
        row = ",".join(f"{trace.series[n][t]:.6f}" for n in cols)
        lines.append(f"{t},{row}")
    return "\n".join(lines) + "\n"


def slot_grid(sizes, couplings, entry, pad):
    """The barrier's slot grid built by one pass over the couplings.

    ``sizes`` maps each network of a federation to its node count;
    couplings are (consumer network, consumer node, producer network,
    producer node).  K is the most couplings on any node.  Returns each
    network's block of the grid as K rows of one entry per node: entry
    (j, i) is ``entry(c)`` for node i's j-th coupling c in map order,
    and ``pad`` once node i has no more couplings.
    """
    columns = {net: [[] for _ in range(n)] for net, n in sizes.items()}
    for c in couplings:
        columns[c[0]][c[1]].append(entry(c))
    k = max((len(col) for cols in columns.values() for col in cols), default=0)
    return {net: [[col[j] if j < len(col) else pad for col in cols] for j in range(k)]
            for net, cols in columns.items()}


def barrier_index(sizes, couplings):
    """The barrier's grid index: ``slot_grid`` of flat producer indices.

    ``sizes`` lists the networks in network order, which lays their
    nodes end to end; a node's flat index is its network's offset plus
    its own.  Padding entries hold the node total.  Returns the grid's
    rows, the blocks of the networks side by side.
    """
    offsets, total = {}, 0
    for net, n in sizes.items():
        offsets[net] = total
        total += n
    blocks = slot_grid(sizes, couplings, lambda c: offsets[c[2]] + c[3], total)
    k = len(next(iter(blocks.values())))
    return [[p for net in sizes for p in blocks[net][j]] for j in range(k)]


def bincount_terms(federation, couplings):
    """Every node's step term as the barrier latched it from one flat
    slot vector: ``base + w_ext * bincount(consumers, slots) / divisor``.

    The slots are the couplings in map order, each holding its
    producer's current performance; the divisor is each node's number
    of couplings, at least 1.  Returns the terms of each network.
    """
    order, feds = federation.order, federation.federates
    counts = [feds[net].node_count for net in order]
    offsets = dict(zip(order, np.cumsum([0] + counts)))
    consumers = np.array([offsets[c[0]] + c[1] for c in couplings], dtype=np.intp)
    slots = [feds[c[2]].performance[c[3]] for c in couplings]
    sums = np.bincount(consumers, weights=slots, minlength=sum(counts))
    divisor = np.maximum(np.bincount(consumers, minlength=sum(counts)), 1.0)
    terms = np.divide(sums, divisor)
    terms *= np.repeat([feds[net].w_ext for net in order], counts)
    terms += np.concatenate([feds[net].base for net in order])
    return {net: terms[offsets[net]:offsets[net] + n] for net, n in zip(order, counts)}


def sequential_shares_oracle(columns, y):
    """Sequential sum-of-squares shares via QR orthogonal projection."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    ss_total = float(((y - y.mean()) ** 2).sum())
    X = np.ones((n, 1))
    prev = ss_total
    shares = []
    for col in columns:
        X = np.column_stack([X, col])
        Q, _ = np.linalg.qr(X)
        resid = y - Q @ (Q.T @ y)
        rss = float((resid ** 2).sum())
        shares.append((prev - rss) / ss_total)
        prev = rss
    return shares, prev / ss_total


def ols_normal_equations(x, y):
    """Closed-form simple regression: slope and intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


def penalized_loglik(beta, x, y, ridge):
    """Slope-penalized Bernoulli log-likelihood for visible ~ ratio."""
    beta = np.asarray(beta, dtype=float)
    eta = beta[0] + beta[1] * np.asarray(x)
    # log(sigma(eta)) written stably for saturated fits
    log_mu = -np.logaddexp(0.0, -eta)
    log_one_minus = -np.logaddexp(0.0, eta)
    ll = float(np.sum(np.where(y > 0.5, log_mu, log_one_minus)))
    return ll - 0.5 * ridge * float(beta[1] ** 2)


def logistic_newton(x, y, ridge, max_iter):
    """The slope-penalized logistic fit of y on x by generic Newton/IRLS
    steps on the design ``[1, x]``, each solving the full Hessian system.

    Returns the intercept, the slope and the final gradient norm."""
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    grad_norm = np.inf
    penalty = np.array([0.0, ridge])
    for _ in range(max_iter):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu) - penalty * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-10:
            break
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        hess = (X * w[:, None]).T @ X + np.diag(penalty)
        beta = beta + np.linalg.solve(hess, grad)
    return float(beta[0]), float(beta[1]), grad_norm
