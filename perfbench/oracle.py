"""Independent reference model of granusim's outputs.

Written from the model's definition (README and module docstrings), not
from the package, and sharing no code with it.  It draws topologies,
couplings and disruption patterns from the same labelled seed streams,
then simulates every run of a design at once as one (runs x nodes) array
program per network.  Its sums run in another order than the package's,
so its numbers agree within rounding, not bit for bit; the comparison
contract in check.py allows for that.
"""

import csv
import hashlib
import json
import math
import random

import numpy as np

NETWORK_ORDER = ("water", "power", "business")
VISIBLE_PCT = 5.0
RECOVERED_PCT = 99.0
LOGISTIC_RIDGE = 1e-6


def _stream(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _edges(name, n, m, seed):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return sorted(_stream(seed, f"topology:{name}").sample(pairs, m))


def _couplings(nets, per_node, seed):
    """Per consumer network: the (producer network, producer node) of
    each foreign slot and the local node it feeds, in slot order."""
    rng = _stream(seed, "interdependency")
    slots = {net["id"]: [] for net in nets}
    for consumer in nets:
        for a in range(consumer["nodes"]):
            for producer in nets:
                if producer["id"] == consumer["id"]:
                    continue
                draws = [a % producer["nodes"]] + [
                    rng.randrange(producer["nodes"]) for _ in range(per_node - 1)]
                slots[consumer["id"]] += [(producer["id"], p, a) for p in draws]
    return slots


def pattern(scenario, ds):
    origin = next(n for n in scenario["networks"] if n["id"] == scenario["origin"])
    rng = _stream(scenario["master_seed"], f"pattern:{ds}")
    return tuple(sorted(rng.sample(range(origin["nodes"]), ds)))


def pattern_hash(nodes):
    return hashlib.sha256(json.dumps(list(nodes)).encode()).hexdigest()[:12]


def onset(scenario, tg):
    t0 = scenario["warmup"] + 1
    if scenario.get("align_sync") and t0 % tg:
        t0 += tg - t0 % tg
    return t0


def simulate(scenario, configs):
    """MoP series of every run: {network: array (runs, horizon + 1)}.

    ``configs`` is a list of (tg, rt, ds).  Intrinsic performance is 1
    on every node, so each baseline is the node count.
    """
    seed, horizon = scenario["master_seed"], scenario["horizon"]
    nets = sorted(scenario["networks"], key=lambda n: NETWORK_ORDER.index(n["id"]))
    runs = len(configs)
    tg = np.array([c[0] for c in configs])
    starts = np.array([onset(scenario, c[0]) for c in configs])
    ends = starts + np.array([c[1] for c in configs])
    slots = _couplings(scenario["networks"], scenario.get("couplings_per_node", 1), seed)

    # Column of each network's first node in the concatenated state.
    offset = dict(zip([n["id"] for n in nets],
                      np.cumsum([0] + [n["nodes"] for n in nets])))
    state = {}
    for net in nets:
        n, name = net["nodes"], net["id"]
        adj = np.zeros((n, n))
        for src, dst in _edges(name, n, net["edges"], seed):
            adj[src, dst] = 1.0
        feed = np.zeros((len(slots[name]), n))
        feed[np.arange(len(slots[name])), [s[2] for s in slots[name]]] = 1.0
        hit = np.zeros((runs, n), dtype=bool)
        if name == scenario["origin"]:
            for r, (_, _, ds) in enumerate(configs):
                hit[r, list(pattern(scenario, ds))] = True
        state[name] = {
            "n": n, "adj": adj, "deg": adj.sum(axis=0), "feed": feed,
            "count": feed.sum(axis=0), "hit": hit,
            "gather": np.array([offset[p] + node for p, node, _ in slots[name]], dtype=int),
            "w": tuple(net.get("weights", (0.3, 0.4, 0.3))),
            "lag": net.get("lag", 1),
            "hist": [np.ones((runs, n))],
            "foreign": np.ones((runs, len(slots[name]))),
            "series": np.empty((runs, horizon + 1)),
        }
        state[name]["series"][:, 0] = 100.0

    for t in range(1, horizon + 1):
        down_now = (starts <= t) & (t < ends)
        for net in nets:
            s = state[net["id"]]
            w_int, w_in, w_ext = s["w"]
            down = s["hit"] & down_now[:, None]
            lagged = s["hist"][max(len(s["hist"]) - s["lag"], 0)]
            in_sum = np.where(down, 0.0, lagged) @ s["adj"]
            in_mean = np.where(s["deg"] > 0, in_sum / np.maximum(s["deg"], 1.0), 1.0)
            base = w_int + w_in * in_mean
            coupled = s["count"] > 0
            foreign = (s["foreign"] @ s["feed"]) / np.where(coupled, s["count"], 1.0)
            p = np.where(coupled, base + w_ext * foreign, base / (w_int + w_in))
            p = np.where(down, 0.0, np.clip(p, 0.0, 1.0))
            s["hist"] = (s["hist"] + [p])[-s["lag"]:]
            s["series"][:, t] = 100.0 * p.sum(axis=1) / s["n"]
        sync = t % tg == 0
        if sync.any():
            flat = np.concatenate([state[net["id"]]["hist"][-1] for net in nets], axis=1)
            for net in nets:
                s = state[net["id"]]
                s["foreign"] = np.where(sync[:, None], flat[:, s["gather"]], s["foreign"])
    return {name: s["series"] for name, s in state.items()}


def outcomes(scenario, configs, series):
    """(spds_pct, sprt_steps or None, visible) of every run."""
    target = series[scenario["target"]]
    rows = []
    for r, (tg, rt, _) in enumerate(configs):
        t0 = onset(scenario, tg)
        spds = 100.0 - float(target[r, t0:].min())
        recovered = np.nonzero(target[r, t0 + rt:] >= RECOVERED_PCT)[0]
        sprt = int(recovered[0]) if len(recovered) else None
        rows.append((spds, sprt, spds > VISIBLE_PCT))
    return rows


def factorial_layout(tg_levels, rt_levels, ds_levels):
    return [(tg, rt, ds) for ds in ds_levels for rt in rt_levels for tg in tg_levels]


# -- analysis ------------------------------------------------------------

def read_results(path):
    """Numeric columns of the ok rows of a results CSV."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
    col = {k: np.array([float(r[k]) for r in rows]) for k in ("tg", "rt", "ds")}
    col["spds"] = np.array([float(r["spds_pct"]) for r in rows])
    col["sprt"] = np.array([float(r["sprt_steps"] or "nan") for r in rows])
    col["visible"] = np.array([r["visible"] == "true" for r in rows], dtype=float)
    return col


def _shares(columns, y):
    """Sequential sums of squares by orthogonal projection, as shares."""
    total = float(((y - y.mean()) ** 2).sum())
    X = np.ones((len(y), 1))
    prev, shares = total, []
    for c in columns:
        X = np.column_stack([X, c])
        q, _ = np.linalg.qr(X)
        rss = float(((y - q @ (q.T @ y)) ** 2).sum())
        shares.append((prev - rss) / total)
        prev = rss
    return shares, prev / total


def _share_block(names, columns, y):
    shares, resid = _shares(columns, y)
    return {"terms": dict(zip(names, shares)), "residual": resid}


def _logistic(x, y):
    """Ridge-penalised (slope only) logistic MLE, Newton to convergence."""
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    pen = np.array([0.0, LOGISTIC_RIDGE])
    for _ in range(100):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu) - pen * beta
        hess = X.T @ (X * (mu * (1.0 - mu))[:, None]) + np.diag(pen)
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-15 * max(1.0, np.abs(beta).max()):
            break
    return float(beta[0]), float(beta[1])


def report(col):
    """The analysis report of a results table, keyed as the package keys it."""
    terms = ("tg", "rt", "ds", "tg:rt", "tg:ds", "rt:ds")

    def design(c):
        return [np.prod([c[f] for f in term.split(":")], axis=0) for term in terms]

    keep = ~np.isnan(col["sprt"])
    sub = {k: v[keep] for k, v in col.items()}
    x, y = sub["rt"] / sub["tg"], sub["sprt"] / sub["tg"]
    out = {
        "variance_shares_spds": _share_block(terms, design(col), col["spds"]),
        "variance_shares_sprt": _share_block(terms, design(sub), sub["sprt"]),
        "variance_shares_sprt_over_tg": _share_block(
            ("rt_over_tg", "ds", "tg"), (x, sub["ds"], sub["tg"]), y),
    }
    b0, b1 = _logistic(col["rt"] / col["tg"], col["visible"])
    half = -b0 / b1
    out["visibility_logistic"] = {
        "intercept": b0, "slope": b1, "ratio_at_half_likelihood": half,
        "granularity_over_rt_bound": 1.0 / half if half > 0 else None}
    (c0, c1), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), y, rcond=None)
    resid = y - (c0 + c1 * x)
    out["ratio_linear"] = {
        "intercept": float(c0), "slope": float(c1),
        "r_squared": 1.0 - float((resid ** 2).sum()) / float(((y - y.mean()) ** 2).sum())}
    return out


def recommend(col, expected_rt, target_p=0.5):
    b0, b1 = _logistic(col["rt"] / col["tg"], col["visible"])
    ratio = (math.log(target_p / (1.0 - target_p)) - b0) / b1
    return max(1, math.floor(expected_rt / ratio + 1e-9))
