"""Spans around granusim's layer boundaries, recorded from outside.

``Tracer`` replaces the listed functions and methods on the granusim
modules and classes with timing wrappers while it is entered, and puts
the originals back on exit.  Nothing under ``src/`` changes.  A span is
(name, start_ns, end_ns, parent index, run id); spans inside one
``experiment.run_single`` call share its run id, spans outside any run
have run id 0.  Spans stay in memory until the caller summarises or
writes them.

After every ``experiment.run_single`` call, and after any exchange that
ends more than PROBE_GAP_NS after the last probe, the tracer runs the
speed probe (speed.py), so every run has a probe on either side and long
runs have more inside.  Probe time is taken out of the busy and self
time of the spans around it.
"""

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import speed

RUN_SPAN = "experiment.run_single"
EXCHANGE_SPAN = "coordinator.exchange"
PROBE_GAP_NS = 50_000_000


def _values_moved(args, _result):
    """Foreign-input slots one exchange writes: every coupling slot."""
    return sum(fed.foreign_inputs.size for fed in args[0].federates.values())


def _bytes(_args, result):
    return len(result)


# (module, attribute) -> (span name, optional (counter name, count function)).
LAYERS = {
    ("topology", "generate_topology"): ("topology.generate", None),
    ("topology", "generate_interdependencies"): ("topology.generate", None),
    ("experiment", "build_federation"): ("experiment.build_federation", None),
    ("experiment", "run_single"): (RUN_SPAN, None),
    ("disruption", "fixed_pattern"): ("disruption.fixed_pattern", None),
    ("coordinator", "_deliver"): ("disruption.deliver", None),
    ("federate", "FederateState.step"): ("federate.step", None),
    ("federate", "FederateState.apply_disruption"): ("federate.apply_disruption", None),
    ("federate", "FederateState.retract_disruption"): ("federate.retract_disruption", None),
    ("coordinator", "Federation.exchange"): (
        EXCHANGE_SPAN, ("coordinator.exchange.values_moved", _values_moved)),
    ("coordinator", "run"): ("coordinator.run", None),
    ("metrics", "compute_spds"): ("metrics.extract", None),
    ("metrics", "compute_sprt"): ("metrics.extract", None),
    ("metrics", "classify_visibility"): ("metrics.extract", None),
    ("metrics", "MoPTrace.to_csv"): ("metrics.to_csv", ("metrics.to_csv.bytes", _bytes)),
    ("analysis", "load_results"): ("analysis.load_results", None),
    ("analysis", "analysis_report"): ("analysis.analysis_report", None),
    ("analysis", "fit_visibility_logistic"): ("analysis.fit_visibility_logistic", None),
    ("cli", "main"): ("cli.main", None),
}

#: Span names in report order.
LAYER_NAMES = tuple(dict.fromkeys(name for name, _ in LAYERS.values()))

#: Only the per-run timer and the probe points, for the untraced measurement.
UNTRACED = {("experiment", "run_single"): (RUN_SPAN, None),
            ("coordinator", "Federation.exchange"): (EXCHANGE_SPAN, None)}


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._run = 0
        self._runs = 0
        self._undo = []
        self.probes = speed.Probes()
        self._probe_owner = []

    def probe(self, owner=-1):
        """Take a probe mark, owned by the span index ``owner``."""
        self.probes.take()
        self._probe_owner.append(owner)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "granusim" or name.startswith("granusim.")]
        for (module, attr), (name, counter) in self.layers.items():
            owner = importlib.import_module(f"granusim.{module}")
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr], counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            # Modules that imported the function by name hold their own reference.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            setattr(*self._undo.pop())

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer_run = self._run
            if name == RUN_SPAN:
                self._runs += 1
                self._run = self._runs
            run_id = self._run
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._run = outer_run
                spans[index] = (name, start, end, parent, run_id)
            counts[name + ".calls"] += 1
            if counter:
                counts[counter[0]] += counter[1](args, result)
            if name == RUN_SPAN or (name == EXCHANGE_SPAN and
                                    end - self.probes.marks[-1][1] > PROBE_GAP_NS):
                self.probe(parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def intervals(self, name):
        """(start_ns, end_ns) of every span with this name."""
        return [(s[1], s[2]) for s in self.spans if s[0] == name]

    def summary(self):
        """Per span name: busy and self time, and the busy time of root
        spans, in seconds of this tracer, without probe time."""
        child_ns, probe_ns = defaultdict(int), defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            child_ns[parent] += end - start
        for (start, end), owner in zip(self.probes.marks, self._probe_owner):
            child_ns[owner] += end - start
            while owner >= 0:
                probe_ns[owner] += end - start
                owner = self.spans[owner][3]
        busy, own = Counter(), Counter()
        root = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            busy[name] += end - start - probe_ns[index]
            own[name] += end - start - child_ns[index]
            if parent < 0:
                root += end - start - probe_ns[index]
        return ({k: v / 1e9 for k, v in busy.items()},
                {k: v / 1e9 for k, v in own.items()}, root / 1e9)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run\n")
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{index},{name},{start},{end},{parent},{run}\n")
