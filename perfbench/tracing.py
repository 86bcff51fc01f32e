"""Outside-in tracing of the decision engine for the benchmark.

:class:`Tracer` swaps wrappers into the module and class attributes the
engine looks up at call time, so no source file changes.  Each wrapped
call becomes a span (name, start, end, parent span, decision id) kept in
memory and written out when the run ends.  Calls made thousands of times
per decision (``eval_filter`` and each step of the ``match_plan``
generator) are folded into one record per parent span holding their
count and summed time, which keeps memory and overhead bounded.

A span's self time is its duration minus the time its children cover;
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (owner, attribute, span name); owners are resolved from the modules
# passed to Tracer.install.
CALL_POINTS = (
    ("request_model", "parse_request", "request_model.parse"),
    ("cli", "parse_request", "request_model.parse"),
    ("pdp", "evaluate_request", "pdp.evaluate"),
    ("pdp", "compile_request_path", "pattern_compiler.compile_request"),
    ("pdp", "match_target", "pdp.target"),
    ("pdp", "combine", "pdp.combine"),
    ("pdp", "render_response_xml", "pdp.render"),
    ("cli", "render_response_xml", "pdp.render"),
    ("policy_model", "load_policy_dir", "policy_model.load"),
    ("graph_store", "load_graph_path", "graph_store.load"),
    ("graph_store", "build_source_subset", "graph_store.subset"),
    ("graph_store.PropertyGraph", "snapshot", "graph_store.snapshot"),
    ("cli.DecisionHandler", "do_POST", "cli.handler"),
)

REQUEST_MATCH = "path_matcher.request_match"
RULE_MATCH = "path_matcher.rule_match"
FILTER = "path_matcher.filter"
INTERSECT = "path_matcher.intersect"


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, decision, parent, start, end)
        # (parent id, name) -> [decision, count, seconds, passes]
        self.folded: dict[tuple, list] = {}
        # decision -> check_intersection calls that returned True
        self.applied: dict = defaultdict(int)
        self.decision = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, self.decision, parent, start, end))

    def _fold(self, name: str) -> list:
        stack = self._stack()
        key = (stack[-1] if stack else None, name)
        record = self.folded.get(key)
        if record is None:
            record = self.folded[key] = [self.decision, 0, 0.0, 0]
        return record

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _traced_intersection(self, fn):
        def traced(graph, rule_plan, request_plan, *args, **kwargs):
            self._local.request_plan = request_plan
            result = self.call(INTERSECT, fn, graph, rule_plan, request_plan, *args, **kwargs)
            if result:
                self.applied[self.decision] += 1
            return result

        return traced

    def _traced_match_plan(self, fn):
        clock = time.perf_counter

        def traced(graph, plan, *args, **kwargs):
            is_request = plan is getattr(self._local, "request_plan", None)
            record = self._fold(REQUEST_MATCH if is_request else RULE_MATCH)
            inner = fn(graph, plan, *args, **kwargs)

            def timed():
                # time spent inside the generator's next, one step at a time
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        record[2] += clock() - start
                        return
                    record[2] += clock() - start
                    record[1] += 1
                    yield item

            return timed()

        return traced

    def _traced_filter(self, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = self._fold(FILTER)
            start = clock()
            try:
                passed = fn(*args, **kwargs)
            finally:
                record[2] += clock() - start
                record[1] += 1
            if passed:
                record[3] += 1
            return passed

        return traced

    def install(self, modules: dict) -> None:
        """Swap the wrappers in; ``modules`` maps short names to modules."""

        def owner_of(path):
            head, *rest = path.split(".")
            owner = modules[head]
            for part in rest:
                owner = getattr(owner, part)
            return owner

        points = [(owner_of(o), attr, self._spanned(name, getattr(owner_of(o), attr)))
                  for o, attr, name in CALL_POINTS]
        pdp, path_matcher = modules["pdp"], modules["path_matcher"]
        points += [
            (pdp, "check_intersection", self._traced_intersection(pdp.check_intersection)),
            (path_matcher, "match_plan", self._traced_match_plan(path_matcher.match_plan)),
            (path_matcher, "eval_filter", self._traced_filter(path_matcher.eval_filter)),
        ]
        for owner, attr, wrapper in points:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, decision, parent, start, end in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "decision": decision,
                                      "parent": parent, "start": start, "end": end}) + "\n")
            for (parent, name), (decision, count, seconds, passes) in self.folded.items():
                out.write(json.dumps({"name": name, "decision": decision, "parent": parent,
                                      "count": count, "seconds": seconds,
                                      "passes": passes}) + "\n")


# -- analysis ---------------------------------------------------------------


def self_times(tracer: Tracer) -> dict:
    """decision -> layer name -> summed self seconds, plus folded counts.

    Folded records count as children of their parent span and as layers
    of their own.
    """
    covered: dict = defaultdict(float)
    for _, _, _, parent, start, end in tracer.spans:
        if parent is not None:
            covered[parent] += end - start
    for (parent, _), (_, _, seconds, _) in tracer.folded.items():
        if parent is not None:
            covered[parent] += seconds
    per_decision: dict = defaultdict(lambda: defaultdict(float))
    for sid, name, decision, _, start, end in tracer.spans:
        layers = per_decision[decision]
        layers[name] += end - start - covered[sid]
        layers[name + "#total"] += end - start
        layers[name + "#count"] += 1
    for (_, name), (decision, count, seconds, passes) in tracer.folded.items():
        layers = per_decision[decision]
        layers[name] += seconds
        layers[name + "#count"] += count
        layers[name + "#passes"] += passes
    return per_decision


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, decisions, http_decisions, setups, probes) -> dict:
    """Per-layer metrics from the spans of one traced run.

    ``decisions`` are the ids of traced in-process decisions (whole
    request cycles), ``http_decisions`` of traced ``POST /decision`` round
    trips, ``setups`` of traced engine set-ups, and ``probes`` of source
    filtering timed outside set-up.
    """
    per = self_times(tracer)

    def us(layer):
        return _median(per[d][layer] for d in decisions) * 1e6

    def per_decision(key):
        return sum(per[d][key] for d in decisions) / len(decisions)

    def ratio(num, den):
        return num / den if den else 0.0

    filter_calls = sum(per[d][FILTER + "#count"] for d in decisions)
    rule_matches = sum(per[d][RULE_MATCH + "#count"] for d in decisions)
    root_self = sum(per[d]["decide"] for d in decisions)
    root_total = sum(per[d]["decide#total"] for d in decisions)
    setup = {
        name: _median(per[s][name + "#total"] for s in setups)
        for name in ("policy_model.load", "graph_store.load", "graph_store.snapshot")
    }
    subset_runs = setups if per[setups[0]]["graph_store.subset#count"] else probes
    handler = {d: per[d]["cli.handler#total"] for d in http_decisions}
    return {
        "request_model.parse_us": (us("request_model.parse"), "us"),
        "pattern_compiler.compile_request_us": (us("pattern_compiler.compile_request"), "us"),
        "pdp.target_us": (us("pdp.target"), "us"),
        "pdp.targets_evaluated": (per_decision("pdp.target#count"), "count"),
        "pdp.combine_us": (us("pdp.combine"), "us"),
        "pdp.evaluate_self_us": (us("pdp.evaluate"), "us"),
        "pdp.render_us": (us("pdp.render"), "us"),
        "path_matcher.request_match_us": (us(REQUEST_MATCH), "us"),
        "path_matcher.request_matches": (per_decision(REQUEST_MATCH + "#count"), "count"),
        "path_matcher.rule_match_us": (us(RULE_MATCH), "us"),
        "path_matcher.rule_matches": (per_decision(RULE_MATCH + "#count"), "count"),
        "path_matcher.filter_us": (us(FILTER), "us"),
        "path_matcher.filter_calls": (per_decision(FILTER + "#count"), "count"),
        "path_matcher.filter_pass_ratio": (
            ratio(sum(per[d][FILTER + "#passes"] for d in decisions), filter_calls), "ratio"),
        "path_matcher.intersect_self_us": (us(INTERSECT), "us"),
        "path_matcher.useful_ratio": (
            ratio(sum(tracer.applied[d] for d in decisions), rule_matches), "ratio"),
        "graph_store.load_s": (setup["graph_store.load"], "s"),
        "graph_store.subset_s": (
            _median(per[s]["graph_store.subset#total"] for s in subset_runs), "s"),
        "graph_store.snapshot_s": (setup["graph_store.snapshot"], "s"),
        "pdp.engine_build_s": (_median(per[s]["pdp.engine_build"] for s in setups), "s"),
        "policy_model.load_s": (setup["policy_model.load"], "s"),
        "cli.handler_us": (_median(handler.values()) * 1e6, "us"),
        "cli.transport_us": (
            _median(per[d]["http#total"] - handler[d] for d in http_decisions) * 1e6, "us"),
        "trace.unattributed_share": (ratio(root_self, root_total), "ratio"),
    }
