"""What one request's rule search costs, per rule match.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/search_probe.py --policies fixtures/policies \\
        --graph fixtures/graphs/demo_graph.json --request fixtures/requests/access_data_object.xml
    PYTHONPATH=src python tests/search_probe.py --policies fixtures/policies \\
        --source fixtures/graphs/demo_source.json --request fixtures/requests/access_data_object.xml

Builds an engine the way ``graphpdp eval`` does (see
``tests/memory_probe.py``) and parses the request.  It then prints:

- ``rule matches`` and ``filter calls``: the rule matches that one
  decision of the request draws from ``match_plan`` and the calls it makes
  to ``eval_filter``, both counted by wrapping those functions;
- ``walked matches``: the matches that full walks of every rule plan
  yield;
- ``walk_us/match``: the median over ``--repeats`` full walks of every
  rule plan (no ``prefer``, the engine's cap) of their summed wall time,
  over the matches those walks yield;
- ``decide_us``: the median wall time of a whole decision, parse and
  render excluded;
- ``blocks/match``: the ``sys.getallocatedblocks()`` that the matches of
  those full walks hold while they are all kept in lists, over their
  number; a warm-up walk runs first, so the count repeats exactly from
  run to run.

Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

from memory_probe import set_up

from graphpdp import path_matcher, pdp
from graphpdp.pdp import compile_rule
from graphpdp.request_model import parse_request


def rule_plans(engine) -> list:
    """Every rule plan of the engine's policies, in policy and rule order;
    a rule without a pattern has none."""
    return [
        plan
        for policy in engine.policies
        for plan in map(compile_rule, policy.rules)
        if plan is not None
    ]


def counted_decision(engine, request) -> tuple[int, int]:
    """One decision with ``check_intersection``, ``match_plan`` and
    ``eval_filter`` wrapped: the matches drawn from the rule plans that
    the intersections are given, and the filter calls."""
    rule_plan_ids: set[int] = set()
    counts = [0, 0]
    intersect = pdp.check_intersection
    match_plan, eval_filter = path_matcher.match_plan, path_matcher.eval_filter

    def noting_rule_plans(graph, rule_plan, *args, **kwargs):
        rule_plan_ids.add(id(rule_plan))
        return intersect(graph, rule_plan, *args, **kwargs)

    def counting_matches(graph, plan, *args, **kwargs):
        for match in match_plan(graph, plan, *args, **kwargs):
            counts[0] += id(plan) in rule_plan_ids
            yield match

    def counting_filter(*args):
        counts[1] += 1
        return eval_filter(*args)

    pdp.check_intersection = noting_rule_plans
    path_matcher.match_plan, path_matcher.eval_filter = counting_matches, counting_filter
    try:
        engine.decide(request)
    finally:
        pdp.check_intersection = intersect
        path_matcher.match_plan, path_matcher.eval_filter = match_plan, eval_filter
    return counts[0], counts[1]


def walk_all(engine, plans) -> int:
    count = 0
    for plan in plans:
        for _ in path_matcher.match_plan(engine.graph, plan, engine.varlen_cap):
            count += 1
    return count


def held_blocks(engine, plans) -> int:
    """The blocks that every match of the full walks holds, all kept."""
    gc.collect()
    before = sys.getallocatedblocks()
    held = [list(path_matcher.match_plan(engine.graph, p, engine.varlen_cap)) for p in plans]
    gc.collect()
    blocks = sys.getallocatedblocks() - before
    del held
    return blocks


def probe(engine, request, repeats: int) -> str:
    plans = rule_plans(engine)
    rule_matches, filter_calls = counted_decision(engine, request)
    walked = walk_all(engine, plans)  # also the warm-up walk
    walks = []
    for _ in range(repeats):
        start = perf_counter()
        walk_all(engine, plans)
        walks.append(perf_counter() - start)
    decisions = []
    for _ in range(repeats):
        start = perf_counter()
        engine.decide(request)
        decisions.append(perf_counter() - start)
    blocks = held_blocks(engine, plans)
    per_match = statistics.median(walks) / walked * 1e6 if walked else float("nan")
    rows = [
        ("rule matches", f"{rule_matches}"),
        ("filter calls", f"{filter_calls}"),
        ("walked matches", f"{walked}"),
        ("walk_us/match", f"{per_match:.3f}"),
        ("decide_us", f"{statistics.median(decisions) * 1e6:.1f}"),
        ("blocks/match", f"{blocks / walked:.3f}" if walked else "-"),
    ]
    return "\n".join(f"{name:<16}{value:>14}" for name, value in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policies", required=True, type=Path)
    graphs = parser.add_mutually_exclusive_group(required=True)
    graphs.add_argument("--graph", type=Path)
    graphs.add_argument("--source", type=Path)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--request", required=True, type=Path)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    engine = set_up(args.policies, args.graph or args.source, args.source is not None,
                    args.format)
    request = parse_request(args.request.read_text(encoding="utf-8"))
    print(probe(engine, request, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
