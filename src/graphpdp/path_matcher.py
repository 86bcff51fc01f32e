"""Evaluate query plans directly against an in-memory property graph.

This is the native stand-in for running the emitted intersection query on
a Cypher engine: enumerate rule-pattern matches and request-path matches
as trails (edge-distinct walks, vertex repetition allowed), then test
whether some request match is element-wise contained in some rule match
that passes the filter.

Enumeration is depth-first and deterministic: candidates are considered
in element-id order at every branch, so two runs over the same snapshot
yield the same stream.  The one exception is the choice of first vertex:
a caller may name vertices to start from first.  The intersection test
starts from the request's own vertices, so a rule match anchored at the
request's subject is found before the trails of every other candidate
are walked.  One explicit-stack loop walks all steps of a plan; a
single-hop edge step is the exactly-one-hop case of a variable-length
walk.  The per-trail work is kept small by what the plan carries, built
once with it (see :class:`~graphpdp.pattern_compiler.QueryPlan`): one
element check per step, absent for steps that constrain nothing, the
constants of each segment (an edge step and the vertex step after it),
and the rule filter compiled into closures, with each comparison against
a literal specialised on that literal.  Every match of a plan binds the
same names, so the filter's errors are settled when the plan is built:
compiling stops at the first fault that eager, depth-first evaluation
would meet, and the filter raises that error on every call; any other
filter cannot raise.

A match is three plain values, ``(vertex_seq, edge_seq, names)``.
``names`` is the dict of what the steps before the last segment bind,
built once per prefix and shared by every match that extends it, so a
match in the last segment costs one tuple and no dict.  The last vertex
step's element is the last of ``vertex_seq``, and a single-hop last edge
step's the last of ``edge_seq``; the plan's ``locations`` say where each
name sits, the compiled filter reads each name there, and
:func:`match_names` rebuilds the whole name -> element mapping where it
is wanted.

Each rule match costs the intersection test one filter call and a
containment test, and both are kept cheap.  A filter that reads one name
and cannot fail keeps its result per element for the test, so a
repeated element costs a lookup; every rule match is still filtered,
once, before its containment test.  When the request has one match,
that test first looks in the rule match for a pivot, the request
match's first edge, or its only vertex, and compares element by element
only when it is there.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from .graph_store import PropertyGraph
from .pattern_compiler import (
    ElementCheck,
    Evaluator,
    Location,
    Match,
    QueryPlan,
    VertexStep,
    _equality_pins,
)

DEFAULT_VARLEN_CAP = 8


def _start_groups(
    graph: PropertyGraph,
    step: VertexStep,
    check: ElementCheck | None,
    prefer: AbstractSet[str],
) -> Iterator[list[str]]:
    """The first step's candidates, checked and sorted: those in ``prefer``
    first, then the rest, which is listed, checked and sorted only when
    asked for.  Indexes narrow before the full per-vertex check."""
    if step.pinned:
        name, value = step.pinned[0]
        pool = graph.vertices_with_property(name, value)
    elif step.label is not None:
        pool = graph.vertices_with_label(step.label)
    else:
        entries = _equality_pins(step.constraints)
        if entries:
            name, value = entries[0]
            pool = graph.vertices_with_property(name, value)
        else:
            pool = None  # every vertex
    vertex = graph.vertex

    def checked(vids: Iterable[str]) -> list[str]:
        if check is None:
            return sorted(vids)
        return sorted([v for v in vids if check(vertex(v))])

    if prefer:
        yield checked(filter(graph.has_vertex, prefer) if pool is None else prefer & pool)
    if pool is None:
        pool = graph.vertex_ids()
    yield checked([v for v in pool if v not in prefer] if prefer else pool)


def match_plan(
    graph: PropertyGraph,
    plan: QueryPlan,
    varlen_cap: int = DEFAULT_VARLEN_CAP,
    prefer: AbstractSet[str] = frozenset(),
) -> Iterator[Match]:
    """Yield every trail match of the plan as ``(vertex_seq, edge_seq,
    names)``.

    ``names`` holds what the steps before the last segment bind, and is
    the one dict shared by every match that extends that prefix; the last
    segment's names are read from the sequences, where
    ``plan.locations`` says (see :func:`match_names`).  In a one-vertex
    plan it is one empty dict shared by every match.

    Variable-length steps with no upper bound stop at ``varlen_cap`` hops;
    intermediate vertices of such segments are unconstrained, matching
    the Cypher reading of ``-[*m..n]-``.

    Trails from the first-step candidates in ``prefer`` come first, then
    those from the other candidates; each group is in depth-first,
    element-id order, so with no ``prefer`` the whole stream is.
    """
    steps = plan.steps
    if not steps:
        return
    first = steps[0]
    assert isinstance(first, VertexStep)
    groups = _start_groups(graph, first, plan.checks[0], prefer)
    first_binding = first.binding
    segments = plan.segments
    if not segments:
        names: dict[str, str] = {}
        for starts in groups:
            for vid in starts:
                yield (vid,), (), names
        return
    edge, vertex, hops = graph.edge, graph.vertex, graph.hops

    # Depth-first over (segment, trail, hops into the segment, names),
    # seeded with one group of starts at a time.  A popped trail yields or
    # continues itself before any of its extensions: its extensions are
    # pushed in reverse, so they pop in hop order, and its continuation
    # into the next segment goes on top.  Extensions that end the segment
    # are completed where they are made, in hop order; in the last segment
    # each is yielded as it is made, with its trail's names.
    stack: list[tuple] = []
    pop, push, extend = stack.pop, stack.append, stack.extend
    for starts in groups:
        extend([(0, (vid,), (), 0, {first_binding: vid}) for vid in reversed(starts)])
        while stack:
            k, vseq, eseq, depth, names = pop()
            (min_len, max_len, direction, edge_ok, vertex_ok,
             vertex_binding, edge_binding, last) = segments[k]
            if max_len is None:
                max_len = varlen_cap
            current = vseq[-1]
            # only extensions bind the edge: a single-hop segment ends at
            # its extensions, never at a popped trail
            completed = None
            if depth >= min_len and (vertex_ok is None or vertex_ok(vertex(current))):
                if last:
                    yield vseq, eseq, names
                else:
                    completed = {**names, vertex_binding: current}
            if depth < max_len:
                depth += 1
                if depth < max_len:
                    extend(reversed([
                        (k, vseq + (nvid,), eseq + (eid,), depth, names)
                        for eid, nvid in hops(current, direction)
                        if eid not in eseq and (edge_ok is None or edge_ok(edge(eid)))
                    ]))
                elif depth >= min_len:
                    # the extensions end the segment: complete them now
                    if last:
                        for eid, nvid in hops(current, direction):
                            if (eid not in eseq
                                    and (edge_ok is None or edge_ok(edge(eid)))
                                    and (vertex_ok is None or vertex_ok(vertex(nvid)))):
                                yield vseq + (nvid,), eseq + (eid,), names
                    else:
                        extend(reversed([
                            (k + 1, vseq + (nvid,), eseq + (eid,), 0,
                             {**names, vertex_binding: nvid} if edge_binding is None
                             else {**names, vertex_binding: nvid, edge_binding: eid})
                            for eid, nvid in hops(current, direction)
                            if eid not in eseq
                            and (edge_ok is None or edge_ok(edge(eid)))
                            and (vertex_ok is None or vertex_ok(vertex(nvid)))
                        ]))
            if completed is not None:
                push((k + 1, vseq, eseq, 0, completed))


def match_names(plan: QueryPlan, match: Match) -> dict[str, str]:
    """Every name a match of ``plan`` binds, generated ones included,
    mapped to its element id: the prefix's names from ``names``, the
    last segment's from the sequences."""
    return {name: match[slot][key] for name, (slot, key) in plan.locations.items()}


# -- filter evaluation -----------------------------------------------------


def eval_filter(match: Match, evaluate: Evaluator, graph: PropertyGraph) -> bool:
    """Evaluate a plan's compiled rule filter on one of its matches.

    A filter the plan could not compile raises its first fault's error on
    every call: :class:`FilterEvalError` for a name read that the match
    does not bind or binds as the other kind of element, a wrong argument
    count, a zero-argument logical or a node of no known kind, and
    :class:`UnknownFunctionError` for an unknown function; both become
    Indeterminate in the decision pipeline.
    An absent property is not an error — comparisons over it are simply
    false.
    """
    return evaluate(match, graph)


def _per_element(evaluate: Evaluator, location: Location) -> Evaluator:
    """``evaluate``, a filter that reads only the name at ``location`` and
    cannot fail, keeping its result per element bound there: over a
    graph that does not change, it is a function of that element."""
    slot, key = location
    memo: dict[str, bool] = {}
    get = memo.get

    def memoised(match, graph):
        element = match[slot][key]
        result = get(element)
        if result is None:
            result = memo[element] = evaluate(match, graph)
        return result

    return memoised


# -- intersection ----------------------------------------------------------


def check_intersection(
    graph: PropertyGraph,
    rule_plan: QueryPlan,
    request_plan: QueryPlan,
    varlen_cap: int = DEFAULT_VARLEN_CAP,
) -> bool:
    """True iff some request match is contained in some filter-passing
    rule match (vertex and edge sets, by element id).

    Rule trails from the request's own vertices are walked first: the
    answer is an existence test, so the order changes only how soon it is
    found.  Every rule match is filtered, then tested for containment.  A
    filter that reads one name and cannot fail keeps its result per
    element for the search.  When there is one request match, the
    containment test first looks in the rule match for a pivot, that
    match's first edge, or its only vertex.
    """
    requests = [
        (vertices, edges) for vertices, edges, _ in match_plan(graph, request_plan, varlen_cap)
    ]
    if not requests:
        return False
    if len(requests) == 1:
        # the pivot, an element the request match contains: its first
        # edge, else its only vertex
        ((vertices, edges),) = requests
        prefer = set(vertices)
        on_edge, pivot = (True, edges[0]) if edges else (False, vertices[0])
    else:
        prefer = {vid for vertices, _ in requests for vid in vertices}
        pivot = None
    evaluate = None
    if rule_plan.compiled_filter is not None:
        evaluate, location = rule_plan.compiled_filter
        if location is not None:
            evaluate = _per_element(evaluate, location)
    for match in match_plan(graph, rule_plan, varlen_cap, prefer=prefer):
        if evaluate is not None and not eval_filter(match, evaluate, graph):
            continue
        vertex_seq, edge_seq, _ = match
        if pivot is not None and pivot not in (edge_seq if on_edge else vertex_seq):
            continue
        in_vertices, in_edges = vertex_seq.__contains__, edge_seq.__contains__
        for vertices, edges in requests:
            if all(map(in_vertices, vertices)) and all(map(in_edges, edges)):
                return True
    return False
