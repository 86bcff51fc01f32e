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
a literal specialised on that literal.  The last segment yields each
binding where it builds it.  Every match of a plan binds the same names,
so the filter's errors are settled when the plan is built: compiling
stops at the first fault that eager, depth-first evaluation would meet,
and the filter raises that error on every call; any other filter
cannot raise.

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
from .pattern_compiler import ElementCheck, Evaluator, QueryPlan, VertexStep, _equality_pins

DEFAULT_VARLEN_CAP = 8


class PathBinding:
    """One concrete match: walked elements plus name -> element id."""

    __slots__ = ("vertex_seq", "edge_seq", "names")

    def __init__(
        self,
        vertex_seq: tuple[str, ...],
        edge_seq: tuple[str, ...] = (),
        names: tuple[tuple[str, str], ...] = (),
    ):
        self.vertex_seq = vertex_seq
        self.edge_seq = edge_seq
        self.names: dict[str, str] = dict(names)


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
) -> Iterator[PathBinding]:
    """Yield every trail binding satisfying the plan.

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
        for starts in groups:
            for vid in starts:
                yield PathBinding((vid,), (), ((first_binding, vid),))
        return
    edge, vertex, hops = graph.edge, graph.vertex, graph.hops
    # bindings are built in place, without ``__init__``, which would copy
    # the names
    new = object.__new__

    # Depth-first over (segment, trail, hops into the segment, names),
    # seeded with one group of starts at a time.  A popped trail yields or
    # continues itself before any of its extensions: its extensions are
    # pushed in reverse, so they pop in hop order, and its continuation
    # into the next segment goes on top.  Extensions that end the segment
    # are completed where they are made, in hop order; in the last segment
    # each is yielded as it is built.
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
                completed = {**names, vertex_binding: current}
                if last:
                    binding = new(PathBinding)
                    binding.vertex_seq, binding.edge_seq = vseq, eseq
                    binding.names = completed
                    yield binding
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
                                binding = new(PathBinding)
                                binding.vertex_seq = vseq + (nvid,)
                                binding.edge_seq = eseq + (eid,)
                                binding.names = (
                                    {**names, vertex_binding: nvid} if edge_binding is None
                                    else {**names, vertex_binding: nvid, edge_binding: eid})
                                yield binding
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
            if completed is not None and not last:
                push((k + 1, vseq, eseq, 0, completed))


# -- filter evaluation -----------------------------------------------------


def eval_filter(binding: PathBinding, evaluate: Evaluator, graph: PropertyGraph) -> bool:
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
    return evaluate(binding.names, graph)


def _per_element(evaluate: Evaluator, name: str) -> Evaluator:
    """``evaluate``, a filter that reads only ``name`` and cannot fail,
    keeping its result per element bound to ``name``: over a graph that
    does not change, it is a function of that element."""
    memo: dict[str, bool] = {}
    get = memo.get

    def memoised(names, graph):
        element = names[name]
        result = get(element)
        if result is None:
            result = memo[element] = evaluate(names, graph)
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
        (b.vertex_seq, b.edge_seq) for b in match_plan(graph, request_plan, varlen_cap)
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
        evaluate, name = rule_plan.compiled_filter
        if name is not None:
            evaluate = _per_element(evaluate, name)
    for rule_binding in match_plan(graph, rule_plan, varlen_cap, prefer=prefer):
        if evaluate is not None and not eval_filter(rule_binding, evaluate, graph):
            continue
        vertex_seq, edge_seq = rule_binding.vertex_seq, rule_binding.edge_seq
        if pivot is not None and pivot not in (edge_seq if on_edge else vertex_seq):
            continue
        in_vertices, in_edges = vertex_seq.__contains__, edge_seq.__contains__
        for vertices, edges in requests:
            if all(map(in_vertices, vertices)) and all(map(in_edges, edges)):
                return True
    return False
