"""Evaluate query plans directly against an in-memory property graph.

This is the native stand-in for running the emitted intersection query on
a Cypher engine: enumerate rule-pattern matches and request-path matches
as trails (edge-distinct walks, vertex repetition allowed), then test
whether some request match is element-wise contained in some rule match
that passes the filter.

Enumeration is depth-first and deterministic: candidates are considered
in element-id order at every branch, so two runs over the same snapshot
yield the same stream.  One explicit-stack loop walks all steps of a
plan; a single-hop edge step is the exactly-one-hop case of a
variable-length walk.  The per-trail work is kept small by what the plan
carries, built once with it (see
:class:`~graphpdp.pattern_compiler.QueryPlan`): one element check per
step, absent for steps that constrain nothing, the constants of each
segment (an edge step and the vertex step after it), and the rule filter
compiled into closures, with each comparison against a literal
specialised on that literal.  The compiled filter still raises
evaluation errors eagerly, exactly where a full depth-first evaluation
would.
"""

from __future__ import annotations

from typing import Iterator

from . import uris
from .graph_store import PropertyGraph
from .pattern_compiler import (
    CompiledFilter,
    ElementCheck,
    QueryPlan,
    VertexStep,
    compile_filter,
)
from .policy_model import ConditionExpr, ConstraintSet

DEFAULT_VARLEN_CAP = 8


class PathBinding:
    """One concrete match: walked elements plus name -> element id."""

    __slots__ = ("vertex_seq", "edge_seq", "names")

    def __init__(
        self,
        vertex_seq: tuple[str, ...],
        edge_seq: tuple[str, ...] = (),
        var_bindings: tuple[tuple[str, str], ...] = (),
    ):
        self.vertex_seq = vertex_seq
        self.edge_seq = edge_seq
        self.names: dict[str, str] = dict(var_bindings)

    @property
    def var_bindings(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.names.items()))

    def bound(self, name: str) -> str | None:
        return self.names.get(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathBinding):
            return NotImplemented
        return (
            self.vertex_seq == other.vertex_seq
            and self.edge_seq == other.edge_seq
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash((self.vertex_seq, self.edge_seq, self.var_bindings))

    def __repr__(self) -> str:
        return (
            f"PathBinding(vertex_seq={self.vertex_seq!r}, "
            f"edge_seq={self.edge_seq!r}, var_bindings={self.var_bindings!r})"
        )


def _binding(
    vertex_seq: tuple[str, ...], edge_seq: tuple[str, ...], names: dict[str, str]
) -> PathBinding:
    """A :class:`PathBinding` that takes ``names`` as it is, for the matcher's
    inner loop."""
    binding = object.__new__(PathBinding)
    binding.vertex_seq = vertex_seq
    binding.edge_seq = edge_seq
    binding.names = names
    return binding


def _map_entries(constraints: ConstraintSet) -> list[tuple[str, str]]:
    """Equality pins usable for index lookup (single conjunctive all-of)."""
    if len(constraints.any_of) != 1:
        return []
    return [
        (m.attribute_id, m.literal)
        for m in constraints.any_of[0]
        if m.match_function == uris.MATCH_STRING_EQUAL
    ]


def _vertex_candidates(
    graph: PropertyGraph, step: VertexStep, check: ElementCheck | None
) -> list[str]:
    """Narrow by index before the full per-vertex check."""
    if step.pinned:
        name, value = step.pinned[0]
        candidates = graph.vertices_with_property(name, value)
    elif step.label is not None:
        candidates = graph.vertices_with_label(step.label)
    else:
        entries = _map_entries(step.constraints)
        if entries:
            name, value = entries[0]
            candidates = graph.vertices_with_property(name, value)
        else:
            candidates = graph.vertex_ids()
    if check is None:
        return sorted(candidates)
    vertex = graph.vertex
    return sorted(v for v in candidates if check(vertex(v)))


def match_plan(
    graph: PropertyGraph, plan: QueryPlan, varlen_cap: int = DEFAULT_VARLEN_CAP
) -> Iterator[PathBinding]:
    """Yield every trail binding satisfying the plan.

    Variable-length steps with no upper bound stop at ``varlen_cap`` hops;
    intermediate vertices of such segments are unconstrained, matching
    the Cypher reading of ``-[*m..n]-``.
    """
    steps = plan.steps
    if not steps:
        return
    first = steps[0]
    assert isinstance(first, VertexStep)
    starts = _vertex_candidates(graph, first, plan.checks[0])
    segments = plan.segments
    if not segments:
        for vid in starts:
            yield _binding((vid,), (), {first.binding: vid})
        return
    edge, vertex, hops = graph.edge, graph.vertex, graph.hops

    # Depth-first over (segment, trail, hops into the segment, names).  A
    # popped trail yields or continues itself before any of its
    # extensions: its extensions are pushed in reverse, so they pop in hop
    # order, and its continuation into the next segment goes on top.
    # Extensions that end the segment are completed where they are made,
    # in hop order.
    stack = [(0, (vid,), (), 0, {first.binding: vid}) for vid in reversed(starts)]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        k, vseq, eseq, depth, names = pop()
        (min_len, max_len, direction, edge_ok, vertex_ok,
         vertex_binding, edge_binding, last) = segments[k]
        if max_len is None:
            max_len = varlen_cap
        current = vseq[-1]
        # only extensions bind the edge: a single-hop segment ends at its
        # extensions, never at a popped trail
        completed = None
        if depth >= min_len and (vertex_ok is None or vertex_ok(vertex(current))):
            completed = {**names, vertex_binding: current}
            if last:
                yield _binding(vseq, eseq, completed)
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
                ends = [
                    (k + 1, vseq + (nvid,), eseq + (eid,), 0,
                     {**names, vertex_binding: nvid} if edge_binding is None
                     else {**names, vertex_binding: nvid, edge_binding: eid})
                    for eid, nvid in hops(current, direction)
                    if eid not in eseq
                    and (edge_ok is None or edge_ok(edge(eid)))
                    and (vertex_ok is None or vertex_ok(vertex(nvid)))
                ]
                if last:
                    for _, end_vseq, end_eseq, _, end_names in ends:
                        yield _binding(end_vseq, end_eseq, end_names)
                else:
                    extend(reversed(ends))
        if completed is not None and not last:
            push((k + 1, vseq, eseq, 0, completed))


# -- filter evaluation -----------------------------------------------------


def eval_filter(
    binding: PathBinding,
    expr: ConditionExpr | CompiledFilter,
    graph: PropertyGraph,
) -> bool:
    """Evaluate the rule filter on one binding.

    ``expr`` is a condition tree or, as the matcher passes it, the plan's
    compiled filter.  Raises :class:`FilterEvalError` for unresolved
    references and lets :class:`UnknownFunctionError` escape; both become
    Indeterminate in the decision pipeline.  An absent property is not an
    error — comparisons over it are simply false.
    """
    if not isinstance(expr, CompiledFilter):
        expr = compile_filter(expr)
    return expr(binding.names, graph)


# -- intersection ----------------------------------------------------------


def check_intersection(
    graph: PropertyGraph,
    rule_plan: QueryPlan,
    request_plan: QueryPlan,
    varlen_cap: int = DEFAULT_VARLEN_CAP,
) -> bool:
    """True iff some request match is contained in some filter-passing
    rule match (vertex and edge sets, by element id)."""
    requests = [
        (b.vertex_seq, b.edge_seq) for b in match_plan(graph, request_plan, varlen_cap)
    ]
    if not requests:
        return False
    rule_filter = rule_plan.compiled_filter
    for rule_binding in match_plan(graph, rule_plan, varlen_cap):
        if rule_filter is not None and not eval_filter(
            rule_binding, rule_filter, graph
        ):
            continue
        in_vertices = rule_binding.vertex_seq.__contains__
        in_edges = rule_binding.edge_seq.__contains__
        for vertices, edges in requests:
            if all(map(in_vertices, vertices)) and all(map(in_edges, edges)):
                return True
    return False
