"""Evaluate query plans directly against an in-memory property graph.

This is the native stand-in for running the emitted intersection query on
a Cypher engine: enumerate rule-pattern matches and request-path matches
as trails (edge-distinct walks, vertex repetition allowed), then test
whether some request match is element-wise contained in some rule match
that passes the filter.

Enumeration is depth-first and deterministic: candidates are considered
in element-id order at every branch, so two runs over the same snapshot
yield the same stream.  The per-trail work is kept small by what the
plan carries, built once with it (see
:class:`~graphpdp.pattern_compiler.QueryPlan`): one element check per
step, absent for steps that constrain nothing, and the rule filter
compiled into closures.  The compiled filter still raises evaluation
errors eagerly, exactly where a full depth-first evaluation would.
"""

from __future__ import annotations

from typing import Iterator

from . import uris
from .graph_store import PropertyGraph
from .pattern_compiler import (
    CompiledFilter,
    EdgeStep,
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
    for vid in _vertex_candidates(graph, first, plan.checks[0]):
        bindings = ((first.binding, vid),)
        if len(steps) == 1:
            yield PathBinding((vid,), (), bindings)
        else:
            yield from _extend(
                graph, steps, plan.checks, 1, (vid,), (), bindings, varlen_cap
            )


def _extend(graph, steps, checks, index, vseq, eseq, bindings, varlen_cap):
    """Bindings that extend the trail (vseq, eseq) by the edge step at
    ``index`` and the vertex step after it, then by the steps beyond."""
    edge_step: EdgeStep = steps[index]
    vertex_step: VertexStep = steps[index + 1]
    edge_ok, vertex_ok = checks[index], checks[index + 1]
    last = index + 2 == len(steps)
    edge, vertex = graph.edge, graph.vertex

    if edge_step.is_single_hop:
        for eid, nvid in graph.hops(vseq[-1], edge_step.direction):
            if eid in eseq or (edge_ok is not None and not edge_ok(edge(eid))):
                continue
            if vertex_ok is not None and not vertex_ok(vertex(nvid)):
                continue
            new_bindings = bindings + ((vertex_step.binding, nvid),)
            if edge_step.binding is not None:
                new_bindings += ((edge_step.binding, eid),)
            if last:
                yield PathBinding(vseq + (nvid,), eseq + (eid,), new_bindings)
            else:
                yield from _extend(
                    graph, steps, checks, index + 2,
                    vseq + (nvid,), eseq + (eid,), new_bindings, varlen_cap,
                )
        return

    min_len = edge_step.min_len
    max_len = edge_step.max_len if edge_step.max_len is not None else varlen_cap
    direction = edge_step.direction
    hops = graph.hops

    # depth-first over the segment's trails, each one before its
    # extensions, which are pushed in reverse so they pop in hop order
    stack = [(vseq, eseq, 0)]
    while stack:
        wvseq, weseq, depth = stack.pop()
        current = wvseq[-1]
        if depth >= min_len and (vertex_ok is None or vertex_ok(vertex(current))):
            new_bindings = bindings + ((vertex_step.binding, current),)
            if last:
                yield PathBinding(wvseq, weseq, new_bindings)
            else:
                yield from _extend(
                    graph, steps, checks, index + 2,
                    wvseq, weseq, new_bindings, varlen_cap,
                )
        if depth < max_len:
            stack.extend(reversed([
                (wvseq + (nvid,), weseq + (eid,), depth + 1)
                for eid, nvid in hops(current, direction)
                if eid not in weseq and (edge_ok is None or edge_ok(edge(eid)))
            ]))


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
