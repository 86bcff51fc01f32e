"""Evaluate query plans directly against an in-memory property graph.

This is the native stand-in for running the emitted intersection query on
a Cypher engine: enumerate rule-pattern matches and request-path matches
as trails (edge-distinct walks, vertex repetition allowed), then test
whether some request match is element-wise contained in some rule match
that passes the filter.

Enumeration is depth-first and deterministic: candidates are considered
in element-id order at every branch, so two runs over the same snapshot
yield the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import uris
from .errors import FilterEvalError
from .graph_store import PropertyGraph, PropertyValue, as_text, loose_equal
from .policy_model import (
    Apply,
    ConditionExpr,
    ConstraintSet,
    Designator,
    Literal,
)
from .pattern_compiler import EdgeStep, QueryPlan, VertexStep, translate_function

DEFAULT_VARLEN_CAP = 8


@dataclass(frozen=True)
class PathBinding:
    """One concrete match: walked elements plus name -> element id."""

    vertex_seq: tuple[str, ...]
    edge_seq: tuple[str, ...] = ()
    var_bindings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "var_bindings", tuple(sorted(self.var_bindings))
        )

    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertex_seq)

    def edge_set(self) -> frozenset[str]:
        return frozenset(self.edge_seq)

    def bound(self, name: str) -> str | None:
        for key, element_id in self.var_bindings:
            if key == name:
                return element_id
        return None


def _constraints_hold(props: dict[str, PropertyValue], constraints: ConstraintSet) -> bool:
    if constraints.is_empty:
        return True
    for all_of in constraints.any_of:
        for match in all_of:
            value = props.get(match.attribute_id)
            if value is None:
                break
            if match.match_function == uris.MATCH_STRING_EQUAL_IGNORE_CASE:
                if as_text(value).casefold() != match.literal.casefold():
                    break
            else:  # string-equal; validation admits nothing else
                if as_text(value) != match.literal:
                    break
        else:
            return True
    return False


def _pinned_hold(props: dict[str, PropertyValue], pinned) -> bool:
    for name, wanted in pinned:
        if name not in props or not loose_equal(props[name], wanted):
            return False
    return True


def _vertex_ok(graph: PropertyGraph, vid: str, step: VertexStep) -> bool:
    record = graph.vertex(vid)
    if step.label is not None and record.label != step.label:
        return False
    if not _pinned_hold(record.properties, step.pinned):
        return False
    return _constraints_hold(record.properties, step.constraints)


def _edge_ok(graph: PropertyGraph, eid: str, step: EdgeStep) -> bool:
    record = graph.edge(eid)
    if step.type is not None and record.type != step.type:
        return False
    if not _pinned_hold(record.properties, step.pinned):
        return False
    return _constraints_hold(record.properties, step.constraints)


def _map_entries(constraints: ConstraintSet) -> list[tuple[str, str]]:
    """Equality pins usable for index lookup (single conjunctive all-of)."""
    if len(constraints.any_of) != 1:
        return []
    return [
        (m.attribute_id, m.literal)
        for m in constraints.any_of[0]
        if m.match_function == uris.MATCH_STRING_EQUAL
    ]


def _vertex_candidates(graph: PropertyGraph, step: VertexStep) -> list[str]:
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
    return sorted(v for v in candidates if _vertex_ok(graph, v, step))


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
    for vid in _vertex_candidates(graph, first):
        yield from _extend(
            graph, steps, 1, (vid,), (), ((first.binding, vid),), varlen_cap
        )


def _extend(graph, steps, index, vseq, eseq, bindings, varlen_cap):
    if index >= len(steps):
        yield PathBinding(vseq, eseq, bindings)
        return
    edge_step: EdgeStep = steps[index]
    vertex_step: VertexStep = steps[index + 1]

    if edge_step.is_single_hop:
        used = set(eseq)
        for eid, nvid in graph.hops(vseq[-1], edge_step.direction):
            if eid in used or not _edge_ok(graph, eid, edge_step):
                continue
            if not _vertex_ok(graph, nvid, vertex_step):
                continue
            new_bindings = bindings + ((vertex_step.binding, nvid),)
            if edge_step.binding is not None:
                new_bindings += ((edge_step.binding, eid),)
            yield from _extend(
                graph, steps, index + 2,
                vseq + (nvid,), eseq + (eid,), new_bindings, varlen_cap,
            )
        return

    min_len = edge_step.min_len
    max_len = edge_step.max_len if edge_step.max_len is not None else varlen_cap

    def walk(wvseq, weseq, depth):
        current = wvseq[-1]
        if depth >= min_len and _vertex_ok(graph, current, vertex_step):
            yield from _extend(
                graph, steps, index + 2,
                wvseq, weseq, bindings + ((vertex_step.binding, current),),
                varlen_cap,
            )
        if depth < max_len:
            used = set(weseq)
            for eid, nvid in graph.hops(current, edge_step.direction):
                if eid in used or not _edge_ok(graph, eid, edge_step):
                    continue
                yield from walk(wvseq + (nvid,), weseq + (eid,), depth + 1)

    yield from walk(vseq, eseq, 0)


# -- filter evaluation -----------------------------------------------------


def eval_filter(
    binding: PathBinding, expr: ConditionExpr, graph: PropertyGraph
) -> bool:
    """Evaluate the rule filter on one binding.

    Raises :class:`FilterEvalError` for unresolved references and lets
    :class:`UnknownFunctionError` escape; both become Indeterminate in the
    decision pipeline.  An absent property is not an error — comparisons
    over it are simply false.
    """
    return _truthy(_eval_expr(binding, expr, graph))


def _truthy(value: PropertyValue | None) -> bool:
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    return as_text(value) == "true"


def _eval_expr(binding, expr, graph):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Designator):
        return _resolve(binding, expr, graph)
    if not isinstance(expr, Apply):
        raise FilterEvalError(f"unsupported expression node {expr!r}")
    op = translate_function(expr.function)
    if op.logical:
        results = [_truthy(_eval_expr(binding, a, graph)) for a in expr.args]
        if not results:
            raise FilterEvalError(f"{expr.function} applied to zero arguments")
        return all(results) if expr.function == uris.FN_AND else any(results)
    if len(expr.args) != 2:
        raise FilterEvalError(
            f"{expr.function} needs two arguments, got {len(expr.args)}"
        )
    left = _eval_expr(binding, expr.args[0], graph)
    right = _eval_expr(binding, expr.args[1], graph)
    if left is None or right is None:
        return False
    return op.compare(left, right)


def _resolve(binding: PathBinding, designator: Designator, graph: PropertyGraph):
    element_id = binding.bound(designator.binding_ref)
    if element_id is None:
        raise FilterEvalError(
            f"condition references unbound name {designator.binding_ref!r}"
        )
    if designator.category == uris.CAT_PATH_EDGE:
        record = graph.edge(element_id)
    else:
        record = graph.vertex(element_id)
    return record.properties.get(designator.attribute_id)


# -- intersection ----------------------------------------------------------


def check_intersection(
    graph: PropertyGraph,
    rule_plan: QueryPlan,
    request_plan: QueryPlan,
    varlen_cap: int = DEFAULT_VARLEN_CAP,
) -> bool:
    """True iff some request match is contained in some filter-passing
    rule match (vertex and edge sets, by element id)."""
    request_sets = [
        (b.vertex_set(), b.edge_set())
        for b in match_plan(graph, request_plan, varlen_cap)
    ]
    if not request_sets:
        return False
    for rule_binding in match_plan(graph, rule_plan, varlen_cap):
        if rule_plan.filter is not None and not eval_filter(
            rule_binding, rule_plan.filter, graph
        ):
            continue
        v1 = rule_binding.vertex_set()
        e1 = rule_binding.edge_set()
        for v2, e2 in request_sets:
            if v2 <= v1 and e2 <= e1:
                return True
    return False
