"""Compile patterns and request paths into query plans; emit Cypher.

A query plan is the shared intermediate form consumed by both back ends:
the native matcher walks it directly, and :func:`emit_cypher` prints it as
an intersection query (two MATCH clauses plus containment predicates) for
offloading to an external Cypher engine.

Function URIs are resolved through a closed registry.  Comparison
operators coerce both operands to float when both look numeric, compare
text lexicographically when neither does, and return false on a mixed
pair — properties are untyped text at the policy surface, so a typing
error is a non-match rather than an evaluation failure.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

from . import uris
from .errors import UnknownFunctionError
from .graph_store import PropertyValue, as_number, as_text
from .policy_model import (
    Apply,
    ConditionExpr,
    ConstraintSet,
    Designator,
    DIRECTION_ANY,
    DIRECTION_FROM,
    DIRECTION_TO,
    EMPTY_CONSTRAINTS,
    Literal,
    Pattern,
    PathVertexSpec,
)
from .request_model import AttributeGroup, KIND_EDGE, split_attribute_value

PinnedProps = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class VertexStep:
    binding: str
    label: str | None = None
    constraints: ConstraintSet = EMPTY_CONSTRAINTS
    pinned: PinnedProps = ()
    auto: bool = False  # binding was generated, not declared in the policy


@dataclass(frozen=True)
class EdgeStep:
    binding: str | None = None
    type: str | None = None
    direction: str = DIRECTION_ANY
    min_len: int = 1
    max_len: int | None = 1  # None = unbounded
    constraints: ConstraintSet = EMPTY_CONSTRAINTS
    pinned: PinnedProps = ()

    @property
    def is_single_hop(self) -> bool:
        return self.min_len == 1 and self.max_len == 1


PlanStep = Union[VertexStep, EdgeStep]


@dataclass(frozen=True)
class QueryPlan:
    steps: tuple[PlanStep, ...]
    filter: ConditionExpr | None = None


# -- function registry -----------------------------------------------------


def _coercing_compare(num_op, text_op) -> Callable[[PropertyValue, PropertyValue], bool]:
    def compare(a: PropertyValue, b: PropertyValue) -> bool:
        an, bn = as_number(a), as_number(b)
        if an is not None and bn is not None:
            return num_op(an, bn)
        if an is None and bn is None:
            return text_op(as_text(a), as_text(b))
        return False  # numeric vs non-numeric never matches

    return compare


@dataclass(frozen=True)
class Operator:
    """One registry entry: native evaluation plus its Cypher spelling."""

    uri: str
    logical: bool = False
    compare: Callable[[PropertyValue, PropertyValue], bool] | None = None
    render: Callable[[str, str], str] | None = None


def _infix(symbol: str) -> Callable[[str, str], str]:
    return lambda a, b: f"{a} {symbol} {b}"


_REGISTRY: dict[str, Operator] = {
    uris.FN_AND: Operator(uris.FN_AND, logical=True),
    uris.FN_OR: Operator(uris.FN_OR, logical=True),
    uris.FN_EQUAL: Operator(
        uris.FN_EQUAL,
        compare=_coercing_compare(operator.eq, operator.eq),
        render=_infix("="),
    ),
    uris.FN_NOT_EQUAL: Operator(
        uris.FN_NOT_EQUAL,
        compare=_coercing_compare(operator.ne, operator.ne),
        render=_infix("<>"),
    ),
    uris.FN_GREATER_THAN: Operator(
        uris.FN_GREATER_THAN,
        compare=_coercing_compare(operator.gt, operator.gt),
        render=_infix(">"),
    ),
    uris.FN_GREATER_THAN_OR_EQUAL: Operator(
        uris.FN_GREATER_THAN_OR_EQUAL,
        compare=_coercing_compare(operator.ge, operator.ge),
        render=_infix(">="),
    ),
    uris.FN_LESS_THAN: Operator(
        uris.FN_LESS_THAN,
        compare=_coercing_compare(operator.lt, operator.lt),
        render=_infix("<"),
    ),
    uris.FN_LESS_THAN_OR_EQUAL: Operator(
        uris.FN_LESS_THAN_OR_EQUAL,
        compare=_coercing_compare(operator.le, operator.le),
        render=_infix("<="),
    ),
    # Case-insensitive, going by the URI (the label says otherwise).
    uris.FN_STRING_EQUAL_IGNORE_CASE: Operator(
        uris.FN_STRING_EQUAL_IGNORE_CASE,
        compare=lambda a, b: as_text(a).casefold() == as_text(b).casefold(),
        render=lambda a, b: f"toLower({a}) = toLower({b})",
    ),
    uris.FN_STRING_CONTAINS: Operator(
        uris.FN_STRING_CONTAINS,
        compare=lambda a, b: as_text(b) in as_text(a),
        render=_infix("CONTAINS"),
    ),
    uris.FN_STRING_STARTS_WITH: Operator(
        uris.FN_STRING_STARTS_WITH,
        compare=lambda a, b: as_text(a).startswith(as_text(b)),
        render=_infix("STARTS WITH"),
    ),
}


def translate_function(uri: str) -> Operator:
    """Look up a condition function; total exactly on the registry URIs."""
    try:
        return _REGISTRY[uri]
    except KeyError:
        raise UnknownFunctionError(uri) from None


def known_functions() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# -- compilation -----------------------------------------------------------


def _auto_binding(index: int, taken: set[str]) -> str:
    name = f"_v{index}"
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def compile_rule_pattern(
    pattern: Pattern, condition: ConditionExpr | None = None
) -> QueryPlan:
    """One plan step per pattern step; the condition becomes the filter."""
    taken = set(pattern.binding_names())
    steps: list[PlanStep] = []
    for i, spec in enumerate(pattern.steps):
        if isinstance(spec, PathVertexSpec):
            if spec.vertex_id is not None:
                steps.append(
                    VertexStep(
                        binding=spec.vertex_id,
                        label=spec.label,
                        constraints=spec.constraints,
                    )
                )
            else:
                steps.append(
                    VertexStep(
                        binding=_auto_binding(i, taken),
                        label=spec.label,
                        constraints=spec.constraints,
                        auto=True,
                    )
                )
        else:
            steps.append(
                EdgeStep(
                    binding=spec.edge_id,
                    type=spec.type,
                    direction=spec.direction,
                    min_len=spec.min_len,
                    max_len=spec.max_len,
                    constraints=spec.constraints,
                )
            )
    return QueryPlan(steps=tuple(steps), filter=condition)


def _pinned_props(group: AttributeGroup) -> PinnedProps:
    return tuple(split_attribute_value(raw) for _, raw in group.attributes)


def compile_request_path(path_groups) -> QueryPlan:
    """Pin each path group's properties on a step, joined by free edges.

    Edges between consecutive request vertices are unconstrained and
    undirected.  A trailing edge group becomes the final edge step and
    gets a free vertex appended so the plan still ends on a vertex.
    """
    groups = list(path_groups)
    trailing_edge = groups[-1] if groups and groups[-1].element_type == KIND_EDGE else None
    vertex_groups = groups[:-1] if trailing_edge is not None else groups

    taken: set[str] = set()
    steps: list[PlanStep] = []
    for group in vertex_groups:
        if steps:
            steps.append(EdgeStep())
        steps.append(
            VertexStep(
                binding=_auto_binding(len(steps), taken),
                pinned=_pinned_props(group),
                auto=True,
            )
        )
    if trailing_edge is not None:
        steps.append(EdgeStep(pinned=_pinned_props(trailing_edge)))
        steps.append(VertexStep(binding=_auto_binding(len(steps), taken), auto=True))
    return QueryPlan(steps=tuple(steps))


# -- Cypher emission -------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def cypher_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cypher_ident(name: str) -> str:
    if _IDENT_RE.match(name):
        return name
    return "`" + name.replace("`", "``") + "`"


def _simple_conjunction(constraints: ConstraintSet) -> list[tuple[str, str]] | None:
    """Property-map entries when the set is one all-of of plain equals."""
    if constraints.is_empty:
        return []
    if len(constraints.any_of) != 1:
        return None
    entries = []
    for match in constraints.any_of[0]:
        if match.match_function != uris.MATCH_STRING_EQUAL:
            return None
        entries.append((match.attribute_id, match.literal))
    return entries


def _props_map(entries: list[tuple[str, str]]) -> str:
    if not entries:
        return ""
    seen: dict[str, str] = {}
    for name, value in entries:
        seen.setdefault(name, value)
    inner = ",".join(f"{cypher_ident(n)}:{cypher_string(v)}" for n, v in seen.items())
    return "{" + inner + "}"


def _constraint_predicate(ref: str, constraints: ConstraintSet) -> str:
    """WHERE fallback for constraint sets a property map cannot express."""
    alternatives = []
    for all_of in constraints.any_of:
        parts = []
        for match in all_of:
            op = _match_operator(match.match_function)
            parts.append(op(f"{ref}.{cypher_ident(match.attribute_id)}",
                            cypher_string(match.literal)))
        alternatives.append(" AND ".join(parts) if len(parts) != 1 else parts[0])
    if len(alternatives) == 1:
        return f"({alternatives[0]})"
    return "(" + " OR ".join(f"({a})" for a in alternatives) + ")"


def _match_operator(match_function: str) -> Callable[[str, str], str]:
    if match_function == uris.MATCH_STRING_EQUAL:
        return _infix("=")
    if match_function == uris.MATCH_STRING_EQUAL_IGNORE_CASE:
        return lambda a, b: f"toLower({a}) = toLower({b})"
    # Validation confines match functions to the two above.
    return _infix("=")


def _render_vertex(step: VertexStep, extras: list[str]) -> str:
    entries = list(step.pinned)
    simple = _simple_conjunction(step.constraints)
    needs_name = not step.auto
    if simple is None:
        needs_name = True
        extras.append(_constraint_predicate(step.binding, step.constraints))
    else:
        entries.extend(simple)
    name = step.binding if needs_name else ""
    label = f":{cypher_ident(step.label)}" if step.label is not None else ""
    return f"({name}{label}{_props_map(entries)})"


def _length_marker(step: EdgeStep) -> str:
    if step.min_len == step.max_len:
        return "" if step.min_len == 1 else f"*{step.min_len}"
    if step.max_len is None:
        return "*" if step.min_len == 1 else f"*{step.min_len}.."
    if step.min_len == 1:
        return f"*..{step.max_len}"
    return f"*{step.min_len}..{step.max_len}"


def _render_edge(step: EdgeStep, extras: list[str]) -> str:
    entries = list(step.pinned)
    simple = _simple_conjunction(step.constraints)
    if simple is None:
        # No anonymous fallback for edges: a declared binding exists
        # whenever the policy constrains an edge beyond a property map.
        if step.binding is None:
            raise ValueError("unbound edge step with non-map constraints")
        extras.append(_constraint_predicate(step.binding, step.constraints))
    else:
        entries.extend(simple)
    name = step.binding or ""
    type_part = f":{cypher_ident(step.type)}" if step.type is not None else ""
    inner = f"[{name}{type_part}{_length_marker(step)}{_props_map(entries)}]"
    if step.direction == DIRECTION_FROM:
        return f"-{inner}->"
    if step.direction == DIRECTION_TO:
        return f"<-{inner}-"
    return f"-{inner}-"


def render_pattern(plan: QueryPlan, extras: list[str] | None = None) -> str:
    """Linear pattern text, e.g. ``(s{...})-[e:t]->()-[*..2]-()``."""
    if extras is None:
        extras = []
    parts = []
    for step in plan.steps:
        if isinstance(step, VertexStep):
            parts.append(_render_vertex(step, extras))
        else:
            parts.append(_render_edge(step, extras))
    return "".join(parts)


def _render_atom(expr: ConditionExpr) -> str:
    if isinstance(expr, Literal):
        return cypher_string(expr.value)
    if isinstance(expr, Designator):
        return f"{expr.binding_ref}.{cypher_ident(expr.attribute_id)}"
    # Apply as a comparison operand: parenthesize unless self-delimiting.
    rendered = render_filter(expr)
    op = translate_function(expr.function)
    return rendered if op.logical else f"({rendered})"


def render_filter(expr: ConditionExpr) -> str:
    """Filter expression text; logical nodes parenthesize themselves, so
    comparisons sit bare inside them (comparison binds tighter anyway)."""
    if isinstance(expr, (Literal, Designator)):
        return _render_atom(expr)
    op = translate_function(expr.function)
    if op.logical:
        joiner = " AND " if expr.function == uris.FN_AND else " OR "
        parts = [
            render_filter(a) if isinstance(a, Apply) else _render_atom(a)
            for a in expr.args
        ]
        return "(" + joiner.join(parts) + ")"
    left, right = expr.args
    return op.render(_render_atom(left), _render_atom(right))


def emit_cypher(rule_plan: QueryPlan, request_plan: QueryPlan) -> str:
    """Intersection query: does some request path lie inside a rule match."""
    extras: list[str] = []
    p1 = render_pattern(rule_plan, extras)
    p2 = render_pattern(request_plan, extras)
    conjuncts = []
    if rule_plan.filter is not None:
        text = render_filter(rule_plan.filter)
        if not (isinstance(rule_plan.filter, Apply)
                and translate_function(rule_plan.filter.function).logical):
            text = f"({text})"
        conjuncts.append(text)
    conjuncts.extend(extras)
    conjuncts.append("ALL (x IN nodes(p2) WHERE x IN nodes(p1))")
    conjuncts.append("ALL (x IN relationships(p2) WHERE x IN relationships(p1))")
    return (
        f"MATCH p1 = {p1}\n"
        f"MATCH p2 = {p2}\n"
        f"WHERE {' AND '.join(conjuncts)}\n"
        "RETURN p1 IS NOT NULL AS result\n"
    )
