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
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Union

from . import uris
from .errors import FilterEvalError, UnknownFunctionError
from .graph_store import (
    EdgeRecord,
    PropertyGraph,
    PropertyValue,
    VertexRecord,
    as_number,
    as_text,
    canonical_key,
)
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
    MatchConstraint,
    Pattern,
    PathVertexSpec,
)
from .request_model import AttributeGroup, KIND_EDGE, split_attribute_value

PinnedProps = tuple[tuple[str, str], ...]
ElementCheck = Callable[[Union[VertexRecord, EdgeRecord]], bool]


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
    """Plan steps and filter, plus the forms the native matcher runs.

    ``checks`` holds one element check per step, ``None`` where the step
    constrains nothing.  ``segments`` holds, for each edge step and the
    vertex step after it, what the matcher reads to walk them: ``(min_len,
    max_len, direction, edge check, vertex check, vertex binding, edge
    binding, last)``, where ``max_len`` is ``None`` when unbounded, the
    edge binding is ``None`` unless the step is a single hop, and ``last``
    marks the final segment.  ``compiled_filter`` is ``filter`` compiled
    by :func:`compile_filter`.  All are built once, when the plan is.
    """

    steps: tuple[PlanStep, ...]
    filter: ConditionExpr | None = None
    checks: tuple[ElementCheck | None, ...] = field(
        init=False, repr=False, compare=False
    )
    segments: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    compiled_filter: CompiledFilter | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        steps = self.steps
        checks = tuple(map(element_check, steps))
        segments = []
        # steps alternate vertex, edge, vertex, ...: edge steps sit at odd
        # positions
        for i in range(1, len(steps), 2):
            edge = steps[i]
            segments.append((
                edge.min_len,
                edge.max_len,
                edge.direction,
                checks[i],
                checks[i + 1],
                steps[i + 1].binding,
                edge.binding if edge.is_single_hop else None,
                i + 2 == len(steps),
            ))
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(
            self,
            "compiled_filter",
            None if self.filter is None else compile_filter(self.filter),
        )


# -- function registry -----------------------------------------------------


def _coercing(op) -> dict:
    """Numeric-looking operands compare as floats, two non-numeric ones
    as text; a numeric/non-numeric pair never matches."""
    return dict(key=canonical_key, test=lambda a, b: a[0] == b[0] and op(a[1], b[1]))


# The Python comparison behind each coercing function, and its Cypher
# symbol.
_COERCING = {
    uris.FN_EQUAL: (operator.eq, "="),
    uris.FN_NOT_EQUAL: (operator.ne, "<>"),
    uris.FN_GREATER_THAN: (operator.gt, ">"),
    uris.FN_GREATER_THAN_OR_EQUAL: (operator.ge, ">="),
    uris.FN_LESS_THAN: (operator.lt, "<"),
    uris.FN_LESS_THAN_OR_EQUAL: (operator.le, "<="),
}
# The comparison that gives the same result with the operands swapped.
_SWAPPED = {
    operator.eq: operator.eq,
    operator.ne: operator.ne,
    operator.gt: operator.lt,
    operator.ge: operator.le,
    operator.lt: operator.gt,
    operator.le: operator.ge,
}


def _folded(value: PropertyValue) -> str:
    return as_text(value).casefold()


@dataclass(frozen=True)
class Operator:
    """One registry entry: native evaluation plus its Cypher spelling.

    A comparison maps each operand to its comparison form with ``key``
    and decides on the two forms with ``test``, so a constant operand is
    mapped once, when the filter is compiled.
    """

    uri: str
    logical: bool = False
    key: Callable[[PropertyValue], Any] | None = None
    test: Callable[[Any, Any], bool] | None = None
    render: Callable[[str, str], str] | None = None

    def compare(self, a: PropertyValue, b: PropertyValue) -> bool:
        return self.test(self.key(a), self.key(b))


def _infix(symbol: str) -> Callable[[str, str], str]:
    return lambda a, b: f"{a} {symbol} {b}"


_REGISTRY: dict[str, Operator] = {
    uris.FN_AND: Operator(uris.FN_AND, logical=True),
    uris.FN_OR: Operator(uris.FN_OR, logical=True),
    **{
        uri: Operator(uri, **_coercing(compare), render=_infix(symbol))
        for uri, (compare, symbol) in _COERCING.items()
    },
    # Case-insensitive, going by the URI (the label says otherwise).
    uris.FN_STRING_EQUAL_IGNORE_CASE: Operator(
        uris.FN_STRING_EQUAL_IGNORE_CASE,
        key=_folded,
        test=operator.eq,
        render=lambda a, b: f"toLower({a}) = toLower({b})",
    ),
    uris.FN_STRING_CONTAINS: Operator(
        uris.FN_STRING_CONTAINS,
        key=as_text,
        test=lambda a, b: b in a,
        render=_infix("CONTAINS"),
    ),
    uris.FN_STRING_STARTS_WITH: Operator(
        uris.FN_STRING_STARTS_WITH,
        key=as_text,
        test=str.startswith,
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


# -- element checks --------------------------------------------------------


_LABEL_OF = operator.attrgetter("label")
_TYPE_OF = operator.attrgetter("type")


def _match_form(match: MatchConstraint) -> tuple[str, bool, str]:
    """(attribute, ignore case, literal case-folded when case is ignored);
    validation admits no match function but the two string equalities."""
    fold = match.match_function == uris.MATCH_STRING_EQUAL_IGNORE_CASE
    return match.attribute_id, fold, match.literal.casefold() if fold else match.literal


def element_check(step: PlanStep) -> ElementCheck | None:
    """Predicate on the records a step may bind: label or type, pinned
    properties (loose equality), then the constraint set.

    ``None`` when the step has no label or type, no pins and no
    constraints, so the matcher skips free steps without a call.
    """
    if isinstance(step, VertexStep):
        kind, kind_of = step.label, _LABEL_OF
    else:
        kind, kind_of = step.type, _TYPE_OF
    if kind is None and not step.pinned and step.constraints.is_empty:
        return None
    # each pinned literal is classified once, here; a value equal to its
    # literal text needs no classification at all
    pins = [(name, wanted, canonical_key(wanted)) for name, wanted in step.pinned]
    alternatives = [tuple(map(_match_form, all_of)) for all_of in step.constraints.any_of]

    def check(record) -> bool:
        if kind is not None and kind_of(record) != kind:
            return False
        props = record.properties
        for name, wanted, wanted_key in pins:
            if name not in props:
                return False
            value = props[name]
            if value != wanted and canonical_key(value) != wanted_key:
                return False
        if not alternatives:
            return True
        for all_of in alternatives:
            for name, fold, literal in all_of:
                value = props.get(name)
                if value is None:
                    break
                text = as_text(value)
                if (text.casefold() if fold else text) != literal:
                    break
            else:
                return True
        return False

    return check


# -- filter compilation ----------------------------------------------------

Names = dict[str, str]  # binding name -> element id
Evaluator = Callable[[Names, PropertyGraph], Any]


class CompiledFilter:
    """A rule filter compiled once into closures.

    It raises the error that eager, depth-first evaluation would raise
    first: ``refs`` are the binding names the filter reads before its
    first structural error, in that order, and ``fault`` raises that
    error.  Both are checked before ``evaluate`` runs, so ``and``/``or``
    stop at their first deciding argument without hiding an error.

    ``unchecked`` evaluates the later matches of a plan once one match has
    passed the pre-check, since every match of a plan binds the same
    names: it is ``evaluate`` itself, or the filter when its fault fails
    every call anyway.
    """

    __slots__ = ("refs", "fault", "evaluate", "unchecked")

    def __init__(
        self,
        refs: tuple[str, ...],
        fault: Callable[[], Any] | None,
        evaluate: Evaluator | None,
    ):
        self.refs = refs
        self.fault = fault
        self.evaluate = evaluate
        self.unchecked: Evaluator = self if fault is not None else evaluate

    def __call__(self, names: Names, graph: PropertyGraph) -> bool:
        for ref in self.refs:
            if ref not in names:
                raise FilterEvalError(f"condition references unbound name {ref!r}")
        if self.fault is not None:
            self.fault()
        return self.evaluate(names, graph)


class _Fault(Exception):
    """Stops compilation at a structural error; ``raise_error`` raises it."""

    def __init__(self, raise_error: Callable[[], Any]):
        super().__init__()
        self.raise_error = raise_error


def _fail(message: str):
    raise FilterEvalError(message)


def compile_filter(expr: ConditionExpr) -> CompiledFilter:
    """Compile a condition tree; structural errors are deferred to the
    first evaluation, which is when eager evaluation raised them."""
    refs: list[str] = []
    try:
        evaluate, fault = _predicate(expr, refs), None
    except _Fault as stop:
        evaluate, fault = None, stop.raise_error
    return CompiledFilter(tuple(dict.fromkeys(refs)), fault, evaluate)


def _truthy(value: PropertyValue | None) -> bool:
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    return as_text(value) == "true"


def _designator(expr: Designator, refs: list[str]) -> Evaluator:
    ref, attribute = expr.binding_ref, expr.attribute_id
    refs.append(ref)
    if expr.category == uris.CAT_PATH_EDGE:
        def get(names, graph):
            return graph.edge(names[ref]).properties.get(attribute)
    else:
        def get(names, graph):
            return graph.vertex(names[ref]).properties.get(attribute)
    return get


def _property_test(
    expr: Designator, holds: Callable[[PropertyValue], bool], refs: list[str]
) -> Evaluator:
    """Evaluator applying ``holds`` to the designated property, read in
    the same closure; an absent property gives false."""
    ref, attribute = expr.binding_ref, expr.attribute_id
    refs.append(ref)
    if expr.category == uris.CAT_PATH_EDGE:
        def evaluate(names, graph):
            value = graph.edge(names[ref]).properties.get(attribute)
            return value is not None and holds(value)
    else:
        def evaluate(names, graph):
            value = graph.vertex(names[ref]).properties.get(attribute)
            return value is not None and holds(value)
    return evaluate


def _operator(expr: Apply) -> Operator:
    try:
        return translate_function(expr.function)
    except UnknownFunctionError:
        raise _Fault(partial(translate_function, expr.function)) from None


def _predicate(expr: ConditionExpr, refs: list[str]) -> Evaluator:
    """Evaluator giving the truth value of ``expr``."""
    if isinstance(expr, Literal):
        truth = _truthy(expr.value)
        return lambda names, graph: truth
    if isinstance(expr, Designator):
        return _property_test(expr, _truthy, refs)
    if not isinstance(expr, Apply):
        raise _Fault(partial(_fail, f"unsupported expression node {expr!r}"))
    op = _operator(expr)
    if op.logical:
        parts = tuple(_predicate(arg, refs) for arg in expr.args)
        if not parts:
            raise _Fault(partial(_fail, f"{expr.function} applied to zero arguments"))
        return _all(parts) if expr.function == uris.FN_AND else _any(parts)
    if len(expr.args) != 2:
        raise _Fault(partial(
            _fail, f"{expr.function} needs two arguments, got {len(expr.args)}"
        ))
    return _comparison(op, expr.args, refs)


def _all(parts: tuple[Evaluator, ...]) -> Evaluator:
    def evaluate(names, graph):
        for part in parts:
            if not part(names, graph):
                return False
        return True

    return evaluate


def _any(parts: tuple[Evaluator, ...]) -> Evaluator:
    def evaluate(names, graph):
        for part in parts:
            if part(names, graph):
                return True
        return False

    return evaluate


def _operand(expr: ConditionExpr, refs: list[str]) -> Evaluator:
    """Evaluator of a non-literal operand's value; an ``Apply`` operand's
    value is its truth value."""
    if isinstance(expr, Designator):
        return _designator(expr, refs)
    return _predicate(expr, refs)


def _comparison(
    op: Operator, args: tuple[ConditionExpr, ...], refs: list[str]
) -> Evaluator:
    """An absent operand makes the comparison false; a literal operand is
    compiled, once, into a test on the other operand's value."""
    left, right = args
    literal_left = isinstance(left, Literal)
    if literal_left and isinstance(right, Literal):
        result = op.compare(left.value, right.value)
        return lambda names, graph: result
    if literal_left or isinstance(right, Literal):
        literal, other = (left, right) if literal_left else (right, left)
        holds = _against_literal(op, literal.value, literal_left)
        if isinstance(other, Designator):
            return _property_test(other, holds, refs)
        truth = _predicate(other, refs)
        return lambda names, graph: holds(truth(names, graph))
    get_left, get_right = _operand(left, refs), _operand(right, refs)
    key, test = op.key, op.test

    def evaluate(names, graph):
        a = get_left(names, graph)
        if a is None:
            return False
        b = get_right(names, graph)
        return b is not None and test(key(a), key(b))

    return evaluate


def _against_literal(
    op: Operator, literal: str, literal_left: bool
) -> Callable[[PropertyValue], bool]:
    """Test on the other operand's value, equal to ``op.compare`` with
    ``literal`` on the left or on the right.

    A coercing comparison classifies the value only where the result
    depends on it: text against a non-numeric literal compares as text
    first, and is checked to be non-numeric only when that holds under an
    operator other than equality; an int or float against a numeric
    literal compares as a float.  Any other value takes the general key
    and test.
    """
    key, test = op.key, op.test
    literal_key = key(literal)
    if literal_left:
        def general(value):
            return test(literal_key, key(value))
    else:
        def general(value):
            return test(key(value), literal_key)
    if op.uri not in _COERCING:
        return general
    compare = _COERCING[op.uri][0]
    if literal_left:
        compare = _SWAPPED[compare]
    kind, form = literal_key
    if kind == "num":
        def holds(value):
            value_type = type(value)  # bool is neither int nor float here
            if value_type is int or value_type is float:
                return compare(float(value), form)
            return general(value)
    elif compare is operator.eq:
        # text equal to a non-numeric literal is itself non-numeric
        def holds(value):
            if type(value) is str:
                return value == form
            return general(value)
    else:
        def holds(value):
            if type(value) is str:
                return compare(value, form) and as_number(value) is None
            return general(value)
    return holds


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
