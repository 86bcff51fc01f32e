"""Compile patterns and request paths into query plans; emit Cypher.

A query plan is the shared intermediate form consumed by both back ends:
the native matcher walks it directly, and :func:`emit_cypher` prints it as
an intersection query (two MATCH clauses plus containment predicates) for
offloading to an external Cypher engine.  Its steps are the pattern's
:class:`~graphpdp.policy_model.VertexStep` and
:class:`~graphpdp.policy_model.EdgeStep`: a rule's plan keeps the parsed
steps, and a request's pins the request path's properties on its own.

What each function means is written once, in one table: an
:class:`Operator` entry per condition function, per Match function and
for the request pin, carrying its native form and its Cypher spelling.
Target matching, element checks, filter compilation and Cypher emission
all read their entry from it, so the emitted query and the native
matcher test the same thing.  Comparison operators coerce both operands
to float when both look numeric, compare text lexicographically when
neither does, and return false on a mixed pair — properties are untyped
text at the policy surface, so a typing error is a non-match rather than
an evaluation failure.

A filter is built only from a condition without faults; one with a fault
compiles to the error that
:func:`~graphpdp.policy_model.condition_faults` names first, the fault
validation reports in the same words.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Union

from . import uris
from .errors import EngineError, UnknownFunctionError
from .graph_store import (
    EdgeRecord,
    PropertyGraph,
    PropertyValue,
    VertexRecord,
    as_number,
    as_text,
    index_key,
)
from .policy_model import (
    Apply,
    ConditionExpr,
    ConstraintSet,
    Designator,
    DIRECTION_FROM,
    DIRECTION_TO,
    EdgeStep,
    Literal,
    Pattern,
    PinnedProps,
    PlanStep,
    VertexStep,
    condition_faults,
    readable_names,
)
from .request_model import KIND_EDGE

ElementCheck = Callable[[Union[VertexRecord, EdgeRecord]], bool]
# A plan's match: the walked vertex ids, the walked edge ids, and the names
# the steps before the last segment bind (see :class:`QueryPlan`).
Match = tuple[tuple[str, ...], tuple[str, ...], dict[str, str]]
# Where a match holds a name: ``match[slot][key]``.
Location = tuple[int, Union[int, str, None]]
_LAST_VERTEX: Location = (0, -1)
_LAST_EDGE: Location = (1, -1)
Evaluator = Callable[[Match, PropertyGraph], Any]


@dataclass(frozen=True)
class QueryPlan:
    """Plan steps and filter, plus the forms the native matcher runs.

    ``checks`` holds one element check per step, ``None`` where the step
    constrains nothing.  ``segments`` holds, for each edge step and the
    vertex step after it, what the matcher reads to walk them: ``(min_len,
    max_len, direction, edge check, vertex check, vertex binding, edge
    binding, last)``, where ``max_len`` is ``None`` when unbounded, the
    edge binding is ``None`` unless the step is a single hop, and ``last``
    marks the final segment.

    A match is a ``(vertex_seq, edge_seq, names)`` triple, and
    ``locations`` is the one rule for where it holds each name it binds:
    name -> ``(slot, key)``, read as ``match[slot][key]``.  ``names``
    holds what the steps before the last segment bind, so the last vertex
    step's element sits at ``(0, -1)``, the last of ``vertex_seq``, and a
    single-hop last edge step's at ``(1, -1)``; every other name sits at
    ``(2, name)``.  A one-vertex plan has no segment: its one name sits at
    ``(0, -1)``.  ``compiled_filter`` is what :func:`compile_filter`
    gives for ``filter``, the steps'
    :func:`~graphpdp.policy_model.readable_names`, which validation checks
    too, and ``locations``.  All are built once, when the plan is.
    """

    steps: tuple[PlanStep, ...]
    filter: ConditionExpr | None = None
    checks: tuple[ElementCheck | None, ...] = field(
        init=False, repr=False, compare=False
    )
    segments: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    locations: dict[str | None, Location] = field(init=False, repr=False, compare=False)
    compiled_filter: tuple[Evaluator, Location | None] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        steps = self.steps
        checks = tuple(map(element_check, steps))
        segments = []
        # a name bound before the last segment sits in the match's names;
        # names go in in the order the walk binds them, so a repeated name
        # sits where its last binding does
        locations: dict[str | None, Location] = {}
        if steps:
            first = steps[0].binding
            locations[first] = _LAST_VERTEX if len(steps) == 1 else (2, first)
        # steps alternate vertex, edge, vertex, ...: edge steps sit at odd
        # positions
        for i in range(1, len(steps), 2):
            edge = steps[i]
            vertex_binding = steps[i + 1].binding
            edge_binding = edge.binding if edge.is_single_hop else None
            last = i + 2 == len(steps)
            segments.append((
                edge.min_len,
                edge.max_len,
                edge.direction,
                checks[i],
                checks[i + 1],
                vertex_binding,
                edge_binding,
                last,
            ))
            locations[vertex_binding] = _LAST_VERTEX if last else (2, vertex_binding)
            if edge_binding is not None:
                locations[edge_binding] = _LAST_EDGE if last else (2, edge_binding)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "locations", locations)
        compiled = None
        if self.filter is not None:
            compiled = compile_filter(self.filter, readable_names(steps), locations)
        object.__setattr__(self, "compiled_filter", compiled)


# -- function table --------------------------------------------------------


def _all(parts: tuple[Evaluator, ...]) -> Evaluator:
    def evaluate(match, graph):
        for part in parts:
            if not part(match, graph):
                return False
        return True

    return evaluate


def _any(parts: tuple[Evaluator, ...]) -> Evaluator:
    def evaluate(match, graph):
        for part in parts:
            if part(match, graph):
                return True
        return False

    return evaluate


@dataclass(frozen=True)
class Operator:
    """One table entry: what a function does natively and how Cypher
    spells it.

    A comparison maps each operand to its comparison form with ``key``
    and decides on the two forms with ``test``, so a constant operand is
    mapped once, when it is compiled; ``render`` spells it on two
    operands' text.  A coercing comparison also carries ``relation``, its
    Python comparison.  ``and`` and ``or`` carry ``combine``, which joins
    their arguments' evaluators, and a ``render`` that joins their text.
    """

    uri: str
    key: Callable[[PropertyValue], Any] | None = None
    test: Callable[[Any, Any], bool] | None = None
    render: Callable[..., str] | None = None
    relation: Callable[[Any, Any], bool] | None = None
    combine: Callable[[tuple[Evaluator, ...]], Evaluator] | None = None

    @property
    def logical(self) -> bool:
        return self.combine is not None

    def compare(self, a: PropertyValue, b: PropertyValue) -> bool:
        return self.test(self.key(a), self.key(b))


def _infix(symbol: str) -> Callable[[str, str], str]:
    return lambda a, b: f"{a} {symbol} {b}"


def _coercing(uri: str, relation: Callable[[Any, Any], bool], symbol: str) -> Operator:
    """Numeric-looking operands compare as floats, two non-numeric ones
    as text; a numeric/non-numeric pair never matches."""
    return Operator(uri, index_key, lambda a, b: type(a) is type(b) and relation(a, b),
                    _infix(symbol), relation)


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


# Condition functions, for pattern conditions.
_REGISTRY: dict[str, Operator] = {op.uri: op for op in (
    Operator(uris.FN_AND, combine=_all, render=" AND ".join),
    Operator(uris.FN_OR, combine=_any, render=" OR ".join),
    _coercing(uris.FN_EQUAL, operator.eq, "="),
    _coercing(uris.FN_NOT_EQUAL, operator.ne, "<>"),
    _coercing(uris.FN_GREATER_THAN, operator.gt, ">"),
    _coercing(uris.FN_GREATER_THAN_OR_EQUAL, operator.ge, ">="),
    _coercing(uris.FN_LESS_THAN, operator.lt, "<"),
    _coercing(uris.FN_LESS_THAN_OR_EQUAL, operator.le, "<="),
    # Case-insensitive, going by the URI (the label says otherwise).
    Operator(uris.FN_STRING_EQUAL_IGNORE_CASE, _folded, operator.eq,
             lambda a, b: f"toLower({a}) = toLower({b})"),
    Operator(uris.FN_STRING_CONTAINS, as_text, lambda a, b: b in a, _infix("CONTAINS")),
    Operator(uris.FN_STRING_STARTS_WITH, as_text, str.startswith, _infix("STARTS WITH")),
)}

# Match functions, for targets and pattern element constraints; the keys
# are validation's ``uris.MATCH_FUNCTIONS``.
MATCH_REGISTRY: dict[str, Operator] = {
    uris.MATCH_STRING_EQUAL: Operator(uris.MATCH_STRING_EQUAL, as_text, operator.eq, _infix("=")),
    uris.MATCH_STRING_EQUAL_IGNORE_CASE: _REGISTRY[uris.FN_STRING_EQUAL_IGNORE_CASE],
}

# A request pin compares as the condition function ``equal`` does.
_PIN = _REGISTRY[uris.FN_EQUAL]


def translate_function(uri: str) -> Operator:
    """Look up a condition function; total exactly on the registry URIs."""
    try:
        return _REGISTRY[uri]
    except KeyError:
        raise UnknownFunctionError(uri) from None


# -- element checks --------------------------------------------------------


_LABEL_OF = operator.attrgetter("label")
_TYPE_OF = operator.attrgetter("type")


def _equality_pins(constraints: ConstraintSet) -> list[tuple[str, str]]:
    """The ``(attribute, literal)`` pairs of a one-conjunction set's
    string-equal matches, in order; none for any other set."""
    if len(constraints.any_of) != 1:
        return []
    return [
        (m.attribute_id, m.literal)
        for m in constraints.any_of[0]
        if m.match_function == uris.MATCH_STRING_EQUAL
    ]


def _equality(name: str, literal: str, op: Operator) -> tuple:
    return name, literal, op.key, op.key(literal)


def _pin_test(name: str, literal: str) -> ElementCheck:
    """The test of one pin: the record's property equals ``literal`` as
    ``equal`` compares them."""
    key = _PIN.key
    literal_key = key(literal)

    def check(record) -> bool:
        value = record.properties.get(name)
        return value is not None and (value == literal or key(value) == literal_key)

    return check


def _all_pins(tests: list[ElementCheck]) -> ElementCheck:
    def check(record) -> bool:
        for test in tests:
            if not test(record):
                return False
        return True

    return check


def element_check(step: PlanStep) -> ElementCheck | None:
    """Predicate on the records a step may bind: label or type, then some
    conjunction of the constraint set holds together with every pin.

    Pins and Matches are all equalities, each read from its table entry:
    a pin compares as ``equal`` does, a Match as its function does.  Each
    holds when the property's key equals the literal's key, mapped once,
    here; a value equal to its literal needs no key.  A step with pins
    and nothing else, as every request step is, is checked by one
    comparison per pin; any other step by one ``(name, literal, key,
    literal key)`` test per equality, taken conjunction by conjunction.
    ``None`` when the step has no label or type, no pins and no
    constraints, so the matcher skips free steps without a call.
    """
    if isinstance(step, VertexStep):
        kind, kind_of = step.label, _LABEL_OF
    else:
        kind, kind_of = step.type, _TYPE_OF
    if kind is None and step.constraints.is_empty:
        pinned = step.pinned
        if not pinned:
            return None
        if len(pinned) == 1:
            return _pin_test(*pinned[0])
        return _all_pins([_pin_test(name, wanted) for name, wanted in pinned])
    pins = [_equality(name, wanted, _PIN) for name, wanted in step.pinned]
    conjunctions = [
        pins + [
            _equality(m.attribute_id, m.literal, MATCH_REGISTRY[m.match_function])
            for m in all_of
        ]
        for all_of in step.constraints.any_of
    ] or [pins]

    def check(record) -> bool:
        if kind is not None and kind_of(record) != kind:
            return False
        props = record.properties
        for tests in conjunctions:
            for name, literal, key, literal_key in tests:
                value = props.get(name)
                if value is None or (value != literal and key(value) != literal_key):
                    break
            else:
                return True
        return False

    return check


# -- filter compilation ----------------------------------------------------

def compile_filter(
    expr: ConditionExpr, bound: Mapping[str, str], locations: Mapping[str, Location]
) -> tuple[Evaluator, Location | None]:
    """Compile a condition tree for matches that bind the names in
    ``bound``, each mapped to the category a designator reads it with,
    and hold each where ``locations`` says (see :class:`QueryPlan`).

    Gives the evaluator, which takes a match, and, when the filter reads
    exactly one name and cannot fail, that name's location.  A filter
    with a fault, the first that
    :func:`~graphpdp.policy_model.condition_faults` yields, compiles to an
    evaluator that raises that error afresh on every call, as eager
    evaluation would.  Any other filter cannot raise, so ``and``/``or``
    stop at their first deciding argument.
    """
    fault = next(condition_faults(expr, bound), None)
    if fault is None:
        reads = _names_read(expr)
        location = locations[next(iter(reads))] if len(reads) == 1 else None
        return _predicate(expr, locations), location
    error, arg = fault

    def fail(match, graph):
        raise error(arg)

    return fail, None


def _names_read(expr: ConditionExpr) -> set[str]:
    if isinstance(expr, Designator):
        return {expr.binding_ref}
    if isinstance(expr, Apply):
        return set().union(*map(_names_read, expr.args))
    return set()


def _truthy(value: PropertyValue) -> bool:
    if isinstance(value, bool):
        return value
    return as_text(value) == "true"


def _designator(expr: Designator, at: Mapping[str, Location]) -> Evaluator:
    slot, key = at[expr.binding_ref]
    attribute = expr.attribute_id
    if expr.category == uris.CAT_PATH_EDGE:
        def get(match, graph):
            return graph.edge(match[slot][key]).properties.get(attribute)
    else:
        def get(match, graph):
            return graph.vertex(match[slot][key]).properties.get(attribute)
    return get


def _property_test(
    expr: Designator, holds: Callable[[PropertyValue], bool], at: Mapping[str, Location]
) -> Evaluator:
    """Evaluator applying ``holds`` to the designated property, read in
    the same closure; an absent property gives false."""
    slot, key = at[expr.binding_ref]
    attribute = expr.attribute_id
    if expr.category == uris.CAT_PATH_EDGE:
        def evaluate(match, graph):
            value = graph.edge(match[slot][key]).properties.get(attribute)
            return value is not None and holds(value)
    else:
        def evaluate(match, graph):
            value = graph.vertex(match[slot][key]).properties.get(attribute)
            return value is not None and holds(value)
    return evaluate


def _predicate(expr: ConditionExpr, at: Mapping[str, Location]) -> Evaluator:
    """Evaluator giving the truth value of ``expr``, a tree without
    faults whose names sit where ``at`` says."""
    if isinstance(expr, Literal):
        truth = _truthy(expr.value)
        return lambda match, graph: truth
    if isinstance(expr, Designator):
        return _property_test(expr, _truthy, at)
    op = translate_function(expr.function)
    if op.logical:
        return op.combine(tuple(_predicate(arg, at) for arg in expr.args))
    return _comparison(op, expr.args, at)


def _operand(expr: ConditionExpr, at: Mapping[str, Location]) -> Evaluator:
    """Evaluator of a non-literal operand's value; an ``Apply`` operand's
    value is its truth value."""
    if isinstance(expr, Designator):
        return _designator(expr, at)
    return _predicate(expr, at)


def _comparison(
    op: Operator, args: tuple[ConditionExpr, ...], at: Mapping[str, Location]
) -> Evaluator:
    """An absent operand makes the comparison false; a literal operand is
    compiled, once, into a test on the other operand's value."""
    left, right = args
    literal_left = isinstance(left, Literal)
    if literal_left and isinstance(right, Literal):
        result = op.compare(left.value, right.value)
        return lambda match, graph: result
    if literal_left or isinstance(right, Literal):
        literal, other = (left, right) if literal_left else (right, left)
        holds = _against_literal(op, literal.value, literal_left)
        if isinstance(other, Designator):
            return _property_test(other, holds, at)
        truth = _predicate(other, at)
        return lambda match, graph: holds(truth(match, graph))
    get_left, get_right = _operand(left, at), _operand(right, at)
    key, test = op.key, op.test

    def evaluate(match, graph):
        a = get_left(match, graph)
        if a is None:
            return False
        b = get_right(match, graph)
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
    compare = op.relation
    if compare is None:
        return general
    if literal_left:
        compare = _SWAPPED[compare]
    if type(literal_key) is float:
        def holds(value):
            value_type = type(value)  # bool is neither int nor float here
            if value_type is int or value_type is float:
                return compare(float(value), literal_key)
            return general(value)
    elif compare is operator.eq:
        # text equal to a non-numeric literal is itself non-numeric
        def holds(value):
            if type(value) is str:
                return value == literal_key
            return general(value)
    else:
        def holds(value):
            if type(value) is str:
                return compare(value, literal_key) and as_number(value) is None
            return general(value)
    return holds


# -- compilation -----------------------------------------------------------


def _unused_name(name: str, taken: set[str]) -> str:
    """``name`` with ``_`` appended until it is not in ``taken``, which
    then holds it."""
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def compile_rule_pattern(
    pattern: Pattern, condition: ConditionExpr | None = None
) -> QueryPlan:
    """The pattern's steps, each anonymous vertex step given a generated
    name; the condition becomes the filter."""
    taken = set(pattern.binding_names())
    steps = tuple(
        replace(step, binding=_unused_name(f"_v{i}", taken), auto=True)
        if isinstance(step, VertexStep) and step.binding is None
        else step
        for i, step in enumerate(pattern.steps)
    )
    return QueryPlan(steps=steps, filter=condition)


# The edge between two request vertices: unconstrained, undirected, one hop.
_FREE_EDGE = EdgeStep()
# A request vertex step's fields, but for its name and its pins.
_REQUEST_VERTEX = VertexStep(auto=True).__dict__
# The pin, ``(property name, value)``, of a path group's value.
_PIN_OF = operator.itemgetter(1, 2)


def _request_vertex(binding: str, pinned: PinnedProps) -> VertexStep:
    """``VertexStep(binding, pinned=pinned, auto=True)``, its fields
    written at once rather than one by one, as a frozen dataclass's
    ``__init__`` writes them."""
    step = object.__new__(VertexStep)
    step.__dict__.update(_REQUEST_VERTEX, binding=binding, pinned=pinned)
    return step


def compile_request_path(path_groups) -> QueryPlan:
    """Pin each path group's properties on a step, joined by free edges.

    Each vertex group becomes a vertex step named by its place, ``_v0``,
    ``_v2``, ...: a request declares no names, so none can clash.  Edges
    between consecutive request vertices are the one unconstrained,
    undirected step ``_FREE_EDGE``.  A trailing edge group becomes the
    final edge step and gets a free vertex appended so the plan still
    ends on a vertex.  No step holds more than pins, so each pinned one
    is checked by one comparison per pin (see :func:`element_check`).
    """
    groups = tuple(path_groups)
    trailing_edge = groups[-1] if groups and groups[-1].element_type == KIND_EDGE else None
    steps: list[PlanStep] = []
    for group in groups[:-1] if trailing_edge is not None else groups:
        if steps:
            steps.append(_FREE_EDGE)
        steps.append(_request_vertex(f"_v{len(steps)}", tuple(map(_PIN_OF, group.values))))
    if trailing_edge is not None:
        steps.append(EdgeStep(pinned=tuple(map(_PIN_OF, trailing_edge.values))))
        steps.append(_request_vertex(f"_v{len(steps)}", ()))
    return QueryPlan(tuple(steps))


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
    pins = _equality_pins(constraints)
    if len(constraints.any_of) != 1 or len(pins) != len(constraints.any_of[0]):
        return None
    return pins


def _render_test(ref: str, attribute: str, literal: str, op: Operator) -> str:
    return op.render(f"{ref}.{cypher_ident(attribute)}", cypher_string(literal))


def _constraint_predicate(ref: str, constraints: ConstraintSet) -> str:
    """WHERE fallback for constraint sets a property map cannot express."""
    alternatives = []
    for all_of in constraints.any_of:
        parts = [
            _render_test(ref, m.attribute_id, m.literal, MATCH_REGISTRY[m.match_function])
            for m in all_of
        ]
        alternatives.append(" AND ".join(parts) if len(parts) != 1 else parts[0])
    if len(alternatives) == 1:
        return f"({alternatives[0]})"
    return "(" + " OR ".join(f"({a})" for a in alternatives) + ")"


def _map_and_where(step: PlanStep, ref: str) -> tuple[str, list[str]]:
    """The step's property map, and the WHERE conjuncts on ``ref`` that
    test what the map cannot hold.

    A map holds one value per name, so a pin or plain string-equal Match
    whose name the map holds with another value is tested in WHERE, with
    the ``=`` a map entry means; a constraint set that is not one
    conjunction of plain string-equal Matches is tested there whole.
    """
    simple = _simple_conjunction(step.constraints)
    kept: dict[str, str] = {}
    repeats = [
        (name, value)
        for name, value in (*step.pinned, *(simple or ()))
        if kept.setdefault(name, value) != value
    ]
    where = [] if simple is not None else [_constraint_predicate(ref, step.constraints)]
    where.extend(f"({_render_test(ref, n, v, _PIN)})" for n, v in repeats)
    if not kept:
        return "", where
    inner = ",".join(f"{cypher_ident(n)}:{cypher_string(v)}" for n, v in kept.items())
    return "{" + inner + "}", where


def _render_vertex(step: VertexStep, extras: list[str], taken: set[str]) -> str:
    name = step.binding
    if step.auto:
        # a generated name is printed only for a WHERE test, kept apart
        # from every name printed before it
        name = _unused_name(name, taken) if _map_and_where(step, "")[1] else ""
    else:
        taken.add(name)
    ref = cypher_ident(name) if name else ""
    props, where = _map_and_where(step, ref)
    extras.extend(where)
    label = f":{cypher_ident(step.label)}" if step.label is not None else ""
    return f"({ref}{label}{props})"


def _length_marker(step: EdgeStep) -> str:
    if step.min_len == step.max_len:
        return "" if step.min_len == 1 else f"*{step.min_len}"
    if step.max_len is None:
        return "*" if step.min_len == 1 else f"*{step.min_len}.."
    if step.min_len == 1:
        return f"*..{step.max_len}"
    return f"*{step.min_len}..{step.max_len}"


def _render_edge(
    step: EdgeStep, location: str, extras: list[str], taken: set[str]
) -> str:
    name = step.binding or ""
    ref = cypher_ident(name) if name else ""
    props, where = _map_and_where(step, ref)
    if where and not name:
        raise EngineError(
            f"{location}: an edge without an EdgeId cannot be"
            " constrained beyond a property map in Cypher"
        )
    extras.extend(where)
    taken.add(name)
    type_part = f":{cypher_ident(step.type)}" if step.type is not None else ""
    inner = f"[{ref}{type_part}{_length_marker(step)}{props}]"
    if step.direction == DIRECTION_FROM:
        return f"-{inner}->"
    if step.direction == DIRECTION_TO:
        return f"<-{inner}-"
    return f"-{inner}-"


def render_pattern(
    plan: QueryPlan,
    extras: list[str] | None = None,
    taken: set[str] | None = None,
    path: str = "Pattern",
) -> str:
    """Linear pattern text, e.g. ``(s{...})-[e:t]->()-[*..2]-()``.

    WHERE conjuncts the text needs go to ``extras``.  Each name printed
    goes to ``taken`` as declared, and a generated one is first changed
    until it is not there; a declared name that is not a Cypher identifier
    is printed quoted.  ``path`` starts the location of an edge that is
    refused.
    """
    if extras is None:
        extras = []
    if taken is None:
        taken = set()
    parts = []
    for i, step in enumerate(plan.steps):
        if isinstance(step, VertexStep):
            parts.append(_render_vertex(step, extras, taken))
        else:
            parts.append(_render_edge(step, f"{path}/step[{i}]", extras, taken))
    return "".join(parts)


def _render_atom(expr: ConditionExpr) -> str:
    if isinstance(expr, Literal):
        return cypher_string(expr.value)
    if isinstance(expr, Designator):
        return f"{cypher_ident(expr.binding_ref)}.{cypher_ident(expr.attribute_id)}"
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
        return "(" + op.render(
            render_filter(a) if isinstance(a, Apply) else _render_atom(a)
            for a in expr.args
        ) + ")"
    left, right = expr.args
    return op.render(_render_atom(left), _render_atom(right))


def emit_cypher(rule_plan: QueryPlan, request_plan: QueryPlan) -> str:
    """Intersection query: does some request path lie inside a rule match.

    Every test of every step reaches the query: what a property map
    cannot hold goes to WHERE, on the step's name.  The path variables
    ``p1`` and ``p2`` and the list variable ``x`` are chosen after both
    patterns are printed, each changed as a generated name is until no
    printed name equals it.  Raises
    :class:`EngineError` for an edge step with no binding that needs such
    a test, such as a variable-length edge with two alternatives or a
    request's trailing edge with two values of one property: WHERE has
    no name to test it by.
    """
    extras: list[str] = []
    taken: set[str] = set()
    p1 = render_pattern(rule_plan, extras, taken)
    p2 = render_pattern(request_plan, extras, taken, "Request")
    rule_path, request_path, x = (_unused_name(name, taken) for name in ("p1", "p2", "x"))
    conjuncts = []
    if rule_plan.filter is not None:
        text = render_filter(rule_plan.filter)
        if not (isinstance(rule_plan.filter, Apply)
                and translate_function(rule_plan.filter.function).logical):
            text = f"({text})"
        conjuncts.append(text)
    conjuncts.extend(extras)
    conjuncts.extend(
        f"ALL ({x} IN {items}({request_path}) WHERE {x} IN {items}({rule_path}))"
        for items in ("nodes", "relationships")
    )
    return (
        f"MATCH {rule_path} = {p1}\n"
        f"MATCH {request_path} = {p2}\n"
        f"WHERE {' AND '.join(conjuncts)}\n"
        f"RETURN {rule_path} IS NOT NULL AS result\n"
    )
