"""Parse and validate XACML4G policies.

The supported grammar is a core-XACML subset (Policy, Rule, Target with
AnyOf/AllOf/Match) plus the xacml4g extension elements: Meta at policy
level, Pattern/Path/Vertex/Edge and PatternCondition at rule level.
Elements are recognized by namespace URI and local name; unknown elements
in the xacml4g namespace are rejected, unknown attributes are ignored but
recorded as warnings on the parsed policy, and so is a pattern Label or
Type that the policy's Meta does not declare.

A pattern's steps are :class:`VertexStep` and :class:`EdgeStep`, the
steps query plans are made of: compiling a rule's pattern keeps each
parsed step and only names the vertex steps the policy leaves anonymous.

The parser only builds: it stores categories and directions as written,
and :func:`validate_policy`, which parsing runs, judges them, so a policy
built in code is judged as a parsed one is.

A condition's faults are listed in one place, :func:`condition_faults`,
against the names :func:`readable_names` gives: validation reports each
fault, and the filter compiler turns the first into the error that a
decision reports as Indeterminate, in the same words.

Standard rule ``Condition`` elements are outside the subset and rejected
rather than silently ignored: dropping a condition would loosen the policy.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import chain, product
from pathlib import Path as FsPath
from typing import Iterable, Iterator, Mapping, Union

from . import uris
from .errors import EngineError, FilterEvalError, PolicySchemaError, UnknownFunctionError
from .xmlutil import (
    in_ext_ns,
    is_core,
    is_ext,
    local_name,
    parse_xml,
    text_of,
)

EFFECT_PERMIT = "Permit"
EFFECT_DENY = "Deny"

DIRECTION_FROM = "from"
DIRECTION_TO = "to"
DIRECTION_ANY = "any"
DIRECTIONS = (DIRECTION_FROM, DIRECTION_TO, DIRECTION_ANY)

# deepest Apply nesting a condition may have: parsing, compiling and
# evaluating a condition each recurse once per level
MAX_APPLY_DEPTH = 100
# deepest Path nesting a pattern may have: parsing recurses once per level
MAX_PATH_DEPTH = 100
# most alternatives a Target's or a step's AnyOfs may join to: each
# alternative holds one AllOf of every AnyOf, and matching may try each
MAX_ALTERNATIVES = 1000
# most Matches those alternatives may hold together: each holds every
# Match of its AllOfs, so a few small AnyOfs and many one-way ones would
# otherwise copy the many into every alternative
MAX_JOINED_MATCHES = 10_000


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``path`` locates the offending element."""

    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


@dataclass(frozen=True)
class Meta:
    vertex_entities: tuple[str, ...]
    edge_entities: tuple[str, ...]


@dataclass(frozen=True)
class MatchConstraint:
    match_function: str
    literal: str
    attribute_id: str
    category: str


@dataclass(frozen=True)
class ConstraintSet:
    """Disjunction of conjunctions of match constraints; empty = anything."""

    any_of: tuple[tuple[MatchConstraint, ...], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.any_of

    def constraints(self) -> Iterable[MatchConstraint]:
        for all_of in self.any_of:
            yield from all_of


EMPTY_CONSTRAINTS = ConstraintSet()


PinnedProps = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class VertexStep:
    """A pattern's vertex, and a query plan's vertex step.

    The parser leaves ``binding`` None where the policy names no
    ``VertexId``; a plan names every vertex step.  ``pinned`` holds a
    request path's properties, which the parser never sets.
    """

    binding: str | None = None
    label: str | None = None
    constraints: ConstraintSet = EMPTY_CONSTRAINTS
    pinned: PinnedProps = ()
    auto: bool = False  # binding was generated, not declared in the policy
    category: str = uris.CAT_PATH_VERTEX


@dataclass(frozen=True)
class EdgeStep:
    """A pattern's edge, and a query plan's edge step."""

    binding: str | None = None
    type: str | None = None
    direction: str = DIRECTION_ANY
    min_len: int = 1
    max_len: int | None = 1  # None = unbounded
    constraints: ConstraintSet = EMPTY_CONSTRAINTS
    pinned: PinnedProps = ()
    category: str = uris.CAT_PATH_EDGE

    @property
    def is_single_hop(self) -> bool:
        return self.min_len == 1 and self.max_len == 1


PlanStep = Union[VertexStep, EdgeStep]


@dataclass(frozen=True)
class Pattern:
    pattern_id: str
    steps: tuple[PlanStep, ...]

    def binding_names(self) -> list[str]:
        return [step.binding for step in self.steps if step.binding is not None]


# Condition expression tree.


@dataclass(frozen=True)
class Apply:
    function: str
    args: tuple["ConditionExpr", ...]


@dataclass(frozen=True)
class Designator:
    attribute_id: str
    category: str
    binding_ref: str


@dataclass(frozen=True)
class Literal:
    value: str


ConditionExpr = Union[Apply, Designator, Literal]


@dataclass(frozen=True)
class Rule:
    rule_id: str
    effect: str
    target: ConstraintSet | None = None
    pattern: Pattern | None = None
    pattern_condition: ConditionExpr | None = None


@dataclass(frozen=True)
class Policy:
    policy_id: str
    rule_combining_alg: str
    target: ConstraintSet | None = None
    meta: Meta | None = None
    rules: tuple[Rule, ...] = ()
    warnings: tuple[str, ...] = field(default=(), compare=False)


# -- parsing ---------------------------------------------------------------


def _fail(path: str, reason: str) -> None:
    raise PolicySchemaError([Violation(path, reason)])


def _require_attr(elem: ET.Element, name: str, path: str) -> str:
    value = elem.get(name)
    if value is None or not value.strip():
        _fail(path, f"missing required attribute {name!r}")
    return value


def _check_attrs(
    elem: ET.Element, known: set[str], path: str, warnings: list[str]
) -> None:
    for attr in elem.attrib:
        if attr not in known:
            warnings.append(f"{path}: ignored unknown attribute {attr!r}")


def _int_attr(elem: ET.Element, name: str, path: str) -> int | None:
    raw = elem.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        _fail(path, f"attribute {name}={raw!r} is not an integer")


def parse_policy(xml_text: str) -> Policy:
    """Parse policy XML into a validated :class:`Policy`.

    Raises :class:`PolicySchemaError` on malformed XML, schema violations
    or any failed policy invariant (the error carries the violation list).
    """
    root = parse_xml(xml_text, lambda m: PolicySchemaError([Violation("Policy", m)]))
    if not is_core(root, "Policy"):
        _fail("Policy", f"root element is {root.tag!r}, expected Policy")
    warnings: list[str] = []
    path = "Policy"
    _check_attrs(root, {"PolicyId", "RuleCombiningAlgId", "Version"}, path, warnings)
    policy_id = _require_attr(root, "PolicyId", path)
    alg = _require_attr(root, "RuleCombiningAlgId", path)

    target: ConstraintSet | None = None
    meta: Meta | None = None
    rules: list[Rule] = []
    for child in root:
        if is_core(child, "Description"):
            continue
        if is_core(child, "Target"):
            if target is not None:
                _fail(path, "more than one Target")
            target = _parse_target(child, f"{path}/Target", warnings)
        elif is_ext(child, "Meta"):
            if meta is not None:
                _fail(path, "more than one Meta")
            meta = _parse_meta(child, f"{path}/Meta", warnings)
        elif is_core(child, "Rule"):
            rules.append(_parse_rule(child, path, warnings, len(rules)))
        elif in_ext_ns(child):
            _fail(path, f"unexpected xacml4g element {local_name(child)!r}")
        else:
            warnings.append(f"{path}: ignored unknown element {local_name(child)!r}")
    if meta is not None:
        # a Meta subset keeps only the declared entities
        for rule in rules:
            for i, step in enumerate(rule.pattern.steps if rule.pattern else ()):
                if isinstance(step, VertexStep):
                    what, kind, declared = "Label", step.label, meta.vertex_entities
                else:
                    what, kind, declared = "Type", step.type, meta.edge_entities
                if kind is not None and kind not in declared:
                    warnings.append(
                        f"{path}/Rule[{rule.rule_id}]/Pattern/step[{i}]: {what} {kind!r}"
                        " is not declared in Meta, so the rule never matches on a Meta subset"
                    )

    policy = Policy(
        policy_id=policy_id,
        rule_combining_alg=alg,
        target=target,
        meta=meta,
        rules=tuple(rules),
        warnings=tuple(warnings),
    )
    violations = validate_policy(policy)
    if violations:
        raise PolicySchemaError(violations)
    return policy


def _parse_meta(elem: ET.Element, path: str, warnings: list[str]) -> Meta:
    _check_attrs(elem, set(), path, warnings)
    vertex_entities: list[str] = []
    edge_entities: list[str] = []
    for child in elem:
        if is_ext(child, "Vertices"):
            for entity in child:
                if not is_ext(entity, "VertexEntity"):
                    _fail(path, f"unexpected element {local_name(entity)!r} in Vertices")
                vertex_entities.append(text_of(entity))
        elif is_ext(child, "Edges"):
            for entity in child:
                if not is_ext(entity, "EdgeEntity"):
                    _fail(path, f"unexpected element {local_name(entity)!r} in Edges")
                edge_entities.append(text_of(entity))
        else:
            _fail(path, f"unexpected element {local_name(child)!r} in Meta")
    return Meta(tuple(vertex_entities), tuple(edge_entities))


def _parse_target(elem: ET.Element, path: str, warnings: list[str]) -> ConstraintSet:
    _check_attrs(elem, set(), path, warnings)
    return _parse_anyofs(list(elem), path, warnings)


def _parse_anyofs(
    children: list[ET.Element], path: str, warnings: list[str]
) -> ConstraintSet:
    """The constraints of a Target's or a pattern step's AnyOf children:
    every AnyOf holds, each by one of its AllOfs, each by all its Matches
    (XACML 3.0 sections 5.6-5.8).  So the set has one alternative per way
    to pick an AllOf of every AnyOf, its Matches in document order.  An
    empty AnyOf or AllOf is refused, and so are AnyOfs that would join to
    more than MAX_ALTERNATIVES alternatives or MAX_JOINED_MATCHES Matches
    in all, before any is built."""
    any_ofs: list[list[tuple[MatchConstraint, ...]]] = []
    alternatives = 1
    matches = 0  # Matches of the alternatives joined so far, all together
    for child in children:
        if not is_core(child, "AnyOf"):
            _fail(path, f"unexpected element {local_name(child)!r}, expected AnyOf")
        all_ofs = []
        for i, all_of_elem in enumerate(child):
            if not is_core(all_of_elem, "AllOf"):
                _fail(path, f"unexpected element {local_name(all_of_elem)!r} in AnyOf")
            all_of_path = f"{path}/AnyOf/AllOf[{i}]"
            if len(all_of_elem) == 0:
                _fail(all_of_path, "empty AllOf")
            all_ofs.append(tuple(_parse_match(m, all_of_path, warnings) for m in all_of_elem))
        if not all_ofs:
            _fail(path, "empty AnyOf")
        # each old alternative gains each AllOf's Matches in turn
        matches = matches * len(all_ofs) + alternatives * sum(map(len, all_ofs))
        alternatives *= len(all_ofs)
        if alternatives > MAX_ALTERNATIVES:
            _fail(path, f"AnyOfs join to more than {MAX_ALTERNATIVES} alternatives")
        if matches > MAX_JOINED_MATCHES:
            _fail(path, f"AnyOfs join to more than {MAX_JOINED_MATCHES} Matches")
        any_ofs.append(all_ofs)
    if not any_ofs:
        return EMPTY_CONSTRAINTS
    return ConstraintSet(tuple(
        tuple(chain.from_iterable(picked)) for picked in product(*any_ofs)
    ))


def _parse_match(elem: ET.Element, path: str, warnings: list[str]) -> MatchConstraint:
    if not is_core(elem, "Match"):
        _fail(path, f"unexpected element {local_name(elem)!r}, expected Match")
    _check_attrs(elem, {"MatchId"}, path, warnings)
    match_id = _require_attr(elem, "MatchId", path)
    literal: str | None = None
    designator: ET.Element | None = None
    for child in elem:
        if is_core(child, "AttributeValue"):
            if literal is not None:
                _fail(path, "Match has more than one AttributeValue")
            literal = text_of(child)
        elif is_core(child, "AttributeDesignator"):
            if designator is not None:
                _fail(path, "Match has more than one AttributeDesignator")
            designator = child
        else:
            _fail(path, f"unexpected element {local_name(child)!r} in Match")
    if literal is None or designator is None:
        _fail(path, "Match needs an AttributeValue and an AttributeDesignator")
    _check_attrs(
        designator,
        {"AttributeId", "Category", "DataType", "MustBePresent"},
        f"{path}/AttributeDesignator",
        warnings,
    )
    return MatchConstraint(
        match_function=match_id,
        literal=literal,
        attribute_id=_require_attr(designator, "AttributeId", path),
        category=_require_attr(designator, "Category", path),
    )


def _parse_rule(
    elem: ET.Element, parent_path: str, warnings: list[str], index: int
) -> Rule:
    rule_id = elem.get("RuleId") or f"rule[{index}]"
    path = f"{parent_path}/Rule[{rule_id}]"
    _check_attrs(elem, {"RuleId", "Effect"}, path, warnings)
    if elem.get("RuleId") is None:
        _fail(path, "missing required attribute 'RuleId'")
    effect = _require_attr(elem, "Effect", path)

    target: ConstraintSet | None = None
    pattern: Pattern | None = None
    condition: ConditionExpr | None = None
    for child in elem:
        if is_core(child, "Description"):
            continue
        if is_core(child, "Target"):
            if target is not None:
                _fail(path, "more than one Target")
            target = _parse_target(child, f"{path}/Target", warnings)
        elif is_ext(child, "Pattern"):
            if pattern is not None:
                _fail(path, "more than one Pattern")
            pattern = _parse_pattern(child, f"{path}/Pattern", warnings)
        elif is_ext(child, "PatternCondition"):
            if condition is not None:
                _fail(path, "more than one PatternCondition")
            condition = _parse_pattern_condition(
                child, f"{path}/PatternCondition", warnings
            )
        elif is_core(child, "Condition"):
            _fail(path, "standard Condition elements are not supported")
        elif in_ext_ns(child):
            _fail(path, f"unexpected xacml4g element {local_name(child)!r}")
        else:
            warnings.append(f"{path}: ignored unknown element {local_name(child)!r}")
    return Rule(
        rule_id=rule_id,
        effect=effect,
        target=target,
        pattern=pattern,
        pattern_condition=condition,
    )


def _parse_pattern(elem: ET.Element, path: str, warnings: list[str]) -> Pattern:
    _check_attrs(elem, {"PatternId"}, path, warnings)
    pattern_id = _require_attr(elem, "PatternId", path)
    paths = [c for c in elem if is_ext(c, "Path")]
    if len(paths) != 1 or len(paths) != len(list(elem)):
        _fail(path, "Pattern must contain exactly one Path")
    steps: list[PlanStep] = []
    _parse_path(paths[0], f"{path}/Path", warnings, steps)
    return Pattern(pattern_id=pattern_id, steps=tuple(steps))


def _parse_path(
    elem: ET.Element, path: str, warnings: list[str], steps: list[PlanStep], depth: int = 1
) -> None:
    """Append the path's steps to ``steps`` left to right; a nested Path
    adds its steps in place, since nesting depth carries no meaning."""
    if depth > MAX_PATH_DEPTH:
        _fail(path, f"Path nested more than {MAX_PATH_DEPTH} levels deep")
    _check_attrs(elem, set(), path, warnings)
    for i, child in enumerate(elem):
        child_path = f"{path}/{local_name(child)}[{i}]"
        if is_ext(child, "Vertex"):
            steps.append(_parse_vertex(child, child_path, warnings))
        elif is_ext(child, "Edge"):
            steps.append(_parse_edge(child, child_path, warnings))
        elif is_ext(child, "Path"):
            _parse_path(child, child_path, warnings, steps, depth + 1)
        else:
            _fail(path, f"unexpected element {local_name(child)!r} in Path")
    if len(elem) == 0:
        _fail(path, "empty Path")


def _parse_vertex(elem: ET.Element, path: str, warnings: list[str]) -> VertexStep:
    _check_attrs(elem, {"VertexId", "Label", "Category"}, path, warnings)
    return VertexStep(
        binding=elem.get("VertexId"),
        label=elem.get("Label"),
        constraints=_parse_anyofs(list(elem), path, warnings),
        category=elem.get("Category", uris.CAT_PATH_VERTEX),
    )


def _parse_edge(elem: ET.Element, path: str, warnings: list[str]) -> EdgeStep:
    _check_attrs(
        elem,
        {"EdgeId", "Type", "MinLength", "MaxLength", "Length", "Category", "Direction"},
        path,
        warnings,
    )
    length = _int_attr(elem, "Length", path)
    min_length = _int_attr(elem, "MinLength", path)
    max_length = _int_attr(elem, "MaxLength", path)
    if length is not None and (min_length is not None or max_length is not None):
        _fail(path, "Length is mutually exclusive with MinLength/MaxLength")
    if length is not None:
        min_len, max_len = length, length
    elif min_length is None and max_length is None:
        min_len, max_len = 1, 1
    else:
        min_len = 1 if min_length is None else min_length
        max_len = max_length  # None = unbounded
    return EdgeStep(
        binding=elem.get("EdgeId"),
        type=elem.get("Type"),
        direction=elem.get("Direction", DIRECTION_ANY),
        min_len=min_len,
        max_len=max_len,
        constraints=_parse_anyofs(list(elem), path, warnings),
        category=elem.get("Category", uris.CAT_PATH_EDGE),
    )


def _parse_pattern_condition(
    elem: ET.Element, path: str, warnings: list[str]
) -> ConditionExpr:
    _check_attrs(elem, set(), path, warnings)
    children = list(elem)
    if len(children) != 1 or not is_core(children[0], "Apply"):
        _fail(path, "PatternCondition must contain exactly one Apply")
    return _parse_apply(children[0], f"{path}/Apply", warnings)


def _parse_apply(elem: ET.Element, path: str, warnings: list[str], depth: int = 1) -> Apply:
    if depth > MAX_APPLY_DEPTH:
        _fail(path, f"Apply nested more than {MAX_APPLY_DEPTH} levels deep")
    _check_attrs(elem, {"FunctionId"}, path, warnings)
    function = _require_attr(elem, "FunctionId", path)
    args: list[ConditionExpr] = []
    for i, child in enumerate(elem):
        child_path = f"{path}/{local_name(child)}[{i}]"
        if is_core(child, "Apply"):
            args.append(_parse_apply(child, child_path, warnings, depth + 1))
        elif is_core(child, "AttributeValue"):
            args.append(Literal(text_of(child)))
        elif is_core(child, "AttributeDesignator"):
            args.append(_parse_condition_designator(child, child_path, warnings))
        else:
            _fail(path, f"unexpected element {local_name(child)!r} in Apply")
    return Apply(function=function, args=tuple(args))


def _parse_condition_designator(
    elem: ET.Element, path: str, warnings: list[str]
) -> Designator:
    _check_attrs(
        elem,
        {"AttributeId", "Category", "DataType", "MustBePresent", "VertexId", "EdgeId"},
        path,
        warnings,
    )
    category = _require_attr(elem, "Category", path)
    vertex_ref = elem.get("VertexId")
    edge_ref = elem.get("EdgeId")
    if category == uris.CAT_PATH_VERTEX:
        ref, wrong, expected = vertex_ref, edge_ref, "a VertexId"
    elif category == uris.CAT_PATH_EDGE:
        ref, wrong, expected = edge_ref, vertex_ref, "an EdgeId"
    else:  # either reference reads; condition_faults judges the category
        ref = edge_ref if vertex_ref is None else vertex_ref
        wrong = None if vertex_ref is None else edge_ref
        expected = "a VertexId or an EdgeId"
    if ref is None or wrong is not None:
        _fail(path, f"designator with category {category!r} needs exactly {expected}")
    return Designator(
        attribute_id=_require_attr(elem, "AttributeId", path),
        category=category,
        binding_ref=ref,
    )


# -- validation ------------------------------------------------------------


def validate_policy(policy: Policy) -> list[Violation]:
    """All invariant checks as data; empty list means the policy is valid.

    ``parse_policy`` runs this and raises when it is non-empty, but it also
    works on directly constructed Policy objects.
    """
    violations: list[Violation] = []
    path = "Policy"

    if policy.rule_combining_alg not in uris.COMBINING_ALGORITHMS:
        violations.append(
            Violation(path, f"unsupported combining algorithm {policy.rule_combining_alg!r}")
        )
    if policy.meta is not None:
        _validate_meta(policy.meta, f"{path}/Meta", violations)
    if policy.target is not None:
        _validate_constraints(policy.target, f"{path}/Target", violations)
    seen_rule_ids: set[str] = set()
    for rule in policy.rules:
        rule_path = f"{path}/Rule[{rule.rule_id}]"
        if rule.rule_id in seen_rule_ids:
            violations.append(Violation(rule_path, "duplicate RuleId"))
        seen_rule_ids.add(rule.rule_id)
        violations.extend(rule_violations(rule, rule_path))
    return violations


def _validate_meta(meta: Meta, path: str, violations: list[Violation]) -> None:
    if not meta.vertex_entities:
        violations.append(Violation(path, "Meta needs at least one VertexEntity"))
    if not meta.edge_entities:
        violations.append(Violation(path, "Meta needs at least one EdgeEntity"))
    for entity in (*meta.vertex_entities, *meta.edge_entities):
        if not entity:
            violations.append(Violation(path, "empty entity name in Meta"))


def _validate_constraints(
    constraints: ConstraintSet, path: str, violations: list[Violation]
) -> None:
    for constraint in constraints.constraints():
        if constraint.match_function not in uris.MATCH_FUNCTIONS:
            violations.append(
                Violation(path, f"unsupported match function {constraint.match_function!r}")
            )
        if not constraint.attribute_id:
            violations.append(Violation(path, "Match designator without AttributeId"))


def rule_violations(rule: Rule, path: str, shape_only: bool = False) -> list[Violation]:
    """The rule's violations, in the order validation reports them.

    A condition's faults are those :func:`condition_faults` yields for the
    pattern's :func:`readable_names`, each in the words of the error that
    evaluation raises for it, so ``validate`` and an Indeterminate reason
    say the same thing.  With ``shape_only``, only the violations that
    keep the rule from compiling: an effect other than Permit or Deny, a
    PatternCondition without a Pattern, every fault in the pattern, and a
    condition nested more than MAX_APPLY_DEPTH levels deep.  Faults in a
    Target, and a condition's faults, are left to evaluation, which
    decides Indeterminate on them.
    """
    violations: list[Violation] = []
    if rule.effect not in (EFFECT_PERMIT, EFFECT_DENY):
        violations.append(Violation(path, f"Effect must be Permit or Deny, got {rule.effect!r}"))
    if rule.target is not None and not shape_only:
        _validate_constraints(rule.target, f"{path}/Target", violations)
    if rule.pattern_condition is not None and rule.pattern is None:
        violations.append(
            Violation(path, "PatternCondition requires a Pattern in the same rule")
        )
    declared: dict[str, str] = {}
    if rule.pattern is not None:
        declared = _validate_pattern(rule.pattern, f"{path}/Pattern", violations)
    if rule.pattern_condition is not None:
        condition_path = f"{path}/PatternCondition"
        too_deep = _condition_depth_violations(rule.pattern_condition, condition_path)
        violations.extend(too_deep)
        if not too_deep and not shape_only:
            violations.extend(
                Violation(condition_path, str(error(arg)))
                for error, arg in condition_faults(rule.pattern_condition, declared)
            )
    return violations


def _condition_depth_violations(expr: ConditionExpr, path: str) -> list[Violation]:
    """A violation when ``expr`` nests Apply more than MAX_APPLY_DEPTH
    levels deep, as parsing reports it, else none.  The walk keeps its own
    stack, so it measures a condition built in code at any depth."""
    stack = [(expr, 1)]
    while stack:
        expr, depth = stack.pop()
        if isinstance(expr, Apply):
            if depth > MAX_APPLY_DEPTH:
                return [Violation(path, f"Apply nested more than {MAX_APPLY_DEPTH} levels deep")]
            stack.extend((arg, depth + 1) for arg in expr.args)
    return []


def _validate_pattern(
    pattern: Pattern, path: str, violations: list[Violation]
) -> dict[str, str]:
    """Check the pattern's shape and each step, parsed or built in code
    alike; returns :func:`readable_names` of the steps, or none when the
    steps do not alternate."""
    steps = pattern.steps
    alternates = len(steps) >= 3 and len(steps) % 2 == 1
    for i, step in enumerate(steps):
        want_vertex = i % 2 == 0
        if isinstance(step, VertexStep) != want_vertex:
            alternates = False
    if not alternates:
        violations.append(
            Violation(path, "pattern must alternate vertex,edge,... with >= 2 vertices")
        )
        return {}

    subject_count = 0
    resource_positions: list[int] = []
    declared: set[str] = set()
    for i, step in enumerate(steps):
        step_path = f"{path}/step[{i}]"
        is_vertex = isinstance(step, VertexStep)
        kind = "vertex" if is_vertex else "edge"
        if step.category not in (uris.VERTEX_CATEGORIES if is_vertex else uris.EDGE_CATEGORIES):
            violations.append(Violation(step_path, f"invalid {kind} category {step.category!r}"))
        if step.category == uris.CAT_RESOURCE:
            resource_positions.append(i)
        if is_vertex:
            subject_count += step.category == uris.CAT_SUBJECT
        else:
            if step.direction not in DIRECTIONS:
                violations.append(Violation(step_path, f"invalid direction {step.direction!r}"))
            # a bool is an int to Python, but not a length
            integral = type(step.min_len) is int and type(step.max_len) in (int, type(None))
            if not integral:
                violations.append(Violation(
                    step_path,
                    f"length bounds must be integers, got {step.min_len!r} and {step.max_len!r}",
                ))
            if integral and step.min_len < 1:
                violations.append(Violation(step_path, "minimum length must be >= 1"))
            if integral and step.max_len is not None and step.max_len < step.min_len:
                violations.append(
                    Violation(
                        step_path,
                        f"length range [{step.min_len}, {step.max_len}] is inverted",
                    )
                )
            if step.binding is not None and not step.is_single_hop:
                violations.append(
                    Violation(
                        step_path,
                        "an EdgeId cannot name a variable-length segment",
                    )
                )
        _validate_constraints(step.constraints, step_path, violations)
        if step.binding in declared:
            violations.append(Violation(step_path, f"duplicate binding name {step.binding!r}"))
        if step.binding is not None:
            declared.add(step.binding)

    if subject_count != 1:
        violations.append(
            Violation(path, f"pattern must have exactly one subject vertex, found {subject_count}")
        )
    if len(resource_positions) != 1:
        violations.append(
            Violation(
                path,
                f"pattern must have exactly one resource element, found {len(resource_positions)}",
            )
        )
    else:
        pos = resource_positions[0]
        if isinstance(steps[pos], EdgeStep) and pos != len(steps) - 2:
            violations.append(
                Violation(path, "a resource edge must be the final edge of the pattern")
            )
    return readable_names(steps)


def readable_names(steps: Iterable[PlanStep]) -> dict[str, str]:
    """Each name a condition may read, with the category a designator
    reads it with: each declared vertex name and each single-hop edge's
    name.  Validation and a query plan's filter both read these names."""
    return {
        step.binding: uris.CAT_PATH_VERTEX if isinstance(step, VertexStep) else uris.CAT_PATH_EDGE
        for step in steps
        if step.binding is not None
        and (not step.auto if isinstance(step, VertexStep) else step.is_single_hop)
    }


def condition_faults(
    expr: ConditionExpr, bound: Mapping[str, str]
) -> Iterator[tuple[type[EngineError], str]]:
    """Each fault of a condition, as ``(error type, argument)``.

    ``bound`` maps each name a match binds to the category a designator
    must read it with.  The faults come in the order an eager, depth-first
    evaluation meets them: a node's own fault (an unknown function, a
    logical without arguments, a comparison without two) first, then its
    arguments' faults, left to right.  ``error(argument)`` is the error
    that evaluation raises, and its text is what validation reports.
    """
    if isinstance(expr, Literal):
        return
    if isinstance(expr, Designator):
        name, category = expr.binding_ref, expr.category
        if name not in bound:
            yield FilterEvalError, f"condition references unbound name {name!r}"
        elif bound[name] != category:
            yield FilterEvalError, (
                f"condition reads {name!r} with category {category!r}, not {bound[name]!r}"
            )
        return
    if not isinstance(expr, Apply):
        yield FilterEvalError, f"unsupported expression node {expr!r}"
        return
    if expr.function not in uris.CONDITION_FUNCTIONS:
        yield UnknownFunctionError, expr.function
    elif expr.function in (uris.FN_AND, uris.FN_OR):
        if not expr.args:
            yield FilterEvalError, f"{expr.function} applied to zero arguments"
    elif len(expr.args) != 2:
        yield FilterEvalError, f"{expr.function} needs two arguments, got {len(expr.args)}"
    for arg in expr.args:
        yield from condition_faults(arg, bound)


# -- directory loading -----------------------------------------------------


def policy_files(directory) -> list[FsPath]:
    """Policy files in load order (lexicographic by file name)."""
    d = FsPath(directory)
    return sorted(p for p in d.iterdir() if p.is_file() and p.suffix == ".xml")


def load_policy_dir(directory) -> list[Policy]:
    """Parse every ``*.xml`` policy in the directory, in load order."""
    policies = []
    for file in policy_files(directory):
        try:
            text = file.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise PolicySchemaError([Violation(file.name, f"not UTF-8: {exc}")]) from None
        try:
            policies.append(parse_policy(text))
        except PolicySchemaError as exc:
            raise PolicySchemaError(
                [Violation(f"{file.name}: {v.path}", v.reason) for v in exc.violations]
            ) from exc
    return policies
