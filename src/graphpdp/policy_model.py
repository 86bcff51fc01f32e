"""Parse and validate XACML4G policies.

The supported grammar is a core-XACML subset (Policy, Rule, Target with
AnyOf/AllOf/Match) plus the xacml4g extension elements: Meta at policy
level, Pattern/Path/Vertex/Edge and PatternCondition at rule level.
Elements are recognized by namespace URI and local name; unknown elements
in the xacml4g namespace are rejected, unknown attributes are ignored but
recorded as warnings on the parsed policy.

Standard rule ``Condition`` elements are outside the subset and rejected
rather than silently ignored: dropping a condition would loosen the policy.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Iterable, Union

from . import uris
from .errors import PolicySchemaError
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


@dataclass(frozen=True)
class PathVertexSpec:
    vertex_id: str | None = None
    label: str | None = None
    category: str = uris.CAT_PATH_VERTEX
    constraints: ConstraintSet = EMPTY_CONSTRAINTS


@dataclass(frozen=True)
class PathEdgeSpec:
    edge_id: str | None = None
    type: str | None = None
    category: str = uris.CAT_PATH_EDGE
    direction: str = DIRECTION_ANY
    min_len: int = 1
    max_len: int | None = 1  # None = unbounded
    constraints: ConstraintSet = EMPTY_CONSTRAINTS

    @property
    def is_single_hop(self) -> bool:
        return self.min_len == 1 and self.max_len == 1


PathStep = Union[PathVertexSpec, PathEdgeSpec]


@dataclass(frozen=True)
class Pattern:
    pattern_id: str
    steps: tuple[PathStep, ...]

    def binding_names(self) -> list[str]:
        names = []
        for step in self.steps:
            name = (
                step.vertex_id if isinstance(step, PathVertexSpec) else step.edge_id
            )
            if name is not None:
                names.append(name)
        return names


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
    any_of: list[tuple[MatchConstraint, ...]] = []
    for child in children:
        if not is_core(child, "AnyOf"):
            _fail(path, f"unexpected element {local_name(child)!r}, expected AnyOf")
        for i, all_of_elem in enumerate(child):
            if not is_core(all_of_elem, "AllOf"):
                _fail(path, f"unexpected element {local_name(all_of_elem)!r} in AnyOf")
            matches = tuple(
                _parse_match(m, f"{path}/AnyOf/AllOf[{i}]", warnings)
                for m in all_of_elem
            )
            any_of.append(matches)
    return ConstraintSet(tuple(any_of))


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
    if effect not in (EFFECT_PERMIT, EFFECT_DENY):
        _fail(path, f"Effect must be Permit or Deny, got {effect!r}")

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
    steps: list[PathStep] = []
    _parse_path(paths[0], f"{path}/Path", warnings, steps)
    return Pattern(pattern_id=pattern_id, steps=tuple(steps))


def _parse_path(
    elem: ET.Element, path: str, warnings: list[str], steps: list[PathStep]
) -> None:
    """Append the path's steps to ``steps`` left to right; a nested Path
    adds its steps in place, since nesting depth carries no meaning."""
    _check_attrs(elem, set(), path, warnings)
    for i, child in enumerate(elem):
        child_path = f"{path}/{local_name(child)}[{i}]"
        if is_ext(child, "Vertex"):
            steps.append(_parse_vertex(child, child_path, warnings))
        elif is_ext(child, "Edge"):
            steps.append(_parse_edge(child, child_path, warnings))
        elif is_ext(child, "Path"):
            _parse_path(child, child_path, warnings, steps)
        else:
            _fail(path, f"unexpected element {local_name(child)!r} in Path")
    if len(elem) == 0:
        _fail(path, "empty Path")


def _parse_vertex(
    elem: ET.Element, path: str, warnings: list[str]
) -> PathVertexSpec:
    _check_attrs(elem, {"VertexId", "Label", "Category"}, path, warnings)
    category = elem.get("Category", uris.CAT_PATH_VERTEX)
    if category not in uris.VERTEX_CATEGORIES:
        _fail(path, f"invalid vertex category {category!r}")
    return PathVertexSpec(
        vertex_id=elem.get("VertexId"),
        label=elem.get("Label"),
        category=category,
        constraints=_parse_anyofs(list(elem), path, warnings),
    )


def _parse_edge(elem: ET.Element, path: str, warnings: list[str]) -> PathEdgeSpec:
    _check_attrs(
        elem,
        {"EdgeId", "Type", "MinLength", "MaxLength", "Length", "Category", "Direction"},
        path,
        warnings,
    )
    category = elem.get("Category", uris.CAT_PATH_EDGE)
    if category not in uris.EDGE_CATEGORIES:
        _fail(path, f"invalid edge category {category!r}")
    direction = elem.get("Direction", DIRECTION_ANY)
    if direction not in (DIRECTION_FROM, DIRECTION_TO, DIRECTION_ANY):
        _fail(path, f"invalid direction {direction!r}")

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
    return PathEdgeSpec(
        edge_id=elem.get("EdgeId"),
        type=elem.get("Type"),
        category=category,
        direction=direction,
        min_len=min_len,
        max_len=max_len,
        constraints=_parse_anyofs(list(elem), path, warnings),
    )


def _parse_pattern_condition(
    elem: ET.Element, path: str, warnings: list[str]
) -> ConditionExpr:
    _check_attrs(elem, set(), path, warnings)
    children = list(elem)
    if len(children) != 1 or not is_core(children[0], "Apply"):
        _fail(path, "PatternCondition must contain exactly one Apply")
    return _parse_apply(children[0], f"{path}/Apply", warnings)


def _parse_apply(elem: ET.Element, path: str, warnings: list[str]) -> Apply:
    _check_attrs(elem, {"FunctionId"}, path, warnings)
    function = _require_attr(elem, "FunctionId", path)
    args: list[ConditionExpr] = []
    for i, child in enumerate(elem):
        child_path = f"{path}/{local_name(child)}[{i}]"
        if is_core(child, "Apply"):
            args.append(_parse_apply(child, child_path, warnings))
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
    if category not in (uris.CAT_PATH_VERTEX, uris.CAT_PATH_EDGE):
        _fail(path, f"condition designator category must be path vertex/edge, got {category!r}")
    vertex_ref = elem.get("VertexId")
    edge_ref = elem.get("EdgeId")
    if category == uris.CAT_PATH_VERTEX:
        ref, wrong = vertex_ref, edge_ref
        expected = "VertexId"
    else:
        ref, wrong = edge_ref, vertex_ref
        expected = "EdgeId"
    if ref is None or wrong is not None:
        _fail(path, f"designator with category {category!r} needs exactly a {expected}")
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
        _validate_rule(rule, rule_path, violations)
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


def _validate_rule(rule: Rule, path: str, violations: list[Violation]) -> None:
    if rule.effect not in (EFFECT_PERMIT, EFFECT_DENY):
        violations.append(Violation(path, f"invalid effect {rule.effect!r}"))
    if rule.target is not None:
        _validate_constraints(rule.target, f"{path}/Target", violations)
    if rule.pattern_condition is not None and rule.pattern is None:
        violations.append(
            Violation(path, "PatternCondition requires a Pattern in the same rule")
        )
    declared: dict[str, str] = {}
    if rule.pattern is not None:
        declared = _validate_pattern(rule.pattern, f"{path}/Pattern", violations)
    if rule.pattern_condition is not None:
        _validate_condition(
            rule.pattern_condition, declared, f"{path}/PatternCondition", violations
        )


def _validate_pattern(
    pattern: Pattern, path: str, violations: list[Violation]
) -> dict[str, str]:
    """Check pattern shape; returns declared binding name -> 'vertex'/'edge'."""
    steps = pattern.steps
    declared: dict[str, str] = {}

    alternates = len(steps) >= 3 and len(steps) % 2 == 1
    for i, step in enumerate(steps):
        want_vertex = i % 2 == 0
        if isinstance(step, PathVertexSpec) != want_vertex:
            alternates = False
    if not alternates:
        violations.append(
            Violation(path, "pattern must alternate vertex,edge,... with >= 2 vertices")
        )
        return declared

    subject_count = 0
    resource_positions: list[int] = []
    for i, step in enumerate(steps):
        step_path = f"{path}/step[{i}]"
        if isinstance(step, PathVertexSpec):
            if step.category == uris.CAT_SUBJECT:
                subject_count += 1
            if step.category == uris.CAT_RESOURCE:
                resource_positions.append(i)
            name = step.vertex_id
            kind = "vertex"
        else:
            if step.category == uris.CAT_RESOURCE:
                resource_positions.append(i)
            if step.min_len < 1:
                violations.append(Violation(step_path, "minimum length must be >= 1"))
            if step.max_len is not None and step.max_len < step.min_len:
                violations.append(
                    Violation(
                        step_path,
                        f"length range [{step.min_len}, {step.max_len}] is inverted",
                    )
                )
            if step.edge_id is not None and not step.is_single_hop:
                violations.append(
                    Violation(
                        step_path,
                        "an EdgeId cannot name a variable-length segment",
                    )
                )
            name = step.edge_id
            kind = "edge"
        _validate_constraints(step.constraints, step_path, violations)
        if name is not None:
            if name in declared:
                violations.append(
                    Violation(step_path, f"duplicate binding name {name!r}")
                )
            declared[name] = kind

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
        if isinstance(steps[pos], PathEdgeSpec) and pos != len(steps) - 2:
            violations.append(
                Violation(path, "a resource edge must be the final edge of the pattern")
            )
    return declared


def _validate_condition(
    expr: ConditionExpr,
    declared: dict[str, str],
    path: str,
    violations: list[Violation],
) -> None:
    if isinstance(expr, Literal):
        return
    if isinstance(expr, Designator):
        kind = "vertex" if expr.category == uris.CAT_PATH_VERTEX else "edge"
        if expr.binding_ref not in declared:
            violations.append(
                Violation(path, f"designator references undeclared binding {expr.binding_ref!r}")
            )
        elif declared[expr.binding_ref] != kind:
            declared_as = "an edge" if declared[expr.binding_ref] == "edge" else "a vertex"
            violations.append(
                Violation(
                    path,
                    f"binding {expr.binding_ref!r} is {declared_as}, "
                    f"but the designator category says {kind}",
                )
            )
        return
    if expr.function not in uris.CONDITION_FUNCTIONS:
        violations.append(Violation(path, f"unknown function {expr.function!r}"))
    elif expr.function in (uris.FN_AND, uris.FN_OR):
        if not expr.args:
            violations.append(
                Violation(path, f"{expr.function} needs at least one argument")
            )
    elif len(expr.args) != 2:
        violations.append(
            Violation(path, f"{expr.function} needs exactly two arguments")
        )
    for arg in expr.args:
        _validate_condition(arg, declared, path, violations)


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
            policies.append(parse_policy(file.read_text(encoding="utf-8")))
        except PolicySchemaError as exc:
            raise PolicySchemaError(
                [Violation(f"{file.name}: {v.path}", v.reason) for v in exc.violations]
            ) from exc
    return policies
