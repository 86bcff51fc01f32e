"""Canonical XML writer for parsed policies, used by the round-trip tests.

``parse_policy(serialize_policy(p)) == p`` for every policy the parser
produces; a nested Path comes out as one flat path.
"""

from __future__ import annotations

from graphpdp import uris
from graphpdp.policy_model import (
    DIRECTION_ANY,
    ConditionExpr,
    ConstraintSet,
    Designator,
    Literal,
    PathEdgeSpec,
    PathVertexSpec,
    Policy,
    Rule,
)
from graphpdp.xmlutil import xml_attr, xml_escape

_XMLNS = (
    f'xmlns:xacml={xml_attr(uris.XACML3_NS)} xmlns:xacml4g={xml_attr(uris.XACML4G_NS)}'
)


def serialize_policy(policy: Policy) -> str:
    """Canonical XML rendering; parse(serialize(p)) reproduces p."""
    out: list[str] = []
    out.append(
        f"<xacml:Policy {_XMLNS} PolicyId={xml_attr(policy.policy_id)} "
        f"RuleCombiningAlgId={xml_attr(policy.rule_combining_alg)}>"
    )
    if policy.target is not None:
        _emit_target(out, policy.target, "  ")
    if policy.meta is not None:
        out.append("  <xacml4g:Meta>")
        out.append("    <xacml4g:Vertices>")
        for entity in policy.meta.vertex_entities:
            out.append(
                f"      <xacml4g:VertexEntity>{xml_escape(entity)}</xacml4g:VertexEntity>"
            )
        out.append("    </xacml4g:Vertices>")
        out.append("    <xacml4g:Edges>")
        for entity in policy.meta.edge_entities:
            out.append(
                f"      <xacml4g:EdgeEntity>{xml_escape(entity)}</xacml4g:EdgeEntity>"
            )
        out.append("    </xacml4g:Edges>")
        out.append("  </xacml4g:Meta>")
    for rule in policy.rules:
        _emit_rule(out, rule)
    out.append("</xacml:Policy>")
    return "\n".join(out) + "\n"


def _emit_target(out: list[str], target: ConstraintSet, indent: str) -> None:
    out.append(f"{indent}<xacml:Target>")
    _emit_anyofs(out, target, indent + "  ")
    out.append(f"{indent}</xacml:Target>")


def _emit_anyofs(out: list[str], constraints: ConstraintSet, indent: str) -> None:
    for all_of in constraints.any_of:
        out.append(f"{indent}<xacml:AnyOf>")
        out.append(f"{indent}  <xacml:AllOf>")
        for match in all_of:
            out.append(
                f"{indent}    <xacml:Match MatchId={xml_attr(match.match_function)}>"
            )
            out.append(
                f"{indent}      <xacml:AttributeValue>{xml_escape(match.literal)}"
                "</xacml:AttributeValue>"
            )
            out.append(
                f"{indent}      <xacml:AttributeDesignator "
                f"AttributeId={xml_attr(match.attribute_id)} "
                f"Category={xml_attr(match.category)}/>"
            )
            out.append(f"{indent}    </xacml:Match>")
        out.append(f"{indent}  </xacml:AllOf>")
        out.append(f"{indent}</xacml:AnyOf>")


def _emit_rule(out: list[str], rule: Rule) -> None:
    out.append(
        f"  <xacml:Rule RuleId={xml_attr(rule.rule_id)} Effect={xml_attr(rule.effect)}>"
    )
    if rule.target is not None:
        _emit_target(out, rule.target, "    ")
    if rule.pattern is not None:
        out.append(
            f"    <xacml4g:Pattern PatternId={xml_attr(rule.pattern.pattern_id)}>"
        )
        out.append("      <xacml4g:Path>")
        for step in rule.pattern.steps:
            if isinstance(step, PathVertexSpec):
                _emit_vertex(out, step, "        ")
            else:
                _emit_edge(out, step, "        ")
        out.append("      </xacml4g:Path>")
        out.append("    </xacml4g:Pattern>")
    if rule.pattern_condition is not None:
        out.append("    <xacml4g:PatternCondition>")
        _emit_condition(out, rule.pattern_condition, "      ")
        out.append("    </xacml4g:PatternCondition>")
    out.append("  </xacml:Rule>")


def _emit_vertex(out: list[str], step: PathVertexSpec, indent: str) -> None:
    attrs = []
    if step.vertex_id is not None:
        attrs.append(f"VertexId={xml_attr(step.vertex_id)}")
    if step.label is not None:
        attrs.append(f"Label={xml_attr(step.label)}")
    attrs.append(f"Category={xml_attr(step.category)}")
    head = f"{indent}<xacml4g:Vertex {' '.join(attrs)}"
    if step.constraints.is_empty:
        out.append(head + "/>")
    else:
        out.append(head + ">")
        _emit_anyofs(out, step.constraints, indent + "  ")
        out.append(f"{indent}</xacml4g:Vertex>")


def _emit_edge(out: list[str], step: PathEdgeSpec, indent: str) -> None:
    attrs = []
    if step.edge_id is not None:
        attrs.append(f"EdgeId={xml_attr(step.edge_id)}")
    if step.type is not None:
        attrs.append(f"Type={xml_attr(step.type)}")
    if step.min_len == step.max_len:
        if step.min_len != 1:
            attrs.append(f'Length="{step.min_len}"')
    else:
        if step.min_len != 1 or step.max_len is None:
            attrs.append(f'MinLength="{step.min_len}"')
        if step.max_len is not None:
            attrs.append(f'MaxLength="{step.max_len}"')
    attrs.append(f"Category={xml_attr(step.category)}")
    if step.direction != DIRECTION_ANY:
        attrs.append(f"Direction={xml_attr(step.direction)}")
    head = f"{indent}<xacml4g:Edge {' '.join(attrs)}"
    if step.constraints.is_empty:
        out.append(head + "/>")
    else:
        out.append(head + ">")
        _emit_anyofs(out, step.constraints, indent + "  ")
        out.append(f"{indent}</xacml4g:Edge>")


def _emit_condition(out: list[str], expr: ConditionExpr, indent: str) -> None:
    if isinstance(expr, Literal):
        out.append(
            f"{indent}<xacml:AttributeValue>{xml_escape(expr.value)}</xacml:AttributeValue>"
        )
    elif isinstance(expr, Designator):
        ref_attr = "VertexId" if expr.category == uris.CAT_PATH_VERTEX else "EdgeId"
        out.append(
            f"{indent}<xacml:AttributeDesignator "
            f"AttributeId={xml_attr(expr.attribute_id)} "
            f"Category={xml_attr(expr.category)} "
            f"{ref_attr}={xml_attr(expr.binding_ref)}/>"
        )
    else:
        out.append(f"{indent}<xacml:Apply FunctionId={xml_attr(expr.function)}>")
        for arg in expr.args:
            _emit_condition(out, arg, indent + "  ")
        out.append(f"{indent}</xacml:Apply>")
