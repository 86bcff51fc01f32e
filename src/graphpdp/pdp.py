"""Decision pipeline: targets, rule evaluation, combining, response XML.

Rules carrying a pattern are evaluated by intersecting the compiled rule
plan with the compiled request path on the graph snapshot; evaluation
errors never escape as exceptions but surface as Indeterminate with the
reason carried into the response status.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import uris
from .errors import EngineError, PolicyError
from .graph_store import PropertyGraph
from .pattern_compiler import (
    QueryPlan,
    compile_request_path,
    compile_rule_pattern,
)
from .path_matcher import DEFAULT_VARLEN_CAP, check_intersection
from .policy_model import ConstraintSet, Policy, Rule
from .request_model import Request, split_attribute_value
from .xmlutil import xml_attr, xml_escape

PERMIT_VALUE = "Permit"
DENY_VALUE = "Deny"
NOT_APPLICABLE_VALUE = "NotApplicable"
INDETERMINATE_VALUE = "Indeterminate"

MATCH = "Match"
NO_MATCH = "NoMatch"
INDETERMINATE_MATCH = "Indeterminate"


@dataclass(frozen=True)
class Decision:
    value: str
    reason: str | None = None

    def __post_init__(self):
        if self.value == INDETERMINATE_VALUE and self.reason is None:
            object.__setattr__(self, "reason", "unspecified evaluation error")


PERMIT = Decision(PERMIT_VALUE)
DENY = Decision(DENY_VALUE)
NOT_APPLICABLE = Decision(NOT_APPLICABLE_VALUE)


def indeterminate(reason: str) -> Decision:
    return Decision(INDETERMINATE_VALUE, reason)


def effect_decision(effect: str) -> Decision:
    return PERMIT if effect == PERMIT_VALUE else DENY


@dataclass(frozen=True)
class Response:
    decision: Decision
    status_code: str
    policy_ids: tuple[str, ...] = ()


def _status_for(decision: Decision) -> str:
    if decision.value == INDETERMINATE_VALUE:
        return uris.STATUS_PROCESSING_ERROR
    return uris.STATUS_OK


# -- target matching -------------------------------------------------------


def _attribute_bag(request: Request, category: str, attribute_id: str) -> list[str]:
    """Request values for one (category, attribute id) pair.

    Action attributes are taken verbatim; path-group attributes contribute
    the value part of their colon-split form.
    """
    if category == uris.CAT_ACTION:
        return request.action_values(attribute_id)
    values = []
    for group in request.path_groups:
        if group.category != category:
            continue
        for attr_id, raw in group.attributes:
            if attr_id != attribute_id:
                continue
            try:
                _, value = split_attribute_value(raw)
            except EngineError:
                continue
            values.append(value)
    return values


def _match_holds(match, request: Request) -> bool:
    bag = _attribute_bag(request, match.category, match.attribute_id)
    if match.match_function == uris.MATCH_STRING_EQUAL_IGNORE_CASE:
        return any(v.casefold() == match.literal.casefold() for v in bag)
    return any(v == match.literal for v in bag)


def match_target(target: ConstraintSet | None, request: Request) -> str:
    """Empty or absent target matches everything."""
    if target is None or target.is_empty:
        return MATCH
    for match in target.constraints():
        if match.match_function not in uris.MATCH_FUNCTIONS:
            return INDETERMINATE_MATCH
    for all_of in target.any_of:
        if all(_match_holds(m, request) for m in all_of):
            return MATCH
    return NO_MATCH


# -- rule and policy evaluation --------------------------------------------


def compile_rule(rule: Rule) -> QueryPlan | None:
    if rule.pattern is None:
        return None
    return compile_rule_pattern(rule.pattern, rule.pattern_condition)


def evaluate_rule(
    rule: Rule,
    rule_plan: QueryPlan | None,
    request: Request,
    request_plan: QueryPlan,
    graph: PropertyGraph | None,
    varlen_cap: int,
) -> Decision:
    """Target gate, then the pattern intersection when the rule has one.

    ``rule_plan`` is :func:`compile_rule` of ``rule``.
    """
    matched = match_target(rule.target, request)
    if matched == NO_MATCH:
        return NOT_APPLICABLE
    if matched == INDETERMINATE_MATCH:
        return indeterminate(f"rule {rule.rule_id!r}: target evaluation failed")

    if rule_plan is None:
        return effect_decision(rule.effect)
    if graph is None:
        return indeterminate(
            f"rule {rule.rule_id!r} has a pattern but no graph snapshot is loaded"
        )
    try:
        if check_intersection(graph, rule_plan, request_plan, varlen_cap):
            return effect_decision(rule.effect)
        return NOT_APPLICABLE
    except EngineError as exc:
        return indeterminate(f"rule {rule.rule_id!r}: {exc}")


def combine(decisions, alg: str) -> Decision:
    """Fold an ordered decision list under a combining algorithm."""
    decisions = list(decisions)
    if alg == uris.ALG_FIRST_APPLICABLE:
        for decision in decisions:
            if decision.value != NOT_APPLICABLE_VALUE:
                return decision
        return NOT_APPLICABLE
    if alg in uris.DENY_OVERRIDES_ALGS:
        order = (DENY_VALUE, INDETERMINATE_VALUE, PERMIT_VALUE)
    elif alg in uris.PERMIT_OVERRIDES_ALGS:
        order = (PERMIT_VALUE, INDETERMINATE_VALUE, DENY_VALUE)
    else:
        raise PolicyError(f"unsupported combining algorithm {alg!r}")
    for wanted in order:
        for decision in decisions:
            if decision.value == wanted:
                return decision
    return NOT_APPLICABLE


def evaluate_policy(
    policy: Policy,
    rule_plans: tuple[QueryPlan | None, ...],
    request: Request,
    request_plan: QueryPlan,
    graph: PropertyGraph | None,
    varlen_cap: int,
) -> Decision:
    """``rule_plans`` holds the plan of each of ``policy.rules``, in order."""
    matched = match_target(policy.target, request)
    if matched == NO_MATCH:
        return NOT_APPLICABLE
    if matched == INDETERMINATE_MATCH:
        return indeterminate(
            f"policy {policy.policy_id!r}: target evaluation failed"
        )
    decisions = [
        evaluate_rule(rule, plan, request, request_plan, graph, varlen_cap)
        for rule, plan in zip(policy.rules, rule_plans)
    ]
    try:
        return combine(decisions, policy.rule_combining_alg)
    except PolicyError as exc:
        return indeterminate(str(exc))


def evaluate_request(
    compiled,
    request: Request,
    graph: PropertyGraph | None,
    varlen_cap: int,
) -> Response:
    """Walk ``(policy, rule plans)`` pairs in load order; the first
    applicable policy decides."""
    try:
        request_plan = compile_request_path(request.path_groups)
    except EngineError as exc:
        decision = indeterminate(f"request path compilation failed: {exc}")
        return Response(decision, _status_for(decision), ())

    for policy, rule_plans in compiled:
        decision = evaluate_policy(
            policy, rule_plans, request, request_plan, graph, varlen_cap
        )
        if decision.value != NOT_APPLICABLE_VALUE:
            return Response(decision, _status_for(decision), (policy.policy_id,))
    return Response(NOT_APPLICABLE, uris.STATUS_OK, ())


# -- response rendering ----------------------------------------------------


def render_response_xml(response: Response) -> str:
    """Deterministic response document (2-space indent, default xmlns)."""
    lines = [
        f"<Response xmlns={xml_attr(uris.XACML3_NS)}>",
        "  <Result>",
        f"    <Decision>{xml_escape(response.decision.value)}</Decision>",
        "    <Status>",
        f"      <StatusCode Value={xml_attr(response.status_code)}/>",
    ]
    if response.decision.reason:
        lines.append(
            "      <StatusMessage>"
            f"{xml_escape(response.decision.reason)}</StatusMessage>"
        )
    lines.append("    </Status>")
    if response.policy_ids:
        lines.append("    <PolicyIdentifierList>")
        for policy_id in response.policy_ids:
            lines.append(
                "      <PolicyIdReference>"
                f"{xml_escape(policy_id)}</PolicyIdReference>"
            )
        lines.append("    </PolicyIdentifierList>")
    lines.append("  </Result>")
    lines.append("</Response>")
    return "\n".join(lines) + "\n"


# -- engine facade ---------------------------------------------------------


class DecisionEngine:
    """Policies + graph snapshot; each policy is paired with its own rules'
    plans, compiled once at load, so policies that share ids stay apart."""

    def __init__(
        self,
        policies,
        graph: PropertyGraph | None,
        varlen_cap: int = DEFAULT_VARLEN_CAP,
    ):
        self.policies = tuple(policies)
        self.graph = graph.snapshot() if graph is not None else None
        self.varlen_cap = varlen_cap
        self._compiled = tuple(
            (policy, tuple(map(compile_rule, policy.rules)))
            for policy in self.policies
        )

    def decide(self, request: Request) -> Response:
        return evaluate_request(self._compiled, request, self.graph, self.varlen_cap)

    def find_rule(self, rule_id: str) -> tuple[Policy, Rule] | None:
        for policy in self.policies:
            for rule in policy.rules:
                if rule.rule_id == rule_id:
                    return policy, rule
        return None
