import pytest

from graphpdp import pdp, uris
from graphpdp.errors import PolicyError
from graphpdp.graph_store import build_source_subset
from graphpdp.pdp import (
    DENY,
    NOT_APPLICABLE,
    PERMIT,
    Decision,
    DecisionEngine,
    Response,
    combine,
    effect_decision,
    indeterminate,
    match_target,
    render_response_xml,
)
from graphpdp.policy_model import (
    Apply,
    ConstraintSet,
    Designator,
    Literal,
    MatchConstraint,
    Policy,
    Rule,
)
from graphpdp.request_model import AttributeGroup, Request, parse_request


def target(*all_ofs) -> ConstraintSet:
    return ConstraintSet(tuple(tuple(a) for a in all_ofs))


def action_match(value: str, fn: str = uris.MATCH_STRING_EQUAL) -> MatchConstraint:
    return MatchConstraint(fn, value, uris.ATTR_ACTION_ID, uris.CAT_ACTION)


def decide(policies, request, graph) -> Response:
    return DecisionEngine(policies, graph).decide(request)


def decide_rule(rule, request, graph) -> Decision:
    """The decision of ``rule`` alone, in a one-rule first-applicable policy."""
    policy = Policy("p", uris.ALG_FIRST_APPLICABLE, rules=(rule,))
    return decide([policy], request, graph).decision


# -- decisions --------------------------------------------------------------


def test_decision_constants():
    assert PERMIT.value == "Permit" and PERMIT.reason is None
    assert DENY.value == "Deny"
    assert NOT_APPLICABLE.value == "NotApplicable"
    assert effect_decision("Permit") is PERMIT
    assert effect_decision("Deny") is DENY


def test_indeterminate_always_carries_a_reason():
    assert indeterminate("boom").reason == "boom"
    assert Decision("Indeterminate").reason == "unspecified evaluation error"


# -- target matching --------------------------------------------------------


def test_empty_target_always_matches(demo_request):
    assert match_target(None, demo_request) == pdp.MATCH
    assert match_target(ConstraintSet(), demo_request) == pdp.MATCH


def test_action_target(demo_request):
    assert match_target(target([action_match("access-do")]), demo_request) == pdp.MATCH
    assert (
        match_target(target([action_match("delete-do")]), demo_request) == pdp.NO_MATCH
    )


def test_target_ignore_case(demo_request):
    t = target([action_match("ACCESS-DO", uris.MATCH_STRING_EQUAL_IGNORE_CASE)])
    assert match_target(t, demo_request) == pdp.MATCH


def test_target_all_of_is_conjunctive(demo_request):
    both = target([action_match("access-do"), action_match("delete-do")])
    either = target([action_match("access-do")], [action_match("delete-do")])
    assert match_target(both, demo_request) == pdp.NO_MATCH
    assert match_target(either, demo_request) == pdp.MATCH


def test_target_sees_path_attribute_values(demo_request):
    # path attribute values arrive in name:value form; the target compares
    # against the value part
    m = MatchConstraint(
        uris.MATCH_STRING_EQUAL, "1196742142", uris.ATTR_RESOURCE_ID, uris.CAT_RESOURCE
    )
    assert match_target(target([m]), demo_request) == pdp.MATCH
    miss = MatchConstraint(
        uris.MATCH_STRING_EQUAL, "_key:1196742142", uris.ATTR_RESOURCE_ID, uris.CAT_RESOURCE
    )
    assert match_target(target([miss]), demo_request) == pdp.NO_MATCH


def test_unknown_match_function_is_indeterminate(demo_request):
    odd = MatchConstraint(
        "urn:oasis:names:tc:xacml:1.0:function:regexp-string-match",
        "x",
        uris.ATTR_ACTION_ID,
        uris.CAT_ACTION,
    )
    assert match_target(target([odd]), demo_request) == pdp.INDETERMINATE_MATCH


# -- rule evaluation --------------------------------------------------------


def test_patternless_rule_returns_its_effect(demo_request):
    rule = Rule("r", "Permit")
    assert decide_rule(rule, demo_request, None) is PERMIT
    assert decide_rule(Rule("r", "Deny"), demo_request, None) is DENY


def test_rule_target_gates_the_pattern(demo_request, demo_graph):
    rule = Rule("r", "Permit", target=target([action_match("delete-do")]))
    assert decide_rule(rule, demo_request, demo_graph) is NOT_APPLICABLE


def test_pattern_without_graph_is_indeterminate(demo_policy, demo_request):
    rule = demo_policy.rules[0]
    decision = decide_rule(rule, demo_request, None)
    assert decision.value == "Indeterminate"
    assert "no graph snapshot" in decision.reason


def test_demo_rule_permits(demo_policy, demo_request, demo_graph):
    rule = demo_policy.rules[0]
    assert decide_rule(rule, demo_request, demo_graph) is PERMIT


def test_runtime_filter_error_surfaces_as_indeterminate(
    demo_policy, demo_request, demo_graph
):
    # validation would reject this function URI, so build the rule directly
    broken = Apply(
        "xacml4g:1.0:function:xor",
        (
            Designator("typeKind", uris.CAT_PATH_EDGE, "e"),
            Literal("worksOn"),
        ),
    )
    rule = demo_policy.rules[0]
    hacked = Rule(rule.rule_id, rule.effect, rule.target, rule.pattern, broken)
    decision = decide_rule(hacked, demo_request, demo_graph)
    assert decision.value == "Indeterminate"
    assert "user_access_dataObj" in decision.reason
    assert "xor" in decision.reason


def test_filter_error_is_indeterminate_even_when_no_match_contains_the_path(
    demo_policy, demo_request_file, demo_graph
):
    # extUser -> code review -> review notes is a real path that no rule
    # match contains; the filter is still evaluated on each rule match
    # and its error decides
    text = demo_request_file.read_text(encoding="utf-8")
    for old, new in (("1196741133", "1196741400"), ("1196741778", "1196741800"),
                     ("1196742142", "1196742600")):
        text = text.replace(f"_key:{old}", f"_key:{new}")
    broken = Apply(
        "xacml4g:1.0:function:xor",
        (Designator("typeKind", uris.CAT_PATH_EDGE, "e"), Literal("worksOn")),
    )
    rule = demo_policy.rules[0]
    hacked = Rule(rule.rule_id, rule.effect, rule.target, rule.pattern, broken)
    decision = decide_rule(hacked, parse_request(text), demo_graph)
    assert decision.value == "Indeterminate"
    assert "xor" in decision.reason


# -- combining --------------------------------------------------------------


IND = indeterminate("x")


def test_first_applicable():
    alg = uris.ALG_FIRST_APPLICABLE
    assert combine([NOT_APPLICABLE, DENY, PERMIT], alg) is DENY
    assert combine([PERMIT, DENY], alg) is PERMIT
    assert combine([NOT_APPLICABLE, NOT_APPLICABLE], alg) is NOT_APPLICABLE
    assert combine([], alg) is NOT_APPLICABLE
    assert combine([NOT_APPLICABLE, IND, PERMIT], alg) is IND


@pytest.mark.parametrize("alg", sorted(uris.DENY_OVERRIDES_ALGS))
def test_deny_overrides(alg):
    assert combine([PERMIT, DENY], alg) is DENY
    assert combine([PERMIT, IND], alg) is IND
    assert combine([NOT_APPLICABLE, PERMIT], alg) is PERMIT
    assert combine([NOT_APPLICABLE], alg) is NOT_APPLICABLE


@pytest.mark.parametrize("alg", sorted(uris.PERMIT_OVERRIDES_ALGS))
def test_permit_overrides(alg):
    assert combine([DENY, PERMIT], alg) is PERMIT
    assert combine([DENY, IND], alg) is IND
    assert combine([NOT_APPLICABLE, DENY], alg) is DENY


def test_unknown_algorithm_raises():
    with pytest.raises(PolicyError, match="unsupported combining algorithm"):
        combine([PERMIT], "urn:example:nope")


# -- policy and request evaluation ------------------------------------------


def test_policy_target_no_match_is_not_applicable(demo_policy, demo_request, demo_graph):
    gated = Policy(
        demo_policy.policy_id,
        demo_policy.rule_combining_alg,
        target=target([action_match("delete-do")]),
        meta=demo_policy.meta,
        rules=demo_policy.rules,
    )
    assert decide([gated], demo_request, demo_graph).decision is NOT_APPLICABLE


def test_unsupported_algorithm_becomes_indeterminate(demo_request):
    policy = Policy("p", "urn:example:nope", rules=(Rule("r", "Permit"),))
    decision = decide([policy], demo_request, None).decision
    assert decision.value == "Indeterminate"
    assert "unsupported combining algorithm" in decision.reason


def test_evaluate_request_reports_the_deciding_policy(
    demo_policy, demo_request, demo_graph
):
    response = decide([demo_policy], demo_request, demo_graph)
    assert response.decision is PERMIT
    assert response.status_code == uris.STATUS_OK
    assert response.policy_ids == ("pmUserToDataObject",)


def test_evaluate_request_skips_inapplicable_policies(
    demo_policy, demo_request, demo_graph
):
    bystander = Policy(
        "bystander",
        uris.ALG_FIRST_APPLICABLE,
        target=target([action_match("delete-do")]),
        rules=(Rule("nope", "Deny"),),
    )
    response = decide([bystander, demo_policy], demo_request, demo_graph)
    assert response.decision is PERMIT
    assert response.policy_ids == ("pmUserToDataObject",)


def test_evaluate_request_not_applicable(demo_policy, demo_graph, demo_request_file):
    # same shape as the demo request, but the subject is the extUser decoy
    text = demo_request_file.read_text(encoding="utf-8")
    other = parse_request(text.replace("_key:1196741133", "_key:1196741400"))
    response = decide([demo_policy], other, demo_graph)
    assert response.decision is NOT_APPLICABLE
    assert response.status_code == uris.STATUS_OK
    assert response.policy_ids == ()


def test_unsplittable_path_value_fails_request_compilation(demo_policy, demo_graph):
    mangled = Request(
        action_groups=(),
        path_groups=(
            AttributeGroup(
                uris.CAT_SUBJECT, "vertex", ((uris.ATTR_SUBJECT_ID, "nocolon"),)
            ),
        ),
    )
    response = decide([demo_policy], mangled, demo_graph)
    assert response.decision.value == "Indeterminate"
    assert "request path compilation failed" in response.decision.reason
    assert response.status_code == uris.STATUS_PROCESSING_ERROR
    assert response.policy_ids == ()


# -- response rendering -----------------------------------------------------


PERMIT_XML = """\
<Response xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17">
  <Result>
    <Decision>Permit</Decision>
    <Status>
      <StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok"/>
    </Status>
    <PolicyIdentifierList>
      <PolicyIdReference>pmUserToDataObject</PolicyIdReference>
    </PolicyIdentifierList>
  </Result>
</Response>
"""


def test_render_permit_response():
    response = Response(PERMIT, uris.STATUS_OK, ("pmUserToDataObject",))
    assert render_response_xml(response) == PERMIT_XML


def test_render_without_policy_list():
    text = render_response_xml(Response(NOT_APPLICABLE, uris.STATUS_OK, ()))
    assert "<Decision>NotApplicable</Decision>" in text
    assert "PolicyIdentifierList" not in text
    assert text.endswith("</Response>\n")


def test_render_indeterminate_carries_message():
    response = Response(
        indeterminate("rule 'r': <bad & worse>"), uris.STATUS_PROCESSING_ERROR, ()
    )
    text = render_response_xml(response)
    assert "status:processing-error" in text
    assert "<StatusMessage>rule 'r': &lt;bad &amp; worse&gt;</StatusMessage>" in text


# -- engine facade ----------------------------------------------------------


def test_engine_end_to_end(demo_policy, demo_request, demo_graph):
    engine = DecisionEngine([demo_policy], demo_graph)
    response = engine.decide(demo_request)
    assert render_response_xml(response) == PERMIT_XML


def test_engine_snapshots_the_graph(demo_policy, demo_request, demo_graph):
    engine = DecisionEngine([demo_policy], demo_graph)
    # mutating the source graph after engine construction changes nothing
    demo_graph.vertex("1196741133").properties["typeCode"] = "extUser"
    assert engine.decide(demo_request).decision is PERMIT
    fresh = DecisionEngine([demo_policy], demo_graph)
    assert fresh.decide(demo_request).decision is NOT_APPLICABLE


def test_engine_with_source_subset(demo_policy, demo_request, demo_source_file):
    from graphpdp.graph_store import load_graph_path

    source = load_graph_path(demo_source_file)
    subset = build_source_subset(demo_policy.meta, source)
    engine = DecisionEngine([demo_policy], subset)
    assert engine.decide(demo_request).decision is PERMIT


def test_an_edited_record_decides_by_its_new_value(
    demo_policy, demo_request, demo_source_file
):
    from graphpdp.graph_store import load_graph_json

    text = demo_source_file.read_text(encoding="utf-8")
    assert text.count('"pmUser"') == 1
    source = load_graph_json(text.replace('"pmUser"', '"extUser"'))

    def decide(graph):
        return DecisionEngine([demo_policy], graph).decide(demo_request).decision

    assert decide(build_source_subset(demo_policy.meta, source)) is NOT_APPLICABLE
    # the rule's first step is pinned on typeCode, so its candidates come
    # from the property index of the subset and of the engine's snapshot
    source.vertex("1196741133").properties["typeCode"] = "pmUser"
    assert decide(build_source_subset(demo_policy.meta, source)) is PERMIT
    assert decide(source) is PERMIT


def test_find_rule(demo_policy):
    found = demo_policy, demo_policy.rules[0]
    engine = DecisionEngine([demo_policy], None)
    assert engine.find_rule("user_access_dataObj") == found
    assert engine.find_rule("ghost") is None
