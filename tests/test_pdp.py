from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from graphpdp import pdp, uris
from graphpdp.errors import PolicyError, PolicySchemaError
from graphpdp.graph_store import (
    PropertyGraph,
    build_source_subset,
    load_graph_json,
    load_graph_path,
)
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
    MAX_APPLY_DEPTH,
    Apply,
    ConstraintSet,
    Designator,
    Literal,
    MatchConstraint,
    Policy,
    Rule,
    parse_policy,
    validate_policy,
)
from graphpdp.request_model import parse_request
from test_path_matcher import faulty_tree


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


def test_a_request_without_the_default_namespace_decides_alike(
    demo_policy, demo_request, demo_request_file, demo_graph
):
    text = demo_request_file.read_text(encoding="utf-8")
    bare = text.replace(f' xmlns="{uris.XACML3_NS}"', "")
    assert bare != text
    request = parse_request(bare)
    assert request == demo_request
    engine = DecisionEngine([demo_policy], demo_graph)
    assert render_response_xml(engine.decide(request)) == PERMIT_XML


def rebuilt(graph: PropertyGraph, *edited) -> PropertyGraph:
    """A graph of ``graph``'s records, each record of ``edited`` in place
    of the one with its id."""
    by_id = {record.id: record for record in edited}
    return PropertyGraph(
        [by_id.get(vertex.id, vertex) for vertex in graph.vertices()],
        [by_id.get(edge.id, edge) for edge in graph.edges()],
    )


def test_engine_snapshots_the_graph(demo_policy, demo_request, demo_graph, demo_source_file):
    # every graph is frozen: a loaded one, a Meta subset and one built by
    # hand are each their own snapshot
    assert DecisionEngine([demo_policy], demo_graph).graph is demo_graph
    subset = build_source_subset(demo_policy.meta, load_graph_path(demo_source_file))
    assert DecisionEngine([demo_policy], subset).graph is subset
    # and none of their records can be edited in place
    subject = demo_graph.vertex("1196741133")
    with pytest.raises(TypeError):
        subject.properties["typeCode"] = "extUser"
    with pytest.raises(FrozenInstanceError):
        subject.label = "tasks"
    built = rebuilt(demo_graph)
    engine = DecisionEngine([demo_policy], built)
    assert engine.graph is built
    assert engine.graph.hops("1196741778", "to") == demo_graph.hops("1196741778", "to")
    assert engine.decide(demo_request).decision is PERMIT
    # a graph built from an edited record decides by its new value
    edited = replace(subject, properties={**subject.properties, "typeCode": "extUser"})
    fresh = DecisionEngine([demo_policy], rebuilt(demo_graph, edited))
    assert fresh.decide(demo_request).decision is NOT_APPLICABLE


def test_engine_with_source_subset(demo_policy, demo_request, demo_source_file):
    source = load_graph_path(demo_source_file)
    subset = build_source_subset(demo_policy.meta, source)
    engine = DecisionEngine([demo_policy], subset)
    assert engine.decide(demo_request).decision is PERMIT


def test_an_edited_record_decides_by_its_new_value(
    demo_policy, demo_request, demo_source_file
):
    text = demo_source_file.read_text(encoding="utf-8")
    assert text.count('"pmUser"') == 1
    source = load_graph_json(text.replace('"pmUser"', '"extUser"'))

    def decide(graph):
        return DecisionEngine([demo_policy], graph).decide(demo_request).decision

    assert decide(build_source_subset(demo_policy.meta, source)) is NOT_APPLICABLE
    subject = source.vertex("1196741133")
    with pytest.raises(TypeError):
        subject.properties["typeCode"] = "pmUser"
    # the rule's first step is pinned on typeCode, so its candidates come
    # from the property index of the graph built from the edited record and
    # of its subset
    edited = rebuilt(
        source, replace(subject, properties={**subject.properties, "typeCode": "pmUser"})
    )
    assert decide(build_source_subset(demo_policy.meta, edited)) is PERMIT
    assert decide(edited) is PERMIT


def deeper(policy: Policy, levels: int) -> Policy:
    """``policy`` with its one rule's condition wrapped in ``levels``
    one-argument ``and`` Applies."""
    (rule,) = policy.rules
    condition = rule.pattern_condition
    for _ in range(levels):
        condition = Apply(uris.FN_AND, (condition,))
    return replace(policy, rules=(replace(rule, pattern_condition=condition),))


@pytest.mark.parametrize("levels", [MAX_APPLY_DEPTH - 1, 600, 100_000])
def test_a_condition_built_in_code_is_refused_past_the_depth_cap(
    demo_policy, demo_graph, levels
):
    # the demo condition is two Applies deep, so each of these is too deep,
    # as the parser would find it
    policy = deeper(demo_policy, levels)
    path = "Policy/Rule[user_access_dataObj]/PatternCondition"
    too_deep = f"{path}: Apply nested more than {MAX_APPLY_DEPTH} levels deep"
    assert [str(v) for v in validate_policy(policy)] == [too_deep]
    with pytest.raises(PolicySchemaError) as raised:
        DecisionEngine([policy], demo_graph)
    assert str(raised.value) == too_deep


def test_a_condition_at_the_depth_cap_is_accepted(demo_policy, demo_request, demo_graph):
    policy = deeper(demo_policy, MAX_APPLY_DEPTH - 2)
    assert validate_policy(policy) == []
    assert DecisionEngine([policy], demo_graph).decide(demo_request).decision is PERMIT


# -- policies built in code that parsing would refuse -----------------------


def with_condition(policy: Policy, condition) -> Policy:
    (rule,) = policy.rules
    return replace(policy, rules=(replace(rule, pattern_condition=condition),))


def test_an_edge_step_without_a_known_direction_is_refused(
    demo_policy, demo_request, demo_graph
):
    (rule,) = demo_policy.rules
    steps = list(rule.pattern.steps)
    steps[1] = replace(steps[1], direction="sideways")
    pattern = replace(rule.pattern, steps=tuple(steps))
    policy = replace(demo_policy, rules=(replace(rule, pattern=pattern),))
    refused = "Policy/Rule[user_access_dataObj]/Pattern/step[1]: invalid direction 'sideways'"
    with pytest.raises(PolicySchemaError) as raised:
        DecisionEngine([policy], demo_graph).decide(demo_request)
    assert str(raised.value) == refused
    assert [str(v) for v in validate_policy(policy)] == [refused]


@pytest.mark.parametrize("category", [uris.CAT_RESOURCE, uris.CAT_PATH_VERTEX],
                         ids=["category of neither kind", "vertex category on an edge"])
def test_a_designator_that_misreads_its_binding_is_indeterminate(
    demo_policy, demo_request, demo_graph, category
):
    designator = Designator("typeKind", category, "e")
    policy = with_condition(
        demo_policy, Apply(uris.FN_EQUAL, (designator, Literal("worksOn")))
    )
    fault = f"condition reads 'e' with category {category!r}, not {uris.CAT_PATH_EDGE!r}"
    decision = DecisionEngine([policy], demo_graph).decide(demo_request).decision
    assert decision == indeterminate(f"rule 'user_access_dataObj': {fault}")
    path = "Policy/Rule[user_access_dataObj]/PatternCondition"
    assert [str(v) for v in validate_policy(policy)] == [f"{path}: {fault}"]


@pytest.mark.parametrize("condition", [
    42, Apply(uris.FN_AND, (Literal("true"), 42)),
], ids=["top level", "Apply argument"])
def test_a_condition_node_of_no_known_kind_is_a_violation(
    demo_policy, demo_request, demo_graph, condition
):
    policy = with_condition(demo_policy, condition)
    path = "Policy/Rule[user_access_dataObj]/PatternCondition"
    assert [str(v) for v in validate_policy(policy)] == [
        f"{path}: unsupported expression node 42"
    ]
    decision = DecisionEngine([policy], demo_graph).decide(demo_request).decision
    assert decision == indeterminate(
        "rule 'user_access_dataObj': unsupported expression node 42"
    )


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 4))
def test_a_condition_fault_reads_the_same_in_validate_and_in_the_decision(
    demo_policy_dir, demo_request_file, demo_graph_file, rng, depth
):
    # the demo rule declares s and e; the trees also read r, ghost, x and
    # _v2, which it does not declare
    policy = parse_policy(
        (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8"))
    request = parse_request(demo_request_file.read_text(encoding="utf-8"))
    condition = faulty_tree(rng, depth, ["typeKind", "typeCode", "_key", "absent"])
    assume(condition is not None)  # a rule without a condition
    policy = with_condition(policy, condition)
    bound = {"s": uris.CAT_PATH_VERTEX, "e": uris.CAT_PATH_EDGE}
    fault = oracles.filter_fault_oracle(condition, bound)
    faults = [v.reason for v in validate_policy(policy) if v.path.endswith("/PatternCondition")]
    decision = DecisionEngine([policy], load_graph_path(demo_graph_file)).decide(request).decision
    if fault is None:
        assert faults == [] and decision.value != pdp.INDETERMINATE_VALUE, condition
    else:
        assert faults[0] == fault[1], condition
        assert decision == indeterminate(f"rule 'user_access_dataObj': {fault[1]}"), condition


REGEXP_MATCH = "urn:oasis:names:tc:xacml:1.0:function:regexp-string-match"


def rule_shape(rule: Rule, fault: str) -> Rule:
    """``rule``, the demo rule, with one fault in its shape."""
    steps = list(rule.pattern.steps)
    if fault == "effect":
        return replace(rule, effect="Allow")
    if fault == "condition without pattern":
        return replace(rule, pattern=None, pattern_condition=Apply(
            uris.FN_EQUAL, (Literal("a"), Literal("b"))
        ))
    if fault == "step match function":
        (all_of,) = steps[0].constraints.any_of
        regexp = tuple(replace(m, match_function=REGEXP_MATCH, literal="pm.*") for m in all_of)
        steps[0] = replace(steps[0], constraints=ConstraintSet((regexp,)))
    elif fault == "two steps":
        steps = steps[:2]
    elif fault == "vertex in the edge slot":
        steps[1] = steps[2]
    elif fault == "direction":
        steps[1] = replace(steps[1], direction="sideways")
    elif fault == "length range":
        steps[3] = replace(steps[3], min_len=3, max_len=2)
    elif fault == "depth":
        condition = rule.pattern_condition
        for _ in range(600):
            condition = Apply(uris.FN_AND, (condition,))
        return replace(rule, pattern_condition=condition)
    return replace(rule, pattern=replace(rule.pattern, steps=tuple(steps)))


@pytest.mark.parametrize("fault", [
    "effect", "condition without pattern", "step match function", "two steps",
    "vertex in the edge slot", "direction", "length range", "depth",
])
def test_the_engine_refuses_a_rule_shape_with_validations_words(demo_policy, demo_graph, fault):
    # a rule built in code that parsing would refuse for its shape is
    # refused when the engine is built, with what validation reports
    (rule,) = demo_policy.rules
    if fault != "depth":
        rule = replace(rule, pattern_condition=None)
    policy = replace(demo_policy, rules=(rule_shape(rule, fault),))
    violations = validate_policy(policy)
    assert len(violations) == 1
    with pytest.raises(PolicySchemaError) as raised:
        DecisionEngine([policy], demo_graph)
    assert str(raised.value) == "; ".join(map(str, violations))
