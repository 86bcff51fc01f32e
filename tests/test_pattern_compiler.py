import pytest

import oracles
from graphpdp import uris
from graphpdp.errors import UnknownFunctionError
from graphpdp.pattern_compiler import (
    EdgeStep,
    QueryPlan,
    VertexStep,
    compile_request_path,
    compile_rule_pattern,
    cypher_ident,
    cypher_string,
    emit_cypher,
    known_functions,
    render_filter,
    render_pattern,
    translate_function,
)
from graphpdp.policy_model import (
    Apply,
    ConstraintSet,
    Designator,
    Literal,
    MatchConstraint,
    PathVertexSpec,
    Pattern,
)

# -- registry ---------------------------------------------------------------


def test_registry_is_closed_and_total():
    assert set(known_functions()) == set(uris.CONDITION_FUNCTIONS)
    assert len(known_functions()) == 11
    for fn in known_functions():
        op = translate_function(fn)
        assert op.logical or (op.compare is not None and op.render is not None)


def test_unknown_uri_raises():
    with pytest.raises(UnknownFunctionError) as err:
        translate_function("xacml4g:1.0:function:almost-equal")
    assert err.value.uri == "xacml4g:1.0:function:almost-equal"


def test_comparison_coercion_rules():
    eq = translate_function(uris.FN_EQUAL).compare
    lt = translate_function(uris.FN_LESS_THAN).compare
    ne = translate_function(uris.FN_NOT_EQUAL).compare
    # numeric pair -> float comparison, not lexicographic
    assert lt("2", "10")
    assert eq("2", 2.0)
    # text pair -> lexicographic
    assert not lt("b", "a10")
    assert lt("a10", "b")
    # mixed pair never matches, not even for not-equal
    assert not eq("2", "two")
    assert not ne("2", "two")
    assert ne("two", "TWO")


def test_string_functions():
    ic = translate_function(uris.FN_STRING_EQUAL_IGNORE_CASE).compare
    contains = translate_function(uris.FN_STRING_CONTAINS).compare
    starts = translate_function(uris.FN_STRING_STARTS_WITH).compare
    assert ic("WorksOn", "workson")
    assert not ic("worksOn", "worksOff")
    assert contains("worksOn", "rks")
    assert not contains("rks", "worksOn")
    assert starts("worksOn", "works")
    assert not starts("works", "worksOn")
    assert ic(True, "TRUE")  # canonical text of a boolean


# -- plan compilation -------------------------------------------------------


def test_compile_demo_pattern(demo_policy):
    rule = demo_policy.rules[0]
    plan = compile_rule_pattern(rule.pattern, rule.pattern_condition)
    assert len(plan.steps) == 5
    v0, e0, v1, e1, v2 = plan.steps
    assert (v0.binding, v0.auto) == ("s", False)
    assert e0.binding == "e" and e0.type == "accessRelations" and e0.direction == "from"
    assert v1.auto and v1.label == "tasks"
    assert (e1.min_len, e1.max_len, e1.binding) == (1, 2, None)
    assert v2.auto
    assert plan.filter is rule.pattern_condition
    # generated names never collide with declared ones
    names = [v0.binding, e0.binding, v1.binding, v2.binding]
    assert len(set(names)) == 4


def test_auto_binding_avoids_declared_names(demo_policy):
    pattern = demo_policy.rules[0].pattern
    clash = PathVertexSpec(vertex_id="_v2", category=uris.CAT_SUBJECT)
    reshaped = Pattern(pattern.pattern_id, (clash,) + pattern.steps[1:])
    plan = compile_rule_pattern(reshaped)
    bindings = [s.binding for s in plan.steps if isinstance(s, VertexStep)]
    assert bindings[0] == "_v2"
    assert len(set(bindings)) == 3


def test_compile_demo_request(demo_request):
    plan = compile_request_path(demo_request.path_groups)
    assert len(plan.steps) == 5
    assert [s.pinned for s in plan.steps if isinstance(s, VertexStep)] == [
        (("_key", "1196741133"),),
        (("_key", "1196741778"),),
        (("_key", "1196742142"),),
    ]
    for step in plan.steps:
        if isinstance(step, EdgeStep):
            assert step.is_single_hop and step.direction == "any"


def test_compile_request_with_trailing_edge():
    from graphpdp.request_model import AttributeGroup

    groups = (
        AttributeGroup(uris.CAT_SUBJECT, "vertex", (("id", "_key:a"),)),
        AttributeGroup(uris.CAT_RESOURCE, "edge", (("id", "typeKind:owns"),)),
    )
    plan = compile_request_path(groups)
    # subject vertex, pinned edge, free vertex to terminate the pattern
    assert len(plan.steps) == 3
    assert plan.steps[1].pinned == (("typeKind", "owns"),)
    assert isinstance(plan.steps[2], VertexStep) and plan.steps[2].pinned == ()


# -- text emission ----------------------------------------------------------


def test_cypher_string_escaping():
    assert cypher_string('say "hi"') == '"say \\"hi\\""'
    assert cypher_string("a\\b") == '"a\\\\b"'


def test_cypher_ident_quoting():
    assert cypher_ident("_key") == "_key"
    assert cypher_ident("typeKind") == "typeKind"
    assert cypher_ident("my prop") == "`my prop`"
    assert cypher_ident("a`b") == "`a``b`"


def test_length_markers():
    def marker(lo, hi):
        text = render_pattern(
            QueryPlan((VertexStep("a"), EdgeStep(min_len=lo, max_len=hi), VertexStep("b")))
        )
        start = text.index("[")
        return text[start + 1 : text.index("]")]

    assert marker(1, 1) == ""
    assert marker(2, 2) == "*2"
    assert marker(1, 3) == "*..3"
    assert marker(1, None) == "*"
    assert marker(2, None) == "*2.."
    assert marker(2, 3) == "*2..3"


def test_direction_arrows():
    def arrow(direction):
        return render_pattern(
            QueryPlan((VertexStep("a"), EdgeStep(direction=direction), VertexStep("b")))
        )

    assert arrow("from") == "(a)-[]->(b)"
    assert arrow("to") == "(a)<-[]-(b)"
    assert arrow("any") == "(a)-[]-(b)"


def test_anonymous_vertex_and_property_maps():
    plan = QueryPlan(
        (
            VertexStep("x", pinned=(("_key", "1"),), auto=True),
            EdgeStep(),
            VertexStep("y", label="tasks", auto=True),
        )
    )
    assert render_pattern(plan) == '({_key:"1"})-[]-(:tasks)'


def test_complex_vertex_constraints_go_to_where():
    ignore_case = ConstraintSet(
        (
            (
                MatchConstraint(
                    uris.MATCH_STRING_EQUAL_IGNORE_CASE,
                    "PMUser",
                    "typeCode",
                    uris.CAT_PATH_VERTEX,
                ),
            ),
        )
    )
    extras: list[str] = []
    text = render_pattern(
        QueryPlan(
            (VertexStep("s", constraints=ignore_case), EdgeStep(), VertexStep("t"))
        ),
        extras,
    )
    assert text == "(s)-[]-(t)"
    assert extras == ['(toLower(s.typeCode) = toLower("PMUser"))']


def test_alternative_constraints_render_as_disjunction():
    two_ways = ConstraintSet(
        (
            (MatchConstraint(uris.MATCH_STRING_EQUAL, "a", "k", uris.CAT_PATH_VERTEX),),
            (MatchConstraint(uris.MATCH_STRING_EQUAL, "b", "k", uris.CAT_PATH_VERTEX),),
        )
    )
    extras: list[str] = []
    render_pattern(
        QueryPlan((VertexStep("v", constraints=two_ways), EdgeStep(), VertexStep("w"))),
        extras,
    )
    assert extras == ['((v.k = "a") OR (v.k = "b"))']


def test_unbound_edge_with_complex_constraints_is_unprintable():
    odd = ConstraintSet(
        (
            (MatchConstraint(uris.MATCH_STRING_EQUAL, "a", "k", uris.CAT_PATH_EDGE),),
            (MatchConstraint(uris.MATCH_STRING_EQUAL, "b", "k", uris.CAT_PATH_EDGE),),
        )
    )
    plan = QueryPlan(
        (VertexStep("v"), EdgeStep(constraints=odd, max_len=2), VertexStep("w"))
    )
    with pytest.raises(ValueError, match="unbound edge"):
        render_pattern(plan)


def test_varlen_edge_with_map_constraints_is_fine():
    simple = ConstraintSet(
        ((MatchConstraint(uris.MATCH_STRING_EQUAL, "x", "k", uris.CAT_PATH_EDGE),),)
    )
    plan = QueryPlan(
        (VertexStep("v"), EdgeStep(constraints=simple, max_len=2), VertexStep("w"))
    )
    assert render_pattern(plan) == '(v)-[*..2{k:"x"}]-(w)'


def test_filter_rendering_nests_with_parentheses():
    e = Designator("typeKind", uris.CAT_PATH_EDGE, "e")
    inner = Apply(
        uris.FN_AND,
        (
            Apply(uris.FN_EQUAL, (e, Literal("worksOn"))),
            Apply(uris.FN_NOT_EQUAL, (e, Literal("allocates"))),
        ),
    )
    tree = Apply(uris.FN_OR, (inner, Apply(uris.FN_LESS_THAN, (e, Literal("5")))))
    assert render_filter(tree) == (
        '((e.typeKind = "worksOn" AND e.typeKind <> "allocates") OR e.typeKind < "5")'
    )


def test_filter_rendering_ignore_case():
    expr = Apply(
        uris.FN_STRING_EQUAL_IGNORE_CASE,
        (Designator("k", uris.CAT_PATH_VERTEX, "v"), Literal("X")),
    )
    assert render_filter(expr) == 'toLower(v.k) = toLower("X")'


def test_emit_cypher_demo(demo_policy, demo_request):
    rule = demo_policy.rules[0]
    text = emit_cypher(
        compile_rule_pattern(rule.pattern, rule.pattern_condition),
        compile_request_path(demo_request.path_groups),
    )
    assert text == (
        'MATCH p1 = (s{typeCode:"pmUser"})-[e:accessRelations]->(:tasks)-[*..2]-()\n'
        'MATCH p2 = ({_key:"1196741133"})-[]-({_key:"1196741778"})-[]-({_key:"1196742142"})\n'
        'WHERE (e.typeKind = "worksOn" OR e.typeKind = "allocates")'
        " AND ALL (x IN nodes(p2) WHERE x IN nodes(p1))"
        " AND ALL (x IN relationships(p2) WHERE x IN relationships(p1))\n"
        "RETURN p1 IS NOT NULL AS result\n"
    )


def test_emit_cypher_without_filter():
    rule_plan = QueryPlan((VertexStep("a"), EdgeStep(), VertexStep("b")))
    request_plan = QueryPlan((VertexStep("x", pinned=(("_key", "1"),), auto=True),))
    text = emit_cypher(rule_plan, request_plan)
    assert text.splitlines()[2] == (
        "WHERE ALL (x IN nodes(p2) WHERE x IN nodes(p1))"
        " AND ALL (x IN relationships(p2) WHERE x IN relationships(p1))"
    )


def test_emit_is_deterministic(demo_policy, demo_request):
    rule = demo_policy.rules[0]
    plans = (
        compile_rule_pattern(rule.pattern, rule.pattern_condition),
        compile_request_path(demo_request.path_groups),
    )
    assert emit_cypher(*plans) == emit_cypher(*plans)


def test_emitted_demo_text_parses_back(demo_policy, demo_request):
    """The emission scanner in the test helpers should read our own output."""
    rule = demo_policy.rules[0]
    text = emit_cypher(
        compile_rule_pattern(rule.pattern, rule.pattern_condition),
        compile_request_path(demo_request.path_groups),
    )
    parsed = oracles.parse_emitted_query(text)
    assert [el["kind"] for el in parsed["p1"]] == [
        "vertex", "edge", "vertex", "edge", "vertex",
    ]
    assert parsed["p1"][1]["type"] == "accessRelations"
    assert parsed["p1"][3]["max"] == 2
    assert parsed["p2"][0]["props"] == {"_key": "1196741133"}
    assert parsed["containment"] == (("p2", "p1"), ("p2", "p1"))
    assert parsed["filter"][0] == "or"
