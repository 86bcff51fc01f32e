from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from graphpdp import path_matcher, uris
from graphpdp.errors import FilterEvalError, UnknownFunctionError
from graphpdp.graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    load_graph_path,
    loose_equal,
)
from graphpdp.path_matcher import (
    PathBinding,
    check_intersection,
    eval_filter,
    match_plan,
)
from graphpdp.pattern_compiler import (
    EdgeStep,
    QueryPlan,
    VertexStep,
    compile_filter,
    element_check,
)
from graphpdp.pdp import DecisionEngine, compile_rule
from graphpdp.policy_model import Apply, Designator, Literal, Rule


def chain(n: int, type_name: str = "link", label: str = "node") -> PropertyGraph:
    g = PropertyGraph()
    for i in range(n + 1):
        g.add_vertex(VertexRecord(f"c{i}", label, {"_key": f"c{i}"}))
    for i in range(n):
        g.add_edge(EdgeRecord(f"l{i}", type_name, f"c{i}", f"c{i+1}", {}))
    return g


def pin(binding: str, key: str) -> VertexStep:
    return VertexStep(binding, pinned=(("_key", key),))


def plan(*steps) -> QueryPlan:
    return QueryPlan(tuple(steps))


# -- single-hop semantics ---------------------------------------------------


def test_directed_chain_has_one_match():
    g = chain(2)
    found = list(
        match_plan(
            g,
            plan(
                pin("a", "c0"),
                EdgeStep(binding="e1", direction="from"),
                VertexStep("b"),
                EdgeStep(binding="e2", direction="from"),
                VertexStep("c"),
            ),
        )
    )
    assert found == [
        PathBinding(
            ("c0", "c1", "c2"),
            ("l0", "l1"),
            (("a", "c0"), ("b", "c1"), ("c", "c2"), ("e1", "l0"), ("e2", "l1")),
        )
    ]


def test_direction_to_walks_against_the_edge():
    g = chain(1)
    against = list(
        match_plan(g, plan(pin("a", "c1"), EdgeStep(direction="to"), VertexStep("b")))
    )
    assert [b.vertex_seq for b in against] == [("c1", "c0")]
    assert not list(
        match_plan(g, plan(pin("a", "c1"), EdgeStep(direction="from"), VertexStep("b")))
    )


def test_any_direction_matches_both_orientations():
    g = chain(2)
    found = list(match_plan(g, plan(VertexStep("a"), EdgeStep(), VertexStep("b"))))
    # every edge is walkable from either end
    assert len(found) == 4
    assert sorted(b.vertex_seq for b in found) == [
        ("c0", "c1"),
        ("c1", "c0"),
        ("c1", "c2"),
        ("c2", "c1"),
    ]


def test_label_type_and_property_filters():
    g = PropertyGraph()
    g.add_vertex(VertexRecord("u", "users", {"typeCode": "pmUser"}))
    g.add_vertex(VertexRecord("v", "users", {"typeCode": "extUser"}))
    g.add_vertex(VertexRecord("t", "tasks", {}))
    g.add_edge(EdgeRecord("w1", "worksOn", "u", "t", {"since": 2020}))
    g.add_edge(EdgeRecord("w2", "observes", "v", "t", {}))
    found = list(
        match_plan(
            g,
            plan(
                VertexStep("s", label="users", pinned=(("typeCode", "pmUser"),)),
                EdgeStep(type="worksOn", direction="from"),
                VertexStep("r", label="tasks"),
            ),
        )
    )
    assert [b.vertex_seq for b in found] == [("u", "t")]


def test_trail_edges_unique_but_vertices_may_repeat():
    g = PropertyGraph()
    g.add_vertex(VertexRecord("A", "n", {"_key": "A"}))
    g.add_vertex(VertexRecord("B", "n", {"_key": "B"}))
    g.add_edge(EdgeRecord("p", "t", "A", "B", {}))
    g.add_edge(EdgeRecord("q", "t", "A", "B", {}))
    three = plan(
        pin("a", "A"), EdgeStep(), VertexStep("b"), EdgeStep(), VertexStep("c")
    )
    found = list(match_plan(g, three))
    assert sorted(b.edge_seq for b in found) == [("p", "q"), ("q", "p")]
    assert all(b.vertex_seq == ("A", "B", "A") for b in found)  # A revisited


def test_self_loop_is_one_hop():
    g = PropertyGraph()
    g.add_vertex(VertexRecord("A", "n", {}))
    g.add_edge(EdgeRecord("loop", "t", "A", "A", {}))
    for direction in ("from", "to", "any"):
        found = list(
            match_plan(g, plan(VertexStep("a"), EdgeStep(direction=direction), VertexStep("b")))
        )
        assert [b.vertex_seq for b in found] == [("A", "A")], direction


# -- variable length --------------------------------------------------------


def test_varlen_reaches_up_to_max():
    g = chain(4)
    def hops(lo, hi):
        found = match_plan(
            g, plan(pin("a", "c0"), EdgeStep(min_len=lo, max_len=hi), VertexStep("z"))
        )
        return sorted(b.vertex_seq[-1] for b in found)

    assert hops(1, 2) == ["c1", "c2"]
    assert hops(2, 3) == ["c2", "c3"]
    assert hops(1, None) == ["c1", "c2", "c3", "c4"]  # capped by default


def test_varlen_cap_limits_unbounded_steps_only():
    g = chain(4)
    unbounded = plan(pin("a", "c0"), EdgeStep(min_len=1, max_len=None), VertexStep("z"))
    explicit = plan(pin("a", "c0"), EdgeStep(min_len=1, max_len=4), VertexStep("z"))
    assert len(list(match_plan(g, unbounded, varlen_cap=2))) == 2
    # an explicit bound is not narrowed by the cap
    assert len(list(match_plan(g, explicit, varlen_cap=2))) == 4


def test_varlen_interior_vertices_are_unconstrained():
    g = PropertyGraph()
    g.add_vertex(VertexRecord("s", "start", {}))
    g.add_vertex(VertexRecord("m", "weird", {}))
    g.add_vertex(VertexRecord("t", "goal", {}))
    g.add_edge(EdgeRecord("e1", "t", "s", "m", {}))
    g.add_edge(EdgeRecord("e2", "t", "m", "t", {}))
    found = list(
        match_plan(
            g,
            plan(
                VertexStep("a", label="start"),
                EdgeStep(min_len=1, max_len=2),
                VertexStep("b", label="goal"),
            ),
        )
    )
    assert [b.vertex_seq for b in found] == [("s", "m", "t")]


def test_varlen_edge_constraints_apply_to_every_hop():
    g = chain(2, type_name="link")
    g.add_vertex(VertexRecord("x", "node", {"_key": "x"}))
    g.add_edge(EdgeRecord("other", "detour", "c2", "x", {}))
    found = match_plan(
        g,
        plan(
            pin("a", "c0"),
            EdgeStep(type="link", min_len=1, max_len=3),
            VertexStep("z"),
        ),
    )
    assert sorted(b.vertex_seq[-1] for b in found) == ["c1", "c2"]  # never x


def test_zero_length_is_not_a_thing():
    # min_len is validated >= 1 at the policy layer; the matcher simply
    # never yields a segment of 0 hops
    g = chain(1)
    found = list(
        match_plan(g, plan(pin("a", "c0"), EdgeStep(min_len=1, max_len=2), VertexStep("z")))
    )
    assert all(len(b.edge_seq) >= 1 for b in found)


def test_deterministic_order():
    g = chain(3)
    p = plan(VertexStep("a"), EdgeStep(min_len=1, max_len=2), VertexStep("b"))
    assert list(match_plan(g, p)) == list(match_plan(g, p))


# -- filter evaluation ------------------------------------------------------


def filter_graph() -> tuple[PropertyGraph, PathBinding]:
    g = PropertyGraph()
    g.add_vertex(VertexRecord("u", "users", {"_key": "u", "age": 41, "name": "Ada"}))
    g.add_vertex(VertexRecord("t", "tasks", {"_key": "t"}))
    g.add_edge(EdgeRecord("w", "worksOn", "u", "t", {"typeKind": "worksOn"}))
    binding = PathBinding(("u", "t"), ("w",), (("s", "u"), ("e", "w")))
    return g, binding


def des(attr, category, ref):
    return Designator(attr, category, ref)


def test_filter_comparisons():
    g, b = filter_graph()
    e_kind = des("typeKind", uris.CAT_PATH_EDGE, "e")
    age = des("age", uris.CAT_PATH_VERTEX, "s")
    assert eval_filter(b, Apply(uris.FN_EQUAL, (e_kind, Literal("worksOn"))), g)
    assert not eval_filter(b, Apply(uris.FN_EQUAL, (e_kind, Literal("allocates"))), g)
    assert eval_filter(b, Apply(uris.FN_GREATER_THAN, (age, Literal("40"))), g)
    assert eval_filter(b, Apply(uris.FN_LESS_THAN_OR_EQUAL, (age, Literal("41"))), g)
    assert eval_filter(
        b, Apply(uris.FN_STRING_EQUAL_IGNORE_CASE, (e_kind, Literal("WORKSON"))), g
    )
    assert eval_filter(b, Apply(uris.FN_STRING_STARTS_WITH, (e_kind, Literal("works"))), g)


def test_filter_absent_property_is_false():
    g, b = filter_graph()
    ghost = des("salary", uris.CAT_PATH_VERTEX, "s")
    assert not eval_filter(b, Apply(uris.FN_EQUAL, (ghost, Literal("x"))), g)
    # and not-equal does not sneak through either
    assert not eval_filter(b, Apply(uris.FN_NOT_EQUAL, (ghost, Literal("x"))), g)


def test_filter_mixed_types_are_false():
    g, b = filter_graph()
    age = des("age", uris.CAT_PATH_VERTEX, "s")
    assert not eval_filter(b, Apply(uris.FN_EQUAL, (age, Literal("young"))), g)
    assert not eval_filter(b, Apply(uris.FN_NOT_EQUAL, (age, Literal("young"))), g)


def test_filter_logicals():
    g, b = filter_graph()
    e_kind = des("typeKind", uris.CAT_PATH_EDGE, "e")
    yes = Apply(uris.FN_EQUAL, (e_kind, Literal("worksOn")))
    no = Apply(uris.FN_EQUAL, (e_kind, Literal("allocates")))
    assert eval_filter(b, Apply(uris.FN_OR, (no, yes)), g)
    assert not eval_filter(b, Apply(uris.FN_AND, (no, yes)), g)
    assert eval_filter(b, Apply(uris.FN_AND, (yes, yes, yes)), g)


def test_filter_literal_truthiness():
    g, b = filter_graph()
    assert eval_filter(b, Literal("true"), g)
    assert not eval_filter(b, Literal("false"), g)
    assert not eval_filter(b, Literal("yes"), g)


def test_filter_error_paths():
    g, b = filter_graph()
    unbound = Apply(
        uris.FN_EQUAL, (des("x", uris.CAT_PATH_EDGE, "ghost"), Literal("1"))
    )
    with pytest.raises(FilterEvalError, match="unbound name 'ghost'"):
        eval_filter(b, unbound, g)
    with pytest.raises(FilterEvalError, match="zero arguments"):
        eval_filter(b, Apply(uris.FN_AND, ()), g)
    with pytest.raises(FilterEvalError, match="two arguments"):
        eval_filter(b, Apply(uris.FN_EQUAL, (Literal("1"),)), g)
    with pytest.raises(UnknownFunctionError):
        eval_filter(b, Apply("xacml4g:1.0:function:xor", (Literal("1"), Literal("2"))), g)


XOR = "xacml4g:1.0:function:xor"


@pytest.mark.parametrize("form", ["tree", "compiled"])
def test_short_circuit_never_hides_an_error(form):
    g, b = filter_graph()
    yes = Apply(uris.FN_EQUAL, (des("typeKind", uris.CAT_PATH_EDGE, "e"), Literal("worksOn")))
    ghost = Apply(uris.FN_EQUAL, (des("x", uris.CAT_PATH_VERTEX, "ghost"), Literal("1")))
    expr = Apply(uris.FN_OR, (yes, ghost))
    with pytest.raises(FilterEvalError, match="unbound name 'ghost'"):
        eval_filter(b, expr if form == "tree" else compile_filter(expr), g)


@pytest.mark.parametrize("form", ["tree", "compiled"])
def test_filter_errors_follow_depth_first_order(form):
    g, b = filter_graph()
    ghost = Apply(uris.FN_EQUAL, (des("x", uris.CAT_PATH_VERTEX, "ghost"), Literal("1")))
    xor = Apply(XOR, (Literal("1"), Literal("2")))

    def run(expr):
        return eval_filter(b, expr if form == "tree" else compile_filter(expr), g)

    with pytest.raises(FilterEvalError, match="unbound name 'ghost'"):
        run(Apply(uris.FN_AND, (ghost, xor)))
    with pytest.raises(UnknownFunctionError):
        run(Apply(uris.FN_AND, (xor, ghost)))


COMPARISONS = [f for f in uris.CONDITION_FUNCTIONS if f not in (uris.FN_AND, uris.FN_OR)]
COMPARED_LITERALS = ["red", "true", "", "7", "07", "+1", ".5", "1e3", "2.0", "١٢", "nan"]
COMPARED_VALUES = [
    True, False, 0, 7, -2, 2.0, 1e300, float("inf"),
    "7", "07", " 7", "v7", "red", "true", "", "١٢",
]


@pytest.mark.parametrize("value", COMPARED_VALUES, ids=repr)
def test_comparisons_against_a_literal_equal_the_oracle(value):
    # every comparison function, with the literal on either side, against
    # one graph value: numeric and non-numeric text, int, float, boolean
    g = PropertyGraph()
    g.add_vertex(VertexRecord("v", "node", {"p": value}))
    b = PathBinding(("v",), (), (("s", "v"),))
    prop = des("p", uris.CAT_PATH_VERTEX, "s")
    assert len(COMPARISONS) == 9
    for function in COMPARISONS:
        for literal in map(Literal, COMPARED_LITERALS):
            for args in ((prop, literal), (literal, prop)):
                expr = Apply(function, args)
                assert eval_filter(b, compile_filter(expr), g) == oracles.filter_oracle(
                    g, b, expr
                ), (function, args)


@pytest.mark.parametrize("value", COMPARED_VALUES, ids=repr)
def test_pinned_literals_match_loosely(value):
    # a pin holds exactly where loose equality does, also when the value's
    # text differs from the literal ("07" and 7, "2.0" and 2.0)
    record = VertexRecord("v", "node", {"p": value})
    for literal in COMPARED_LITERALS:
        check = element_check(VertexStep("s", pinned=(("p", literal),)))
        assert check(record) == loose_equal(value, literal), literal


# -- intersection -----------------------------------------------------------


def test_intersection_demo(demo_policy, demo_request, demo_graph):
    from graphpdp.pattern_compiler import compile_request_path, compile_rule_pattern

    rule = demo_policy.rules[0]
    rule_plan = compile_rule_pattern(rule.pattern, rule.pattern_condition)
    request_plan = compile_request_path(demo_request.path_groups)
    assert check_intersection(demo_graph, rule_plan, request_plan)


def test_intersection_fails_when_request_path_leaves_the_match():
    g = chain(3)
    rule_plan = plan(pin("a", "c0"), EdgeStep(min_len=1, max_len=2), VertexStep("z"))
    inside = plan(pin("x", "c0"), EdgeStep(), pin("y", "c1"))
    outside = plan(pin("x", "c2"), EdgeStep(), pin("y", "c3"))
    assert check_intersection(g, rule_plan, inside)
    # c2-c3 is a real path but no rule match contains it (cap at 2 hops)
    assert not check_intersection(g, rule_plan, outside)


def test_intersection_with_failing_filter():
    g, _ = filter_graph()
    cond = Apply(
        uris.FN_EQUAL,
        (des("typeKind", uris.CAT_PATH_EDGE, "e"), Literal("allocates")),
    )
    rule_plan = QueryPlan(
        (
            VertexStep("s", label="users"),
            EdgeStep(binding="e", direction="from"),
            VertexStep("r", label="tasks"),
        ),
        filter=cond,
    )
    request_plan = plan(pin("x", "u"))
    assert not check_intersection(g, rule_plan, request_plan)


def test_empty_request_side_short_circuits():
    g, _ = filter_graph()
    # the filter would blow up, but it is never evaluated because the
    # request pattern has no matches at all
    bad_filter = Apply(
        uris.FN_EQUAL, (des("x", uris.CAT_PATH_EDGE, "ghost"), Literal("1"))
    )
    rule_plan = QueryPlan(
        (VertexStep("s"), EdgeStep(), VertexStep("r")), filter=bad_filter
    )
    request_plan = plan(pin("x", "does-not-exist"))
    assert not check_intersection(g, rule_plan, request_plan)


def parallel_pair() -> PropertyGraph:
    """a -> b twice (p1, then p2, kind "keep"), and b -> c."""
    g = PropertyGraph()
    for v in "abc":
        g.add_vertex(VertexRecord(v, "n", {"_key": v}))
    g.add_edge(EdgeRecord("p1", "t", "a", "b", {"kind": "drop"}))
    g.add_edge(EdgeRecord("p2", "t", "a", "b", {"kind": "keep"}))
    g.add_edge(EdgeRecord("bc", "t", "b", "c", {"kind": "drop"}))
    return g


def test_the_pivot_keeps_containment_exact():
    g = parallel_pair()
    keep = Apply(uris.FN_EQUAL, (des("kind", uris.CAT_PATH_EDGE, "e"), Literal("keep")))
    # the only filter-passing rule match is a -p2-> b
    rule_plan = QueryPlan(
        (VertexStep("s"), EdgeStep(binding="e", direction="from"), VertexStep("r")),
        filter=keep,
    )
    requests = {
        # two request matches, over p1 and then p2; the rule match holds
        # the second only, so no pivot can come from the first alone
        "parallel": plan(pin("x", "a"), EdgeStep(), pin("y", "b")),
        "one vertex": plan(pin("x", "b")),
        "one vertex outside": plan(pin("x", "c")),
        # a trailing edge group, as compile_request_path builds it
        "edge ended": plan(pin("x", "a"), EdgeStep(pinned=(("kind", "keep"),)), VertexStep("y")),
        "edge ended outside": plan(pin("x", "b"), EdgeStep(pinned=(("kind", "drop"),)),
                                   VertexStep("y")),
    }
    assert len(list(match_plan(g, requests["parallel"]))) == 2
    for name, request_plan in requests.items():
        got = check_intersection(g, rule_plan, request_plan)
        assert got == oracles.intersection_oracle(g, rule_plan, request_plan), name
    assert check_intersection(g, rule_plan, requests["parallel"])
    assert check_intersection(g, rule_plan, requests["edge ended"])


# -- request-directed search order ------------------------------------------


def with_rival_managers(graph: PropertyGraph, count: int = 30) -> PropertyGraph:
    """The demo graph plus ``count`` pmUsers whose ids sort before the
    demo subject's, each with its own task and design document."""
    for i in range(count):
        user, task, doc = f"10{i:08d}", f"11{i:08d}", f"0{i:09d}"
        graph.add_vertex(VertexRecord(user, "dataObjects", {"_key": user, "typeCode": "pmUser"}))
        graph.add_vertex(VertexRecord(task, "tasks", {"_key": task}))
        graph.add_vertex(VertexRecord(doc, "dataObjects", {"_key": doc, "typeCode": "designDoc"}))
        graph.add_edge(EdgeRecord(f"ar-x{i}", "accessRelations", user, task, {"typeKind": "worksOn"}))
        graph.add_edge(EdgeRecord(f"td-x{i}", "taskDataRelations", task, doc, {"typeKind": "produces"}))
    return graph


def count_matches(monkeypatch) -> list[list[int]]:
    """Wrap ``match_plan`` as ``check_intersection`` looks it up; one
    [bindings yielded] entry per call, in call order."""
    counts: list[list[int]] = []
    original = path_matcher.match_plan

    def counting(*args, **kwargs):
        count = [0]
        counts.append(count)
        for binding in original(*args, **kwargs):
            count[0] += 1
            yield binding

    monkeypatch.setattr(path_matcher, "match_plan", counting)
    return counts


def test_permit_walks_from_the_request_subject_first(
    monkeypatch, demo_policy, demo_request, demo_graph
):
    engine = DecisionEngine([demo_policy], with_rival_managers(demo_graph))
    rule_plan = compile_rule(demo_policy.rules[0])
    # every rival pmUser starts rule matches that sort before the subject's
    assert len(list(match_plan(engine.graph, rule_plan))) > 30
    counts = count_matches(monkeypatch)
    assert engine.decide(demo_request).decision.value == "Permit"
    (request_matches,), (rule_matches,) = counts
    assert request_matches == 1
    assert rule_matches <= 3


def test_filter_error_is_the_same_from_a_preferred_start(
    monkeypatch, demo_policy, demo_request, demo_graph_file
):
    ghost = Apply(uris.FN_EQUAL, (des("typeKind", uris.CAT_PATH_EDGE, "ghost"), Literal("1")))
    (rule,) = demo_policy.rules
    broken = replace(demo_policy, rules=(
        Rule(rule.rule_id, rule.effect, rule.target, rule.pattern, ghost),
    ))
    reasons = []
    for graph in (load_graph_path(demo_graph_file),
                  with_rival_managers(load_graph_path(demo_graph_file))):
        starts = []
        original = path_matcher.eval_filter

        def recording(binding, expr, graph):
            starts.append(binding.vertex_seq[0])
            return original(binding, expr, graph)

        monkeypatch.setattr(path_matcher, "eval_filter", recording)
        decision = DecisionEngine([broken], graph).decide(demo_request).decision
        monkeypatch.undo()
        assert decision.value == "Indeterminate"
        # the first evaluated match starts at the request's subject, which
        # sorts after every rival pmUser
        assert starts == ["1196741133"]
        reasons.append(decision.reason)
    assert reasons[0] == reasons[1] == (
        "rule 'user_access_dataObj': condition references unbound name 'ghost'"
    )


# the external reviewer's path, which no rule match of the demo rule holds,
# so a search for it filters every rule match
REVIEWER_PATH = plan(
    pin("x", "1196741400"), EdgeStep(), pin("y", "1196741800"), EdgeStep(), pin("z", "1196742600")
)
DEMO_PATH = plan(
    pin("x", "1196741133"), EdgeStep(), pin("y", "1196741778"), EdgeStep(), pin("z", "1196742142")
)


def test_a_one_name_filter_runs_once_per_element(monkeypatch, demo_policy, demo_graph):
    graph = with_rival_managers(demo_graph)
    rule_plan = compile_rule(demo_policy.rules[0])
    compiled = rule_plan.compiled_filter
    assert compiled.refs == ("e",)
    matches = list(match_plan(graph, rule_plan))
    elements = {b.names["e"] for b in matches}
    assert len(elements) < len(matches)
    runs, calls = [], []
    evaluate, original = compiled.evaluate, path_matcher.eval_filter

    def counting(names, graph):
        runs.append(names["e"])
        return evaluate(names, graph)

    def recording(binding, expr, graph):
        calls.append(binding)
        return original(binding, expr, graph)

    monkeypatch.setattr(compiled, "evaluate", counting)
    monkeypatch.setattr(path_matcher, "eval_filter", recording)
    assert not check_intersection(graph, rule_plan, REVIEWER_PATH)
    # one eval_filter call per rule match, one evaluation per element
    assert len(calls) == len(matches)
    assert sorted(runs) == sorted(elements)
    # the later matches' evaluator starts from the first match's result
    runs.clear()
    later = compiled.later(matches[0].names, compiled(matches[0].names, graph))
    for binding in matches:
        later(binding.names, graph)
    assert sorted(runs) == sorted(elements)


def equal(ref, category, attribute, literal):
    return Apply(uris.FN_EQUAL, (des(attribute, category, ref), Literal(literal)))


WORKS_ON = equal("e", uris.CAT_PATH_EDGE, "typeKind", "worksOn")
DESIGN_DOC = equal("_v4", uris.CAT_PATH_VERTEX, "typeCode", "designDoc")


@pytest.mark.parametrize("condition", [
    Apply(uris.FN_STRING_CONTAINS, (des("name", uris.CAT_PATH_VERTEX, "_v2"), Literal("design"))),
    Apply(uris.FN_AND, (DESIGN_DOC, Apply(uris.FN_STRING_STARTS_WITH, (
        des("_key", uris.CAT_PATH_VERTEX, "s"), Literal("11"))))),
], ids=["one name", "two names"])
def test_search_evaluators_equal_the_oracle(condition, demo_policy, demo_graph):
    graph = with_rival_managers(demo_graph)
    rule_plan = QueryPlan(compile_rule(demo_policy.rules[0]).steps, filter=condition)
    matches = list(match_plan(graph, rule_plan))
    compiled = rule_plan.compiled_filter
    first = compiled(matches[0].names, graph)
    later = compiled.later(matches[0].names, first)
    got = [first] + [later(b.names, graph) for b in matches[1:]]
    want = [oracles.filter_oracle(graph, b, condition) for b in matches]
    assert got == want
    assert 0 < sum(want) < len(want)
    for request_plan in (REVIEWER_PATH, DEMO_PATH):
        assert check_intersection(graph, rule_plan, request_plan) == (
            oracles.intersection_oracle(graph, rule_plan, request_plan))


@pytest.mark.parametrize("condition", [
    equal("ghost", uris.CAT_PATH_EDGE, "typeKind", "1"),
    Apply(uris.FN_AND, (WORKS_ON, equal("ghost", uris.CAT_PATH_VERTEX, "typeCode", "1"))),
    Apply("urn:example:no-such-function", (WORKS_ON, Literal("1"))),
], ids=["unbound, one name", "unbound, two names", "unknown function"])
def test_filter_errors_survive_the_memo(condition, demo_policy, demo_graph_file):
    for rivals in (0, 30):
        graph = with_rival_managers(load_graph_path(demo_graph_file), rivals)
        rule_plan = QueryPlan(compile_rule(demo_policy.rules[0]).steps, filter=condition)
        matches = list(match_plan(graph, rule_plan))
        errors = set()
        for binding in matches:
            with pytest.raises((FilterEvalError, UnknownFunctionError)) as raised:
                eval_filter(binding, condition, graph)
            errors.add((raised.type, str(raised.value)))
        (error,) = errors  # every match raises the same error
        for request_plan in (REVIEWER_PATH, DEMO_PATH):
            with pytest.raises((FilterEvalError, UnknownFunctionError)) as raised:
                check_intersection(graph, rule_plan, request_plan)
            assert (raised.type, str(raised.value)) == error


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_preferred_starts_come_first_and_keep_their_order(data):
    g = data.draw(strategies.graphs())
    p = data.draw(strategies.plans(g))
    prefer = data.draw(st.frozensets(st.sampled_from(g.vertex_ids() + ["not-a-vertex"])))
    plain = list(match_plan(g, p, varlen_cap=3))
    preferred = list(match_plan(g, p, varlen_cap=3, prefer=prefer))
    assert list(match_plan(g, p, varlen_cap=3, prefer=frozenset())) == plain
    # the same bindings: those from preferred starts first, each group in
    # the order of the plain stream, which is depth-first and id-ordered
    assert preferred == (
        [b for b in plain if b.vertex_seq[0] in prefer]
        + [b for b in plain if b.vertex_seq[0] not in prefer]
    )


# -- the exhaustive trail enumerator ---------------------------------------


def triangle() -> PropertyGraph:
    g = PropertyGraph()
    for v in "ABC":
        g.add_vertex(VertexRecord(v, "n", {}))
    g.add_edge(EdgeRecord("ab", "t", "A", "B", {}))
    g.add_edge(EdgeRecord("bc", "t", "B", "C", {}))
    g.add_edge(EdgeRecord("ca", "t", "C", "A", {}))
    return g


def test_triangle_trail_census():
    g = triangle()
    trails = oracles.enumerate_trails_oracle(g, 3)
    # 3 empty + 6 of one edge + 6 of two + 6 of three
    assert len(trails) == 21
    assert oracles.count_trails_frontier(g, 3) == 21
    by_len = [sum(1 for t in trails if len(t.edge_seq) == k) for k in range(4)]
    assert by_len == [3, 6, 6, 6]


def test_trail_enumerator_never_repeats_an_edge():
    g = triangle()
    for trail in oracles.enumerate_trails_oracle(g, 3):
        assert len(set(trail.edge_seq)) == len(trail.edge_seq)


def test_trail_enumerator_refuses_big_budgets():
    with pytest.raises(ValueError):
        oracles.enumerate_trails_oracle(triangle(), 9)


@settings(max_examples=40, deadline=None)
@given(strategies.graphs(), st.integers(0, 4))
def test_both_trail_counters_agree(g, budget):
    trails = oracles.enumerate_trails_oracle(g, budget)
    assert len(trails) == oracles.count_trails_frontier(g, budget)


# -- randomized equivalence with the brute-force oracle ---------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_match_plan_equals_oracle(data):
    g = data.draw(strategies.graphs())
    p = data.draw(strategies.plans(g))
    got = set(match_plan(g, p, varlen_cap=3))
    want = oracles.plan_match_oracle(g, p, varlen_cap=3)
    assert got == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_check_intersection_equals_oracle(data):
    g = data.draw(strategies.graphs())
    rule_plan = data.draw(strategies.plans(g))
    request_plan = data.draw(strategies.request_plans(g))
    got = check_intersection(g, rule_plan, request_plan, varlen_cap=3)
    want = oracles.intersection_oracle(g, rule_plan, request_plan, varlen_cap=3)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_binding_is_a_trail_through_the_graph(data):
    g = data.draw(strategies.graphs())
    p = data.draw(strategies.plans(g))
    for binding in match_plan(g, p, varlen_cap=3):
        assert len(binding.vertex_seq) == len(binding.edge_seq) + 1
        assert len(set(binding.edge_seq)) == len(binding.edge_seq)
        for i, eid in enumerate(binding.edge_seq):
            edge = g.edge(eid)
            assert {edge.from_id, edge.to_id} == {
                binding.vertex_seq[i],
                binding.vertex_seq[i + 1],
            }
