import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from filters import eval_tree
from graphpdp import path_matcher, uris
from graphpdp.errors import FilterEvalError, UnknownFunctionError
from graphpdp.graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    load_graph_path,
)
from graphpdp.path_matcher import (
    check_intersection,
    eval_filter,
    match_names,
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


def chain_records(n: int, type_name: str = "link", label: str = "node"):
    vertices = [VertexRecord(f"c{i}", label, {"_key": f"c{i}"}) for i in range(n + 1)]
    edges = [EdgeRecord(f"l{i}", type_name, f"c{i}", f"c{i+1}", {}) for i in range(n)]
    return vertices, edges


def chain(n: int, type_name: str = "link", label: str = "node") -> PropertyGraph:
    return PropertyGraph(*chain_records(n, type_name, label))


def pin(binding: str, key: str) -> VertexStep:
    return VertexStep(binding, pinned=(("_key", key),))


def plan(*steps) -> QueryPlan:
    return QueryPlan(tuple(steps))


# -- single-hop semantics ---------------------------------------------------


def test_directed_chain_has_one_match():
    g = chain(2)
    p = plan(
        pin("a", "c0"),
        EdgeStep(binding="e1", direction="from"),
        VertexStep("b"),
        EdgeStep(binding="e2", direction="from"),
        VertexStep("c"),
    )
    assert [oracles.binding_key(m, p) for m in match_plan(g, p)] == [
        (
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
    assert [vertices for vertices, _, _ in against] == [("c1", "c0")]
    assert not list(
        match_plan(g, plan(pin("a", "c1"), EdgeStep(direction="from"), VertexStep("b")))
    )


def test_any_direction_matches_both_orientations():
    g = chain(2)
    found = list(match_plan(g, plan(VertexStep("a"), EdgeStep(), VertexStep("b"))))
    # every edge is walkable from either end
    assert len(found) == 4
    assert sorted(vertices for vertices, _, _ in found) == [
        ("c0", "c1"),
        ("c1", "c0"),
        ("c1", "c2"),
        ("c2", "c1"),
    ]


def test_label_type_and_property_filters():
    g = PropertyGraph(
        [
            VertexRecord("u", "users", {"typeCode": "pmUser"}),
            VertexRecord("v", "users", {"typeCode": "extUser"}),
            VertexRecord("t", "tasks", {}),
        ],
        [
            EdgeRecord("w1", "worksOn", "u", "t", {"since": 2020}),
            EdgeRecord("w2", "observes", "v", "t", {}),
        ],
    )
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
    assert [vertices for vertices, _, _ in found] == [("u", "t")]


def test_trail_edges_unique_but_vertices_may_repeat():
    g = PropertyGraph(
        [VertexRecord("A", "n", {"_key": "A"}), VertexRecord("B", "n", {"_key": "B"})],
        [EdgeRecord("p", "t", "A", "B", {}), EdgeRecord("q", "t", "A", "B", {})],
    )
    three = plan(
        pin("a", "A"), EdgeStep(), VertexStep("b"), EdgeStep(), VertexStep("c")
    )
    found = list(match_plan(g, three))
    assert sorted(edges for _, edges, _ in found) == [("p", "q"), ("q", "p")]
    assert all(vertices == ("A", "B", "A") for vertices, _, _ in found)  # A revisited


def test_self_loop_is_one_hop():
    g = PropertyGraph([VertexRecord("A", "n", {})], [EdgeRecord("loop", "t", "A", "A", {})])
    for direction in ("from", "to", "any"):
        found = list(
            match_plan(g, plan(VertexStep("a"), EdgeStep(direction=direction), VertexStep("b")))
        )
        assert [vertices for vertices, _, _ in found] == [("A", "A")], direction


# -- variable length --------------------------------------------------------


def test_varlen_reaches_up_to_max():
    g = chain(4)
    def hops(lo, hi):
        found = match_plan(
            g, plan(pin("a", "c0"), EdgeStep(min_len=lo, max_len=hi), VertexStep("z"))
        )
        return sorted(vertices[-1] for vertices, _, _ in found)

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
    g = PropertyGraph(
        [
            VertexRecord("s", "start", {}),
            VertexRecord("m", "weird", {}),
            VertexRecord("t", "goal", {}),
        ],
        [EdgeRecord("e1", "t", "s", "m", {}), EdgeRecord("e2", "t", "m", "t", {})],
    )
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
    assert [vertices for vertices, _, _ in found] == [("s", "m", "t")]


def test_varlen_edge_constraints_apply_to_every_hop():
    vertices, edges = chain_records(2, type_name="link")
    g = PropertyGraph(
        [*vertices, VertexRecord("x", "node", {"_key": "x"})],
        [*edges, EdgeRecord("other", "detour", "c2", "x", {})],
    )
    found = match_plan(
        g,
        plan(
            pin("a", "c0"),
            EdgeStep(type="link", min_len=1, max_len=3),
            VertexStep("z"),
        ),
    )
    assert sorted(vertices[-1] for vertices, _, _ in found) == ["c1", "c2"]  # never x


def test_zero_length_is_not_a_thing():
    # min_len is validated >= 1 at the policy layer; the matcher simply
    # never yields a segment of 0 hops
    g = chain(1)
    found = list(
        match_plan(g, plan(pin("a", "c0"), EdgeStep(min_len=1, max_len=2), VertexStep("z")))
    )
    assert all(len(edges) >= 1 for _, edges, _ in found)


def test_deterministic_order():
    g = chain(3)
    p = plan(VertexStep("a"), EdgeStep(min_len=1, max_len=2), VertexStep("b"))
    first = [oracles.binding_key(m, p) for m in match_plan(g, p)]
    assert first and first == [oracles.binding_key(m, p) for m in match_plan(g, p)]


# -- filter evaluation ------------------------------------------------------


def filter_graph() -> tuple[PropertyGraph, tuple]:
    """A graph and a match over all of it, its names written in full."""
    g = PropertyGraph(
        [
            VertexRecord("u", "users", {"_key": "u", "age": 41, "name": "Ada"}),
            VertexRecord("t", "tasks", {"_key": "t"}),
        ],
        [EdgeRecord("w", "worksOn", "u", "t", {"typeKind": "worksOn"})],
    )
    return g, (("u", "t"), ("w",), {"s": "u", "e": "w"})


def des(attr, category, ref):
    return Designator(attr, category, ref)


def test_filter_comparisons():
    g, b = filter_graph()
    e_kind = des("typeKind", uris.CAT_PATH_EDGE, "e")
    age = des("age", uris.CAT_PATH_VERTEX, "s")
    assert eval_tree(b, Apply(uris.FN_EQUAL, (e_kind, Literal("worksOn"))), g)
    assert not eval_tree(b, Apply(uris.FN_EQUAL, (e_kind, Literal("allocates"))), g)
    assert eval_tree(b, Apply(uris.FN_GREATER_THAN, (age, Literal("40"))), g)
    assert eval_tree(b, Apply(uris.FN_LESS_THAN_OR_EQUAL, (age, Literal("41"))), g)
    assert eval_tree(
        b, Apply(uris.FN_STRING_EQUAL_IGNORE_CASE, (e_kind, Literal("WORKSON"))), g
    )
    assert eval_tree(b, Apply(uris.FN_STRING_STARTS_WITH, (e_kind, Literal("works"))), g)


def test_filter_absent_property_is_false():
    g, b = filter_graph()
    ghost = des("salary", uris.CAT_PATH_VERTEX, "s")
    assert not eval_tree(b, Apply(uris.FN_EQUAL, (ghost, Literal("x"))), g)
    # and not-equal does not sneak through either
    assert not eval_tree(b, Apply(uris.FN_NOT_EQUAL, (ghost, Literal("x"))), g)


def test_filter_mixed_types_are_false():
    g, b = filter_graph()
    age = des("age", uris.CAT_PATH_VERTEX, "s")
    assert not eval_tree(b, Apply(uris.FN_EQUAL, (age, Literal("young"))), g)
    assert not eval_tree(b, Apply(uris.FN_NOT_EQUAL, (age, Literal("young"))), g)


def test_filter_logicals():
    g, b = filter_graph()
    e_kind = des("typeKind", uris.CAT_PATH_EDGE, "e")
    yes = Apply(uris.FN_EQUAL, (e_kind, Literal("worksOn")))
    no = Apply(uris.FN_EQUAL, (e_kind, Literal("allocates")))
    assert eval_tree(b, Apply(uris.FN_OR, (no, yes)), g)
    assert not eval_tree(b, Apply(uris.FN_AND, (no, yes)), g)
    assert eval_tree(b, Apply(uris.FN_AND, (yes, yes, yes)), g)


def test_filter_literal_truthiness():
    g, b = filter_graph()
    assert eval_tree(b, Literal("true"), g)
    assert not eval_tree(b, Literal("false"), g)
    assert not eval_tree(b, Literal("yes"), g)


def test_filter_error_paths():
    g, b = filter_graph()
    unbound = Apply(
        uris.FN_EQUAL, (des("x", uris.CAT_PATH_EDGE, "ghost"), Literal("1"))
    )
    with pytest.raises(FilterEvalError, match="unbound name 'ghost'"):
        eval_tree(b, unbound, g)
    with pytest.raises(FilterEvalError, match="zero arguments"):
        eval_tree(b, Apply(uris.FN_AND, ()), g)
    with pytest.raises(FilterEvalError, match="two arguments"):
        eval_tree(b, Apply(uris.FN_EQUAL, (Literal("1"),)), g)
    with pytest.raises(UnknownFunctionError):
        eval_tree(b, Apply("xacml4g:1.0:function:xor", (Literal("1"), Literal("2"))), g)


XOR = "xacml4g:1.0:function:xor"


def filter_run(form: str, b: tuple, g: PropertyGraph):
    """Evaluate a tree on ``b``: compiled for ``b``'s names ("tree"), or
    as the filter of a plan whose matches bind ``s``, ``e`` and ``r``."""
    if form == "tree":
        return lambda expr: eval_tree(b, expr, g)
    steps = (VertexStep("s"), EdgeStep(binding="e"), VertexStep("r"))
    return lambda expr: eval_filter(b, QueryPlan(steps, filter=expr).compiled_filter[0], g)


@pytest.mark.parametrize("form", ["tree", "compiled"])
def test_short_circuit_never_hides_an_error(form):
    g, b = filter_graph()
    yes = Apply(uris.FN_EQUAL, (des("typeKind", uris.CAT_PATH_EDGE, "e"), Literal("worksOn")))
    ghost = Apply(uris.FN_EQUAL, (des("x", uris.CAT_PATH_VERTEX, "ghost"), Literal("1")))
    expr = Apply(uris.FN_OR, (yes, ghost))
    with pytest.raises(FilterEvalError, match="unbound name 'ghost'"):
        filter_run(form, b, g)(expr)


@pytest.mark.parametrize("form", ["tree", "compiled"])
def test_filter_errors_follow_depth_first_order(form):
    g, b = filter_graph()
    ghost = Apply(uris.FN_EQUAL, (des("x", uris.CAT_PATH_VERTEX, "ghost"), Literal("1")))
    xor = Apply(XOR, (Literal("1"), Literal("2")))
    run = filter_run(form, b, g)

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
    g = PropertyGraph([VertexRecord("v", "node", {"p": value})])
    names = {"s": "v"}
    b = (("v",), (), names)
    prop = des("p", uris.CAT_PATH_VERTEX, "s")
    assert len(COMPARISONS) == 9
    for function in COMPARISONS:
        for literal in map(Literal, COMPARED_LITERALS):
            for args in ((prop, literal), (literal, prop)):
                expr = Apply(function, args)
                assert eval_tree(b, expr, g) == oracles.filter_oracle(
                    g, names, expr
                ), (function, args)


def random_tree(rng: random.Random, depth: int, props: list[str]):
    """A condition tree over the names ``s``, ``r`` (vertices) and ``e``
    (an edge) of :func:`operand_graph` that cannot fail: a literal, a bare
    designator, a logical, or a comparison whose operands may be literals,
    designators or trees themselves."""
    shape = rng.choice(("literal", "designator") + ("logical", "comparison") * (depth > 0))
    if shape == "literal":
        return Literal(rng.choice(COMPARED_LITERALS))
    if shape == "designator":
        ref = rng.choice("ser")
        category = uris.CAT_PATH_EDGE if ref == "e" else uris.CAT_PATH_VERTEX
        return des(rng.choice(props), category, ref)
    if shape == "logical":
        args = tuple(random_tree(rng, depth - 1, props) for _ in range(rng.randint(1, 3)))
        return Apply(rng.choice((uris.FN_AND, uris.FN_OR)), args)
    return Apply(rng.choice(COMPARISONS), tuple(random_tree(rng, depth - 1, props) for _ in "lr"))


def operand_graph() -> tuple[PropertyGraph, tuple, list[str]]:
    """Two vertices and an edge holding the same property values, one per
    property name, plus a name none holds; a match over them all, its
    names written in full."""
    values = {f"p{i}": value for i, value in enumerate(COMPARED_VALUES)}
    g = PropertyGraph(
        [VertexRecord("u", "node", values), VertexRecord("t", "node", values)],
        [EdgeRecord("w", "link", "u", "t", values)],
    )
    match = (("u", "t"), ("w",), {"s": "u", "e": "w", "r": "t"})
    return g, match, [*values, "absent"]


def test_random_filter_trees_equal_the_oracle():
    # covers what the comparison tests above do not: two designators
    # compared with each other, an Apply as a comparison operand, a
    # literal against a literal and a bare designator as a predicate
    g, b, props = operand_graph()
    rng = random.Random(20231)
    shapes = set()
    for _ in range(3000):
        expr = random_tree(rng, rng.randint(0, 3), props)
        assert eval_tree(b, expr, g) == oracles.filter_oracle(g, b[2], expr), expr
        if isinstance(expr, Designator):
            shapes.add("bare designator")
        if isinstance(expr, Apply) and expr.function in COMPARISONS:
            kinds = {type(arg).__name__ for arg in expr.args}
            shapes.add("-".join(sorted(kinds)) if len(kinds) == 1 else "mixed")
    assert {"bare designator", "Designator", "Literal", "Apply"} <= shapes


# The six ways a condition tree can fail, each with a node that fails so.
FAULTS = {
    "unbound name": lambda rng: des(
        "p0", rng.choice((uris.CAT_PATH_VERTEX, uris.CAT_PATH_EDGE)),
        rng.choice(("ghost", "x", "_v2")),
    ),
    "misread category": lambda rng: rng.choice((
        des("p0", uris.CAT_PATH_VERTEX, "e"),
        des("p0", uris.CAT_PATH_EDGE, "s"),
        des("p0", uris.CAT_RESOURCE, "r"),
    )),
    "unknown function": lambda rng: Apply(XOR, (Literal("1"),) * rng.randint(0, 2)),
    "wrong arity": lambda rng: Apply(
        rng.choice(COMPARISONS), (Literal("1"),) * rng.choice((0, 1, 3))
    ),
    "zero-argument logical": lambda rng: Apply(rng.choice((uris.FN_AND, uris.FN_OR)), ()),
    "unsupported node": lambda rng: rng.choice((42, None, "true", (Literal("1"),))),
}
BOUND = {"s": uris.CAT_PATH_VERTEX, "e": uris.CAT_PATH_EDGE, "r": uris.CAT_PATH_VERTEX}
# where a match of ``(s)-[e]-(r)`` holds each of those names
LOCATIONS = QueryPlan((VertexStep("s"), EdgeStep(binding="e"), VertexStep("r"))).locations


def faulty_tree(rng: random.Random, depth: int, props: list[str]):
    """A tree of :func:`random_tree`'s shapes where each node may instead
    be one of the :data:`FAULTS`, at any depth."""
    if rng.random() < 0.15:
        node = rng.choice(list(FAULTS.values()))(rng)
        if isinstance(node, Apply) and node.args and rng.random() < 0.5:
            # a faulty node whose arguments may fail too
            node = Apply(node.function, tuple(
                faulty_tree(rng, depth - 1, props) for _ in node.args
            ))
        return node
    shape = rng.choice(("literal", "designator") + ("logical", "comparison") * (depth > 0))
    if shape in ("literal", "designator"):
        return random_tree(rng, 0, props)
    if shape == "logical":
        args = tuple(faulty_tree(rng, depth - 1, props) for _ in range(rng.randint(1, 3)))
        return Apply(rng.choice((uris.FN_AND, uris.FN_OR)), args)
    return Apply(rng.choice(COMPARISONS), tuple(faulty_tree(rng, depth - 1, props) for _ in "lr"))


def fault_kind(fault) -> str:
    error, message = fault
    if error is UnknownFunctionError:
        return "unknown function"
    for kind, words in (("unbound name", "unbound name"), ("misread category", "with category"),
                        ("wrong arity", "needs two"), ("zero-argument logical", "zero arg"),
                        ("unsupported node", "unsupported")):
        if words in message:
            return kind
    raise AssertionError(message)


def test_the_first_filter_fault_equals_the_oracle():
    # a filter that fails raises the first fault an eager, depth-first walk
    # meets, on every call; one that cannot fail gives where the match
    # holds the one name it reads, if it reads one
    g, b, props = operand_graph()
    rng = random.Random(4099)
    kinds, fault_free = set(), 0
    for _ in range(4000):
        expr = faulty_tree(rng, rng.randint(0, 4), props)
        evaluate, location = compile_filter(expr, BOUND, LOCATIONS)
        fault = oracles.filter_fault_oracle(expr, BOUND)
        if fault is None:
            fault_free += 1
            assert evaluate(b, g) == oracles.filter_oracle(g, b[2], expr), expr
            reads = oracles.filter_names_read(expr)
            assert location == (LOCATIONS[next(iter(reads))] if len(reads) == 1 else None), expr
            continue
        kinds.add(fault_kind(fault))
        assert location is None
        for _ in range(2):
            with pytest.raises(fault[0]) as raised:
                evaluate(b, g)
            assert type(raised.value) is fault[0] and str(raised.value) == fault[1], expr
    assert kinds == set(FAULTS)
    assert 1000 < fault_free < 3000


@pytest.mark.parametrize("value", COMPARED_VALUES, ids=repr)
def test_pinned_literals_match_loosely(value):
    # a pin holds exactly where loose equality does, also when the value's
    # text differs from the literal ("07" and 7, "2.0" and 2.0)
    record = VertexRecord("v", "node", {"p": value})
    for literal in COMPARED_LITERALS:
        check = element_check(VertexStep("s", pinned=(("p", literal),)))
        assert check(record) == oracles.loose_equal(value, literal), literal


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


def test_a_variable_length_edge_name_is_unbound():
    # a walk of several hops binds no one edge, so a filter that reads the
    # step's name fails like any other unbound name
    g = chain(3)
    reads_p = Apply(uris.FN_EQUAL, (des("kind", uris.CAT_PATH_EDGE, "p"), Literal("x")))
    rule_plan = QueryPlan(
        (pin("a", "c0"), EdgeStep(binding="p", max_len=2), VertexStep("z")), filter=reads_p
    )
    assert list(match_plan(g, rule_plan))
    with pytest.raises(FilterEvalError, match="^condition references unbound name 'p'$"):
        check_intersection(g, rule_plan, plan(pin("x", "c0")))


def parallel_pair() -> PropertyGraph:
    """a -> b twice (p1, then p2, kind "keep"), and b -> c."""
    return PropertyGraph(
        [VertexRecord(v, "n", {"_key": v}) for v in "abc"],
        [
            EdgeRecord("p1", "t", "a", "b", {"kind": "drop"}),
            EdgeRecord("p2", "t", "a", "b", {"kind": "keep"}),
            EdgeRecord("bc", "t", "b", "c", {"kind": "drop"}),
        ],
    )


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


def with_rival_managers(demo: PropertyGraph, count: int = 30) -> PropertyGraph:
    """A graph of the demo graph's records plus ``count`` pmUsers whose
    ids sort before the demo subject's, each with its own task and design
    document."""
    vertices, edges = list(demo.vertices()), list(demo.edges())
    for i in range(count):
        user, task, doc = f"10{i:08d}", f"11{i:08d}", f"0{i:09d}"
        vertices.append(VertexRecord(user, "dataObjects", {"_key": user, "typeCode": "pmUser"}))
        vertices.append(VertexRecord(task, "tasks", {"_key": task}))
        vertices.append(VertexRecord(doc, "dataObjects", {"_key": doc, "typeCode": "designDoc"}))
        edges.append(EdgeRecord(f"ar-x{i}", "accessRelations", user, task, {"typeKind": "worksOn"}))
        edges.append(EdgeRecord(f"td-x{i}", "taskDataRelations", task, doc, {"typeKind": "produces"}))
    return PropertyGraph(vertices, edges)


def count_matches(monkeypatch) -> list[list[int]]:
    """Wrap ``match_plan`` as ``check_intersection`` looks it up; one
    [matches yielded] entry per call, in call order."""
    counts: list[list[int]] = []
    original = path_matcher.match_plan

    def counting(*args, **kwargs):
        count = [0]
        counts.append(count)
        for match in original(*args, **kwargs):
            count[0] += 1
            yield match

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

        def recording(match, expr, graph):
            starts.append(match[0][0])
            return original(match, expr, graph)

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
    evaluate, location = rule_plan.compiled_filter
    assert location == rule_plan.locations["e"]
    matches = list(match_plan(graph, rule_plan))
    elements = {match_names(rule_plan, m)["e"] for m in matches}
    assert len(elements) < len(matches)
    runs, calls = [], []
    original = path_matcher.eval_filter

    def counting(match, graph):
        runs.append(match_names(rule_plan, match)["e"])
        return evaluate(match, graph)

    def recording(match, expr, graph):
        calls.append(match)
        return original(match, expr, graph)

    # the plan is this test's own, so its filter may count evaluations
    object.__setattr__(rule_plan, "compiled_filter", (counting, location))
    monkeypatch.setattr(path_matcher, "eval_filter", recording)
    assert not check_intersection(graph, rule_plan, REVIEWER_PATH)
    # one eval_filter call per rule match, one evaluation per element
    assert len(calls) == len(matches)
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
def test_search_evaluators_equal_the_oracle(condition, monkeypatch, demo_policy, demo_graph):
    graph = with_rival_managers(demo_graph)
    # the conditions read _v2 and _v4, so the plan declares them
    steps = tuple(
        replace(s, auto=False) if isinstance(s, VertexStep) else s
        for s in compile_rule(demo_policy.rules[0]).steps
    )
    rule_plan = QueryPlan(steps, filter=condition)
    matches = list(match_plan(graph, rule_plan))
    results, original = {}, path_matcher.eval_filter

    def recording(match, expr, graph):
        passed = results[oracles.binding_key(match, rule_plan)] = original(match, expr, graph)
        return passed

    monkeypatch.setattr(path_matcher, "eval_filter", recording)
    # no rule match holds the reviewer's path, so the search filters them all
    assert not check_intersection(graph, rule_plan, REVIEWER_PATH)
    monkeypatch.undo()
    want = {
        oracles.binding_key(m, rule_plan):
            oracles.filter_oracle(graph, match_names(rule_plan, m), condition)
        for m in matches
    }
    assert results == want
    assert 0 < sum(want.values()) < len(want)
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
        for match in matches:
            vertices, edges, _ = match
            with pytest.raises((FilterEvalError, UnknownFunctionError)) as raised:
                eval_tree((vertices, edges, match_names(rule_plan, match)), condition, graph)
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
    def key(match):
        return oracles.binding_key(match, p)

    plain = [key(b) for b in match_plan(g, p, varlen_cap=3)]
    preferred = [key(b) for b in match_plan(g, p, varlen_cap=3, prefer=prefer)]
    assert [key(b) for b in match_plan(g, p, varlen_cap=3, prefer=frozenset())] == plain
    # the same bindings: those from preferred starts first, each group in
    # the order of the plain stream, which is depth-first and id-ordered
    assert preferred == (
        [b for b in plain if b[0][0] in prefer]
        + [b for b in plain if b[0][0] not in prefer]
    )


# -- the exhaustive trail enumerator ---------------------------------------


def triangle() -> PropertyGraph:
    return PropertyGraph(
        [VertexRecord(v, "n", {}) for v in "ABC"],
        [
            EdgeRecord("ab", "t", "A", "B", {}),
            EdgeRecord("bc", "t", "B", "C", {}),
            EdgeRecord("ca", "t", "C", "A", {}),
        ],
    )


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
    got = oracles.binding_keys(match_plan(g, p, varlen_cap=3), p)
    want = oracles.binding_keys(oracles.plan_match_oracle(g, p, varlen_cap=3))
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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_binding_binds_the_names_of_its_plan(data):
    # each vertex step's name, and that of each named single-hop edge step
    g = data.draw(strategies.graphs())
    p = data.draw(strategies.plans(g))
    want = {step.binding for step in p.steps if isinstance(step, VertexStep)} | {
        step.binding
        for step in p.steps
        if isinstance(step, EdgeStep) and step.min_len == step.max_len == 1 and step.binding
    }
    for match in match_plan(g, p, varlen_cap=3):
        assert set(match_names(p, match)) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_binding_is_a_trail_through_the_graph(data):
    g = data.draw(strategies.graphs())
    p = data.draw(strategies.plans(g))
    for vertices, edges, _ in match_plan(g, p, varlen_cap=3):
        assert len(vertices) == len(edges) + 1
        assert len(set(edges)) == len(edges)
        for i, eid in enumerate(edges):
            edge = g.edge(eid)
            assert {edge.from_id, edge.to_id} == {vertices[i], vertices[i + 1]}


# -- where a match holds its names -------------------------------------------


def zoned_graph() -> PropertyGraph:
    """Six vertices, zones alternating ``core`` and ``edge``, on a ring of
    one-way links plus two chords, each link of kind ``keep`` or
    ``drop``: enough branching that prefixes repeat.  Apart from them, two
    ``edge`` vertices joined by one link, which no filter below lets a
    match reach."""
    vertices = [
        VertexRecord(f"v{i}", "n", {"_key": f"v{i}", "zone": ("core", "edge")[i % 2]})
        for i in range(6)
    ] + [VertexRecord(f"v{i}", "n", {"_key": f"v{i}", "zone": "edge"}) for i in (6, 7)]
    links = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (4, 1), (6, 7)]
    edges = [
        EdgeRecord(f"l{k}", "link", f"v{a}", f"v{b}", {"kind": ("keep", "drop")[k % 3 == 2]})
        for k, (a, b) in enumerate(links)
    ]
    return PropertyGraph(vertices, edges)


def zoned_requests(g: PropertyGraph) -> list[QueryPlan]:
    """One request plan per vertex, and one per ordered pair of ends of
    an edge, as compile_request_path builds them."""
    requests = [plan(pin("x", v)) for v in g.vertex_ids()]
    for edge in g.edges():
        requests.append(plan(pin("x", edge.from_id), EdgeStep(), pin("y", edge.to_id)))
        requests.append(plan(pin("x", edge.to_id), EdgeStep(), pin("y", edge.from_id)))
    return requests


def core(ref: str) -> Apply:
    return equal(ref, uris.CAT_PATH_VERTEX, "zone", "core")


@pytest.mark.parametrize("steps, condition", [
    (
        (VertexStep("s"), EdgeStep(max_len=2), VertexStep("m"), EdgeStep(max_len=2),
         VertexStep("r")),
        core("m"),
    ),
    (
        (pin("s", "v0"), EdgeStep(max_len=None), VertexStep("r")),
        core("r"),
    ),
    (
        (VertexStep("s"), EdgeStep(max_len=2), VertexStep("m"),
         EdgeStep(binding="e", direction="from"), VertexStep("r")),
        Apply(uris.FN_AND, (equal("e", uris.CAT_PATH_EDGE, "kind", "keep"), core("s"))),
    ),
    (
        (VertexStep("s"),),
        core("s"),
    ),
], ids=["vertex between variable-length steps", "last vertex after a variable-length step",
        "last single-hop edge", "only vertex"])
def test_a_filter_reads_each_name_where_the_match_holds_it(steps, condition):
    g = zoned_graph()
    rule_plan = QueryPlan(steps, filter=condition)
    matches = list(match_plan(g, rule_plan, varlen_cap=3))
    trails = oracles.plan_match_oracle(g, rule_plan, varlen_cap=3)
    # every name, read where the plan says, is the oracle's
    assert oracles.binding_keys(matches, rule_plan) == oracles.binding_keys(trails)
    passed = [oracles.filter_oracle(g, names, condition) for _, _, names in trails]
    assert 0 < sum(passed) < len(passed)
    results = [check_intersection(g, rule_plan, r, varlen_cap=3) for r in zoned_requests(g)]
    assert results == [
        oracles.intersection_oracle(g, rule_plan, r, varlen_cap=3) for r in zoned_requests(g)
    ]
    assert True in results and False in results


@pytest.mark.parametrize("steps, last_names, prefix", [
    ((VertexStep("s"),), {"s"}, lambda vertices, edges: ()),
    ((VertexStep("s"), EdgeStep(binding="e"), VertexStep("r")), {"e", "r"},
     lambda vertices, edges: vertices[:1]),
    ((VertexStep("s"), EdgeStep(binding="e1", direction="from"), VertexStep("m"),
      EdgeStep(max_len=2), VertexStep("r")), {"r"},
     lambda vertices, edges: (vertices[:2], edges[:1])),
    ((VertexStep("s"), EdgeStep(max_len=2), VertexStep("m"),
      EdgeStep(binding="e2", direction="to"), VertexStep("r")), {"e2", "r"},
     lambda vertices, edges: (vertices[:-1], edges[:-1])),
], ids=["one vertex", "one segment", "single hop then variable", "variable then single hop"])
def test_matches_from_one_prefix_share_one_names_dict(steps, last_names, prefix):
    # a match in the last segment adds no dict: its names are its
    # prefix's, the trail before the last segment, one object for every
    # match that extends that prefix, and hold no name of the last segment
    p = plan(*steps)
    matches = list(match_plan(zoned_graph(), p, varlen_cap=3))
    dicts_by_prefix: dict[tuple, set[int]] = {}
    for vertices, edges, names in matches:
        assert not last_names & names.keys()
        dicts_by_prefix.setdefault(prefix(vertices, edges), set()).add(id(names))
    assert len(matches) > len(dicts_by_prefix)
    assert all(len(ids) == 1 for ids in dicts_by_prefix.values())
    assert {name for name, (slot, _) in p.locations.items() if slot != 2} == last_names


def test_the_search_probe_counts_a_decision(capsys, fixtures_dir):
    import search_probe

    assert search_probe.main([
        "--policies", str(fixtures_dir / "policies"),
        "--graph", str(fixtures_dir / "graphs" / "demo_graph.json"),
        "--request", str(fixtures_dir / "requests" / "access_data_object.xml"),
        "--repeats", "2",
    ]) == 0
    rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    assert {name.strip(): value for name, value in rows.items()} == {
        "rule matches": "1", "filter calls": "1", "walked matches": "2",
        "walk_us/match": rows["walk_us/match"], "decide_us": rows["decide_us"],
        "blocks/match": rows["blocks/match"],
    }
    assert float(rows["decide_us"]) > 0 and float(rows["blocks/match"]) > 0
