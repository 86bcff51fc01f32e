"""Golden digest of the matcher's ordered output on seeded random cases.

The digest covers 300 cases drawn from ``random.Random`` seeds, each a
graph, a rule plan and three request plans: every binding ``match_plan``
yields for each plan, in order, with and without ``prefer``, and the
outcome of ``check_intersection`` for each request plan (its result, or
the type and message of the error it raises).  It pins the stream
element for element: a kernel change that reorders, drops or adds a
binding, or changes a result or an error, changes the digest.  The cases
have self-loops, parallel edges, all three directions, variable-length
steps under caps 2 and 3, request paths that end in a pinned edge group,
and filters that read one name or two.
"""

import hashlib
import random

from graphpdp import uris
from graphpdp.errors import FilterEvalError, UnknownFunctionError
from graphpdp.graph_store import EdgeRecord, PropertyGraph, VertexRecord
from graphpdp.path_matcher import check_intersection, match_plan
from graphpdp.pattern_compiler import EdgeStep, QueryPlan, VertexStep, compile_request_path
from graphpdp.policy_model import Apply, ConstraintSet, Designator, Literal, MatchConstraint
from graphpdp.request_model import KIND_EDGE, KIND_VERTEX, AttributeGroup

CASES = 300
REQUESTS = 3  # request plans per case
GOLDEN = "e6758a71521a2746285cd139119f1a132c89fde08f21a2e7bb2945898cddc7d0"

WORDS = ("red", "green", "blue", "1", "10")
COMPARISONS = (
    uris.FN_EQUAL,
    uris.FN_NOT_EQUAL,
    uris.FN_GREATER_THAN,
    uris.FN_LESS_THAN_OR_EQUAL,
    uris.FN_STRING_EQUAL_IGNORE_CASE,
    uris.FN_STRING_CONTAINS,
    uris.FN_STRING_STARTS_WITH,
)


def random_graph(rng: random.Random) -> PropertyGraph:
    g = PropertyGraph()
    n = rng.randint(1, 7)
    for i in range(n):
        props = {"_key": f"v{i}"}
        if rng.random() < 0.5:
            props["flavor"] = rng.choice(WORDS)
        g.add_vertex(VertexRecord(f"v{i}", rng.choice(("A", "B")), props))
    for i in range(rng.randint(0, 12)):
        a = rng.randrange(n)
        # a self-loop now and then; repeated pairs give parallel edges
        b = a if rng.random() < 0.15 else rng.randrange(n)
        props = {"kind": rng.choice(WORDS)} if rng.random() < 0.6 else {}
        g.add_edge(EdgeRecord(f"e{i}", rng.choice(("S", "T")), f"v{a}", f"v{b}", props))
    return g


def _constraints(rng: random.Random, attribute: str, category: str) -> ConstraintSet:
    function = rng.choice((uris.MATCH_STRING_EQUAL, uris.MATCH_STRING_EQUAL_IGNORE_CASE))
    return ConstraintSet(((MatchConstraint(function, rng.choice(WORDS), attribute, category),),))


def rule_plan(rng: random.Random, cap: int) -> QueryPlan:
    steps: list = []
    n_vertices = rng.choice((1, 2, 3, 3, 4))
    for i in range(n_vertices):
        if i:
            min_len = rng.randint(1, cap)
            max_len = rng.choice((min_len, cap, None, None)) if rng.random() < 0.5 else 1
            min_len = min(min_len, max_len or cap)
            steps.append(EdgeStep(
                binding=f"y{i}" if (min_len, max_len) == (1, 1) else None,
                type=rng.choice((None,) * 6 + ("S", "T")),
                direction=rng.choice(("from", "to", "any", "any")),
                min_len=min_len,
                max_len=max_len,
                constraints=(_constraints(rng, "kind", uris.CAT_PATH_EDGE)
                             if rng.random() < 0.1 else ConstraintSet()),
            ))
        steps.append(VertexStep(
            f"x{i}",
            label=rng.choice((None,) * 6 + ("A", "B")),
            constraints=(_constraints(rng, "flavor", uris.CAT_PATH_VERTEX)
                         if rng.random() < 0.1 else ConstraintSet()),
            pinned=(("_key", f"v{rng.randrange(8)}"),) if rng.random() < 0.1 else (),
        ))
    return QueryPlan(tuple(steps), filter=random_filter(rng, n_vertices))


def _comparison(rng: random.Random, name: str) -> Apply:
    if name.startswith("y"):
        designator = Designator("kind", uris.CAT_PATH_EDGE, name)
    else:
        designator = Designator(rng.choice(("flavor", "_key")), uris.CAT_PATH_VERTEX, name)
    literal = Literal(rng.choice(WORDS))
    args = (literal, designator) if rng.random() < 0.3 else (designator, literal)
    return Apply(rng.choice(COMPARISONS), args)


def random_filter(rng: random.Random, n_vertices: int):
    """No filter, a filter on one name, or one on two names; now and then
    one with an unbound name, an unknown function or a wrong arity."""
    names = [f"x{i}" for i in range(n_vertices)] + [f"y{i}" for i in range(1, n_vertices)]
    roll = rng.random()
    if roll < 0.3:
        return None
    if roll < 0.65:
        name = rng.choice(names)
        if rng.random() < 0.5:
            return _comparison(rng, name)
        return Apply(rng.choice((uris.FN_AND, uris.FN_OR)),
                     (_comparison(rng, name), _comparison(rng, name)))
    if roll < 0.92:
        first, second = rng.choice(names), rng.choice(names)
        return Apply(rng.choice((uris.FN_AND, uris.FN_OR)),
                     (_comparison(rng, first), _comparison(rng, second)))
    fault = rng.choice(("ghost", "unknown", "arity"))
    if fault == "ghost":
        return _comparison(rng, "ghost")
    if fault == "unknown":
        return Apply("urn:example:no-such-function",
                     (_comparison(rng, rng.choice(names)), Literal("1")))
    return Apply(uris.FN_EQUAL, (Designator("flavor", uris.CAT_PATH_VERTEX, "x0"),))


def request_plan(rng: random.Random, g: PropertyGraph) -> QueryPlan:
    """A request path as ``compile_request_path`` builds it: pinned vertex
    groups, usually along a walk through the graph, and sometimes a
    trailing pinned edge group."""
    vid = rng.choice(g.vertex_ids())
    walk = [vid]
    for _ in range(rng.randint(0, 2)):
        hops = g.hops(walk[-1], "any") if g.has_vertex(walk[-1]) else ()
        walk.append(rng.choice(hops)[1] if hops and rng.random() < 0.85
                    else f"v{rng.randrange(8)}")
    groups = []
    for i, key in enumerate(walk):
        category = uris.CAT_SUBJECT if i == 0 else uris.CAT_PATH_VERTEX
        pin = f"_key:{key}"
        if i and rng.random() < 0.25:
            pin = f"flavor:{rng.choice(WORDS)}"  # may match several vertices
        groups.append(AttributeGroup(category, KIND_VERTEX, (("id", pin),)))
    if rng.random() < 0.35:
        groups.append(AttributeGroup(uris.CAT_RESOURCE, KIND_EDGE,
                                     (("id", f"kind:{rng.choice(WORDS)}"),)))
    return compile_request_path(groups)


def _record(out, label: str, bindings) -> None:
    out.update(label.encode())
    for b in bindings:
        out.update(repr((b.vertex_seq, b.edge_seq, b.var_bindings)).encode())
    out.update(b"|")


def intersection_outcome(g, rule, request, cap) -> str:
    """The result of ``check_intersection``, or its error's type and message."""
    try:
        return repr(check_intersection(g, rule, request, cap))
    except (FilterEvalError, UnknownFunctionError) as error:
        return f"{type(error).__name__}: {error}"


def golden_digest(cases: int = CASES) -> str:
    out = hashlib.sha256()
    for seed in range(cases):
        rng = random.Random(seed)
        cap = rng.choice((2, 3))
        g = random_graph(rng)
        rule = rule_plan(rng, cap)
        requests = [request_plan(rng, g) for _ in range(REQUESTS)]
        prefer = frozenset(rng.sample(g.vertex_ids(), rng.randint(1, len(g.vertex_ids()))))
        for label, p in [("rule", rule)] + [("request", r) for r in requests]:
            _record(out, label, match_plan(g, p, cap))
            _record(out, label + "-prefer", match_plan(g, p, cap, prefer=prefer))
        for request in requests:
            out.update(intersection_outcome(g, rule, request, cap).encode())
    return out.hexdigest()


def test_matcher_stream_equals_the_golden_digest():
    assert golden_digest() == GOLDEN
