"""Hypothesis generators for randomized graphs, plans, and filters.

Graphs stay desk-sized (≤ 12 vertices, ≤ 16 edges, ≤ 3 labels/types, ≤ 2
properties per element) with bounded degree so exhaustive trail
enumeration in the oracles stays fast.  Every vertex carries ``_key`` set
to its own id, which gives request-style plans something to pin.
"""

from __future__ import annotations

from hypothesis import strategies as st

import oracles
from graphpdp import uris
from graphpdp.graph_store import EdgeRecord, PropertyGraph, VertexRecord
from graphpdp.pattern_compiler import EdgeStep, QueryPlan, VertexStep
from graphpdp.policy_model import (
    Apply,
    ConstraintSet,
    Designator,
    Literal,
    MatchConstraint,
)

LABELS = ("L0", "L1", "L2")
TYPES = ("T0", "T1", "T2")
WORDS = ("red", "green", "blue")
# literals seen by comparisons: plain words, case variants, fragments,
# and numeric-looking text to hit the coercion rules
LITERALS = ("red", "green", "blue", "Red", "GREEN", "r", "ee", "1", "2", "10")

MAX_DEGREE = 6  # keeps trail counts tame for the brute-force oracle


@st.composite
def graphs(draw) -> PropertyGraph:
    n = draw(st.integers(min_value=1, max_value=12))
    vertices = []
    for i in range(n):
        props = {"_key": f"v{i}"}
        if draw(st.booleans()):
            props["flavor"] = draw(st.sampled_from(WORDS))
        vertices.append(VertexRecord(f"v{i}", draw(st.sampled_from(LABELS)), props))
    edges = []
    degree = [0] * n
    per_pair: dict[tuple[int, int], int] = {}
    made = 0
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        pair = (a, b) if a <= b else (b, a)
        if degree[a] >= MAX_DEGREE or degree[b] >= MAX_DEGREE:
            continue
        if per_pair.get(pair, 0) >= 2:
            continue
        props = {}
        if draw(st.booleans()):
            props["kind"] = draw(st.sampled_from(WORDS))
        edges.append(
            EdgeRecord(f"e{made}", draw(st.sampled_from(TYPES)), f"v{a}", f"v{b}", props)
        )
        degree[a] += 1
        degree[b] += 1
        per_pair[pair] = per_pair.get(pair, 0) + 1
        made += 1
    return PropertyGraph(vertices, edges)


def _constraints(draw, attribute_id: str, category: str) -> ConstraintSet:
    any_of = []
    for _ in range(draw(st.integers(1, 2))):
        all_of = []
        for _ in range(draw(st.integers(1, 2))):
            fn = draw(
                st.sampled_from(
                    (uris.MATCH_STRING_EQUAL, uris.MATCH_STRING_EQUAL_IGNORE_CASE)
                )
            )
            all_of.append(
                MatchConstraint(fn, draw(st.sampled_from(LITERALS)), attribute_id, category)
            )
        any_of.append(tuple(all_of))
    return ConstraintSet(tuple(any_of))


def _vertex_step(draw, graph: PropertyGraph, binding: str) -> VertexStep:
    label = draw(st.sampled_from(LABELS)) if draw(st.booleans()) else None
    pinned = ()
    if draw(st.integers(0, 3)) == 0:
        # usually a key that exists, occasionally one that cannot match
        target = draw(st.integers(0, 13))
        pinned = (("_key", f"v{target}"),)
    constraints = ConstraintSet()
    if draw(st.integers(0, 2)) == 0:
        constraints = _constraints(draw, "flavor", uris.CAT_PATH_VERTEX)
    return VertexStep(binding, label=label, constraints=constraints, pinned=pinned)


def _edge_step(draw, binding: str | None, eff_max: int, cap: int) -> EdgeStep:
    etype = draw(st.sampled_from(TYPES)) if draw(st.booleans()) else None
    direction = draw(st.sampled_from(("from", "to", "any")))
    min_len = draw(st.integers(1, eff_max))
    max_len: int | None = eff_max
    if eff_max == cap and draw(st.booleans()):
        max_len = None  # unbounded; the matcher cap makes it eff_max again
    constraints = ConstraintSet()
    if draw(st.integers(0, 2)) == 0:
        constraints = _constraints(draw, "kind", uris.CAT_PATH_EDGE)
    name = binding if (min_len == 1 and max_len == 1) else None
    return EdgeStep(
        binding=name,
        type=etype,
        direction=direction,
        min_len=min_len,
        max_len=max_len,
        constraints=constraints,
    )


@st.composite
def plans(draw, graph: PropertyGraph, budget: int = 4, cap: int = 3) -> QueryPlan:
    """Alternating vertex/edge steps whose summed effective lengths stay
    within ``budget`` so the oracle's enumeration bound is small.

    Three times in four, when the request drawn on this graph (see
    :func:`request_plans`) has matches, a last draw replaces the steps with
    ones along one of those matches, so the intersection is true unless
    the filter says no."""
    n_vertices = draw(st.integers(1, 4))
    n_edges = n_vertices - 1
    spare = budget - n_edges
    steps: list = []
    for i in range(n_vertices):
        steps.append(_vertex_step(draw, graph, f"x{i}"))
        if i < n_edges:
            extra = draw(st.integers(0, min(spare, cap - 1)))
            spare -= extra
            steps.append(_edge_step(draw, f"y{i}", 1 + extra, cap))
    filt = _filter(draw, steps)
    if draw(st.integers(0, 3)):
        # of several matches the first by element ids, the one match_plan
        # yields first, is never followed: a containment test that looks
        # only at the first request match would miss the others
        matches = sorted(
            oracles.plan_match_oracle(graph, draw(request_plans(graph))),
            key=lambda b: (b.edge_seq, b.vertex_seq),
        )
        if matches:
            match = draw(st.sampled_from(matches[1:] or matches))
            steps = _trail_steps(draw, graph, match)
            filt = _filter(draw, steps)
    return QueryPlan(tuple(steps), filter=filt)


def _trail_steps(draw, graph: PropertyGraph, match) -> list:
    """Single-hop steps that ``match``'s trail satisfies: each edge keeps
    its type and direction, each vertex its label unless a draw drops it."""
    vertices, edge_ids, _ = match
    steps: list = [_trail_vertex(draw, graph, vertices[0], 0)]
    for i, edge_id in enumerate(edge_ids):
        edge = graph.edge(edge_id)
        direction = "from" if edge.from_id == vertices[i] else "to"
        steps.append(EdgeStep(binding=f"y{i}", type=edge.type, direction=direction))
        steps.append(_trail_vertex(draw, graph, vertices[i + 1], i + 1))
    return steps


def _trail_vertex(draw, graph: PropertyGraph, vertex_id: str, i: int) -> VertexStep:
    label = graph.vertex(vertex_id).label if draw(st.booleans()) else None
    return VertexStep(f"x{i}", label=label)


def _filter(draw, steps):
    if draw(st.integers(0, 2)):  # two thirds of plans carry no filter
        return None
    refs = []
    for step in steps:
        if isinstance(step, VertexStep):
            refs.append((step.binding, uris.CAT_PATH_VERTEX, ("flavor", "_key")))
        elif step.binding is not None:
            refs.append((step.binding, uris.CAT_PATH_EDGE, ("kind",)))
    comparisons = st.builds(
        _comparison,
        st.sampled_from(refs),
        st.sampled_from(_COMPARISON_FNS),
        st.sampled_from(LITERALS),
        st.booleans(),
        st.integers(0, 1),
    )
    if draw(st.booleans()):
        return draw(comparisons)
    fn = draw(st.sampled_from((uris.FN_AND, uris.FN_OR)))
    return Apply(fn, (draw(comparisons), draw(comparisons)))


_COMPARISON_FNS = (
    uris.FN_EQUAL,
    uris.FN_NOT_EQUAL,
    uris.FN_GREATER_THAN,
    uris.FN_GREATER_THAN_OR_EQUAL,
    uris.FN_LESS_THAN,
    uris.FN_LESS_THAN_OR_EQUAL,
    uris.FN_STRING_EQUAL_IGNORE_CASE,
    uris.FN_STRING_CONTAINS,
    uris.FN_STRING_STARTS_WITH,
)


def _comparison(ref, fn, literal, literal_first, prop_index):
    name, category, props = ref
    designator = Designator(props[prop_index % len(props)], category, name)
    lit = Literal(literal)
    args = (lit, designator) if literal_first else (designator, lit)
    return Apply(fn, args)


def request_plans(graph: PropertyGraph):
    """:func:`_request_plans`, shared within one example for each graph: a
    :func:`plans` draw that follows a request match draws this same
    request, so an example draws at most one request per graph."""
    return st.shared(_request_plans(graph), key=("request plan", id(graph)))


@st.composite
def _request_plans(draw, graph: PropertyGraph) -> QueryPlan:
    """Pinned-vertex chains like compile_request_path produces, a third of
    them ending in a pinned edge group: an edge pinned on ``kind``, then a
    free vertex.

    Half the time the pinned keys trace an actual trail in the graph so
    the intersection check gets a fighting chance of being true.
    """
    length = draw(st.integers(1, 3))
    keys: list[str]
    if draw(st.booleans()) and graph.edge_count > 0:
        vid = draw(st.sampled_from(graph.vertex_ids()))
        keys = [vid]
        moves = oracles.adjacency(graph)
        for _ in range(length):
            hops = moves[keys[-1]]
            if not hops:
                break
            keys.append(draw(st.sampled_from(hops))[1])
    else:
        keys = [f"v{draw(st.integers(0, 13))}" for _ in range(length + 1)]
    steps: list = []
    for i, key in enumerate(keys):
        if i:
            steps.append(EdgeStep())
        steps.append(VertexStep(f"r{i}", pinned=(("_key", key),)))
    if draw(st.integers(0, 2)) == 0:
        # usually the kind of an edge at the last pinned vertex
        edges = oracles.adjacency(graph).get(keys[-1], [])
        kinds = sorted({graph.edge(e).properties.get("kind") for e, _ in edges} - {None})
        kind = draw(st.sampled_from(kinds or WORDS))
        steps.append(EdgeStep(pinned=(("kind", kind),)))
        steps.append(VertexStep(f"r{len(keys)}"))
    return QueryPlan(tuple(steps))
