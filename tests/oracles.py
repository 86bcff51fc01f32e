"""Independent reference implementations used to cross-check the engine.

Nothing here shares traversal or rendering code with the package: plan
matching is done by filtering exhaustively enumerated trails through
explicit segment arithmetic, trail counting uses frontier expansion
instead of recursion, and the emitted Cypher text is re-parsed with a
small scanner so emission tests compare structure, not bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import operator as _op
import re
from typing import NamedTuple

from graphpdp import graph_store, uris
from graphpdp.errors import DuplicateIdError, GraphFormatError, ReferentialError
from graphpdp.graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    as_number,
    as_text,
)
from graphpdp.path_matcher import match_names
from graphpdp.pattern_compiler import EdgeStep, QueryPlan, VertexStep

# -- constraint predicates (rewritten, not imported) ------------------------


def _constraint_ok(props, constraints) -> bool:
    if not constraints.any_of:
        return True
    for all_of in constraints.any_of:
        good = True
        for m in all_of:
            value = props.get(m.attribute_id)
            if value is None:
                good = False
            elif m.match_function == uris.MATCH_STRING_EQUAL_IGNORE_CASE:
                good = as_text(value).casefold() == m.literal.casefold()
            else:
                good = as_text(value) == m.literal
            if not good:
                break
        if good:
            return True
    return False


def vertex_satisfies(graph: PropertyGraph, vid: str, step: VertexStep) -> bool:
    rec = graph.vertex(vid)
    if step.label is not None and rec.label != step.label:
        return False
    for name, want in step.pinned:
        if name not in rec.properties or not loose_equal(rec.properties[name], want):
            return False
    return _constraint_ok(rec.properties, step.constraints)


def edge_satisfies(graph: PropertyGraph, eid: str, step: EdgeStep) -> bool:
    rec = graph.edge(eid)
    if step.type is not None and rec.type != step.type:
        return False
    for name, want in step.pinned:
        if name not in rec.properties or not loose_equal(rec.properties[name], want):
            return False
    return _constraint_ok(rec.properties, step.constraints)


def _hop_direction_ok(graph, eid, here, there, direction) -> bool:
    rec = graph.edge(eid)
    forward = rec.from_id == here and rec.to_id == there
    backward = rec.from_id == there and rec.to_id == here
    if direction == "from":
        return forward
    if direction == "to":
        return backward
    return forward or backward


# -- graph equality, kind by kind -------------------------------------------


def value_kind(value) -> str:
    """One of 'boolean', 'integer', 'float', 'text'."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "text"
    raise TypeError(f"unsupported property value {value!r}")


def strict_equal(a, b) -> bool:
    """Equal values of one kind: 2, 2.0, "2" and True are four values."""
    return value_kind(a) == value_kind(b) and a == b


def same_properties(a, b) -> bool:
    return a.keys() == b.keys() and all(strict_equal(a[k], b[k]) for k in a)


def edge_ids(graph: PropertyGraph) -> list[str]:
    return sorted(edge.id for edge in graph.edges())


def same_graph(a: PropertyGraph, b: PropertyGraph) -> bool:
    """Whether the graphs hold the same records: the same vertex and edge
    ids, each with the same label or type, endpoints and properties."""
    if a.vertex_ids() != b.vertex_ids() or edge_ids(a) != edge_ids(b):
        return False
    for vid in a.vertex_ids():
        va, vb = a.vertex(vid), b.vertex(vid)
        if va.label != vb.label or not same_properties(va.properties, vb.properties):
            return False
    for eid in edge_ids(a):
        ea, eb = a.edge(eid), b.edge(eid)
        if (ea.type, ea.from_id, ea.to_id) != (eb.type, eb.from_id, eb.to_id):
            return False
        if not same_properties(ea.properties, eb.properties):
            return False
    return True


# -- reference JSON graph loader --------------------------------------------


class _BadRecord(Exception):
    """A record fails a check; the message lacks the record's place."""


def _reference_properties(raw) -> dict:
    if not isinstance(raw, dict):
        raise _BadRecord("properties must be an object")
    for name, value in raw.items():
        if isinstance(value, str):
            continue
        if not isinstance(value, (int, float, bool)):
            if value is graph_store._TOO_LARGE:
                raise _BadRecord(
                    f"property {name!r} is an integer too large to compare as a number"
                )
            raise _BadRecord(f"property {name!r} has unsupported value {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise _BadRecord(f"property {name!r} is {value!r}, not a finite number")
    return raw


def _reference_records(raws: list, record: type, fields: tuple[str, ...], what: str) -> list:
    allowed = {*fields, "properties"}
    records = []
    for i, raw in enumerate(raws):
        try:
            if not isinstance(raw, dict) or not raw.keys() <= allowed:
                raise _BadRecord(f"expected keys {sorted(allowed)}")
            values = []
            for key in fields:
                value = raw.get(key)
                if not isinstance(value, str) or not value:
                    raise _BadRecord(f"{key!r} must be a non-empty string")
                values.append(value)
            values.append(_reference_properties(raw.get("properties", {})))
        except _BadRecord as exc:
            raise GraphFormatError(f"{what}[{i}]: {exc}") from None
        records.append(record(*values))
    return records


def reference_load_graph_json(text: str) -> PropertyGraph:
    """The JSON graph format loaded the plain way: the whole document
    decoded by ``json.loads``, then its shape, the vertices, the edges and
    the links checked in that order."""
    try:
        doc = json.loads(text, parse_int=graph_store._integer)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise GraphFormatError(
            "top level must be an object with exactly 'vertices' and 'edges'"
        )
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    vertices = _reference_records(doc["vertices"], VertexRecord, ("id", "label"), "vertices")
    edges = _reference_records(doc["edges"], EdgeRecord, ("id", "type", "from", "to"), "edges")
    # the constructor checks all of this again; checked here first, the
    # loader is compared with rules that it does not share
    known_vertices: set[str] = set()
    for vertex in vertices:
        if not vertex.id:
            raise GraphFormatError("vertex id must be non-empty")
        if vertex.id in known_vertices:
            raise DuplicateIdError(f"duplicate vertex id {vertex.id!r}")
        known_vertices.add(vertex.id)
    known_edges: set[str] = set()
    for edge in edges:
        for endpoint in (edge.from_id, edge.to_id):
            if endpoint not in known_vertices:
                raise ReferentialError(edge.id, endpoint)
        if not edge.id:
            raise GraphFormatError("edge id must be non-empty")
        if edge.id in known_edges:
            raise DuplicateIdError(f"duplicate edge id {edge.id!r}")
        known_edges.add(edge.id)
    return PropertyGraph(vertices, edges)


# -- bindings as values -----------------------------------------------------


class Trail(NamedTuple):
    """A match as the oracles build it: the walked elements and every
    name it binds.  The oracles keep their own record rather than the
    engine's triple, whose names hold only what the steps before the last
    segment bind."""

    vertex_seq: tuple[str, ...]
    edge_seq: tuple[str, ...]
    names: dict[str, str]


def var_bindings(names) -> tuple[tuple[str, str], ...]:
    """The name -> element id pairs, sorted by name."""
    return tuple(sorted(names.items()))


def binding_key(match, plan: QueryPlan | None = None) -> tuple:
    """A match as a plain tuple, which compares, hashes and prints as its
    walked elements and all its names: those :func:`match_names` gives for
    an engine match of ``plan``, or a :class:`Trail`'s own with no plan."""
    vertex_seq, edge_seq, names = match
    if plan is not None:
        names = match_names(plan, match)
    return (vertex_seq, edge_seq, var_bindings(names))


def binding_keys(matches, plan: QueryPlan | None = None) -> set[tuple]:
    return {binding_key(m, plan) for m in matches}


# -- plan matching by trail filtering ---------------------------------------


def _segmentations(total: int, bounds: list[tuple[int, int]]):
    """All ways to split ``total`` edges into len(bounds) consecutive
    segments with per-segment length limits."""
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    for lengths in itertools.product(*ranges):
        if sum(lengths) == total:
            yield lengths


def adjacency(graph: PropertyGraph) -> dict[str, list[tuple[str, str]]]:
    """(edge id, neighbour id) moves from each vertex in either direction,
    in edge-id order; a self-loop is one move.  Built from the edge records
    alone, so it stays independent of the hop lists the engine walks."""
    moves: dict[str, list[tuple[str, str]]] = {vid: [] for vid in graph.vertex_ids()}
    for edge in sorted(graph.edges(), key=lambda e: e.id):
        moves[edge.from_id].append((edge.id, edge.to_id))
        if edge.to_id != edge.from_id:
            moves[edge.to_id].append((edge.id, edge.from_id))
    return moves


def enumerate_trails_oracle(graph: PropertyGraph, max_edges: int) -> list[Trail]:
    """Every trail of 0..max_edges edges, both orientations, in a fixed
    order.  Shares no traversal code with match_plan, which it checks."""
    if max_edges > 8:
        raise ValueError("oracle is exhaustive; refusing max_edges > 8")
    trails: list[Trail] = []
    moves = adjacency(graph)

    def step(vseq: tuple[str, ...], eseq: tuple[str, ...]) -> None:
        trails.append(Trail(vseq, eseq, {}))
        if len(eseq) >= max_edges:
            return
        for eid, nvid in moves[vseq[-1]]:
            if eid not in eseq:
                step(vseq + (nvid,), eseq + (eid,))

    for start in graph.vertex_ids():
        step((start,), ())
    return trails


def plan_match_oracle(
    graph: PropertyGraph, plan: QueryPlan, varlen_cap: int = 8
) -> list[Trail]:
    """Brute force: every trail, every admissible segmentation; each
    distinct binding (see :func:`binding_key`) once."""
    vsteps = [s for s in plan.steps if isinstance(s, VertexStep)]
    esteps = [s for s in plan.steps if isinstance(s, EdgeStep)]
    bounds = [
        (e.min_len, e.max_len if e.max_len is not None else varlen_cap)
        for e in esteps
    ]
    max_total = sum(hi for _, hi in bounds)
    found: dict[tuple, Trail] = {}
    for trail in enumerate_trails_oracle(graph, max_total):
        total = len(trail.edge_seq)
        if total < sum(lo for lo, _ in bounds):
            continue
        for lengths in _segmentations(total, bounds):
            binding = _aligned_binding(graph, trail, lengths, vsteps, esteps)
            if binding is not None:
                found.setdefault(binding_key(binding), binding)
    return list(found.values())


def _aligned_binding(graph, trail, lengths, vsteps, esteps):
    boundaries = [0]
    for length in lengths:
        boundaries.append(boundaries[-1] + length)
    for vstep, pos in zip(vsteps, boundaries):
        if not vertex_satisfies(graph, trail.vertex_seq[pos], vstep):
            return None
    names = []
    for k, estep in enumerate(esteps):
        for i in range(boundaries[k], boundaries[k + 1]):
            eid = trail.edge_seq[i]
            if not edge_satisfies(graph, eid, estep):
                return None
            if not _hop_direction_ok(
                graph, eid, trail.vertex_seq[i], trail.vertex_seq[i + 1],
                estep.direction,
            ):
                return None
        if estep.binding is not None and estep.is_single_hop:
            names.append((estep.binding, trail.edge_seq[boundaries[k]]))
    for vstep, pos in zip(vsteps, boundaries):
        names.append((vstep.binding, trail.vertex_seq[pos]))
    return Trail(trail.vertex_seq, trail.edge_seq, dict(names))


def intersection_oracle(graph, rule_plan, request_plan, varlen_cap=8):
    """Double loop over both oracle-enumerated binding sets."""
    request_bindings = plan_match_oracle(graph, request_plan, varlen_cap)
    if not request_bindings:
        return False
    for b1 in plan_match_oracle(graph, rule_plan, varlen_cap):
        if rule_plan.filter is not None and not filter_oracle(
            graph, b1.names, rule_plan.filter
        ):
            continue
        for b2 in request_bindings:
            if set(b2.vertex_seq) <= set(b1.vertex_seq) and set(
                b2.edge_seq
            ) <= set(b1.edge_seq):
                return True
    return False


# -- filter evaluation, rewritten with the operator module -------------------


def _cmp(py_op, a, b):
    # value coercion is shared plumbing (graph_store); what this module
    # re-derives is the matching and filter *logic* built on top of it
    an, bn = as_number(a), as_number(b)
    if an is not None and bn is not None:
        return py_op(an, bn)
    if an is None and bn is None:
        return py_op(as_text(a), as_text(b))
    return False


def loose_equal(a, b) -> bool:
    """Equality as the comparison operator '=' sees it: numeric-looking
    operands compare as floats, two non-numeric ones by text, and a
    numeric/non-numeric mix is unequal."""
    return _cmp(_op.eq, a, b)


_CMPS = {
    uris.FN_EQUAL: lambda a, b: _cmp(_op.eq, a, b),
    uris.FN_NOT_EQUAL: lambda a, b: _cmp(_op.ne, a, b),
    uris.FN_GREATER_THAN: lambda a, b: _cmp(_op.gt, a, b),
    uris.FN_GREATER_THAN_OR_EQUAL: lambda a, b: _cmp(_op.ge, a, b),
    uris.FN_LESS_THAN: lambda a, b: _cmp(_op.lt, a, b),
    uris.FN_LESS_THAN_OR_EQUAL: lambda a, b: _cmp(_op.le, a, b),
    uris.FN_STRING_EQUAL_IGNORE_CASE: (
        lambda a, b: as_text(a).casefold() == as_text(b).casefold()
    ),
    uris.FN_STRING_CONTAINS: lambda a, b: as_text(b) in as_text(a),
    uris.FN_STRING_STARTS_WITH: lambda a, b: as_text(a).startswith(as_text(b)),
}


def _as_bool(value):
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    return as_text(value) == "true"


def filter_oracle(graph, names, expr) -> bool:
    """The filter's truth value on a match binding ``names``, every name
    it binds mapped to its element id."""
    from graphpdp.policy_model import Apply, Designator, Literal

    def ev(node):
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, Designator):
            element_id = names.get(node.binding_ref)
            if node.category == uris.CAT_PATH_EDGE:
                rec = graph.edge(element_id)
            else:
                rec = graph.vertex(element_id)
            return rec.properties.get(node.attribute_id)
        assert isinstance(node, Apply)
        if node.function == uris.FN_AND:
            return all(_as_bool(ev(a)) for a in node.args)
        if node.function == uris.FN_OR:
            return any(_as_bool(ev(a)) for a in node.args)
        left, right = (ev(a) for a in node.args)
        if left is None or right is None:
            return False
        return _CMPS[node.function](left, right)

    return _as_bool(ev(expr))


def filter_fault_oracle(expr, bound):
    """The first fault an eager, depth-first evaluation of ``expr`` meets,
    as ``(error type, message)``, or None when it meets none.

    ``bound`` maps each name a match binds to the category a designator
    must read it with.  A node's own fault (an unknown function, a
    logical without arguments, a comparison without two) comes before
    its arguments' faults, and arguments are visited left to right.
    """
    from graphpdp.errors import FilterEvalError, UnknownFunctionError
    from graphpdp.policy_model import Apply, Designator, Literal

    if isinstance(expr, Literal):
        return None
    if isinstance(expr, Designator):
        name, category = expr.binding_ref, expr.category
        if name not in bound:
            return FilterEvalError, f"condition references unbound name {name!r}"
        if bound[name] != category:
            return FilterEvalError, (
                f"condition reads {name!r} with category {category!r}, not {bound[name]!r}"
            )
        return None
    if not isinstance(expr, Apply):
        return FilterEvalError, f"unsupported expression node {expr!r}"
    if expr.function not in uris.CONDITION_FUNCTIONS:
        return UnknownFunctionError, f"unknown function {expr.function!r}"
    if expr.function in (uris.FN_AND, uris.FN_OR):
        if not expr.args:
            return FilterEvalError, f"{expr.function} applied to zero arguments"
    elif len(expr.args) != 2:
        return FilterEvalError, f"{expr.function} needs two arguments, got {len(expr.args)}"
    for arg in expr.args:
        fault = filter_fault_oracle(arg, bound)
        if fault is not None:
            return fault
    return None


def filter_names_read(expr) -> set[str]:
    """The binding names the designators of ``expr`` read."""
    from graphpdp.policy_model import Apply, Designator

    if isinstance(expr, Designator):
        return {expr.binding_ref}
    if isinstance(expr, Apply):
        return set().union(*map(filter_names_read, expr.args))
    return set()


# -- second, differently-shaped trail counter -------------------------------


def count_trails_frontier(graph: PropertyGraph, max_edges: int) -> int:
    """Count trails of 0..max_edges edges by frontier expansion."""
    moves = adjacency(graph)
    frontier = [(vid, frozenset()) for vid in graph.vertex_ids()]
    total = len(frontier)
    for _ in range(max_edges):
        grown = []
        for vid, used in frontier:
            for eid, nxt in moves[vid]:
                if eid not in used:
                    grown.append((nxt, used | {eid}))
        total += len(grown)
        frontier = grown
    return total


# -- emitted-query scanner --------------------------------------------------
#
# Just enough Cypher to re-read what the emitter produces (and the
# hand-written rendering the demo is compared against): linear patterns,
# string literals, comparisons, AND/OR, toLower(), the two containment
# predicates, and the RETURN line.


class QueryParseError(Exception):
    pass


_NODE_CONTAINMENT = re.compile(
    r"ALL \(x IN nodes\((\w+)\) WHERE x IN nodes\((\w+)\)\)"
)
_REL_CONTAINMENT = re.compile(
    r"ALL \(x IN relationships\((\w+)\) WHERE x IN relationships\((\w+)\)\)"
)


def parse_emitted_query(text: str) -> dict:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 4:
        raise QueryParseError(f"expected 4 lines, got {len(lines)}")
    m1 = re.fullmatch(r"MATCH p1 = (.+)", lines[0])
    m2 = re.fullmatch(r"MATCH p2 = (.+)", lines[1])
    mw = re.fullmatch(r"WHERE (.+)", lines[2])
    if not (m1 and m2 and mw):
        raise QueryParseError("MATCH/WHERE framing not recognized")
    if lines[3] != "RETURN p1 IS NOT NULL AS result":
        raise QueryParseError(f"unexpected RETURN line {lines[3]!r}")

    where = mw.group(1)
    node_c = _NODE_CONTAINMENT.search(where)
    rel_c = _REL_CONTAINMENT.search(where)
    if not node_c or not rel_c:
        raise QueryParseError("containment predicates missing")
    cut = min(node_c.start(), rel_c.start())
    filter_text = where[:cut].rstrip()
    if filter_text.endswith(" AND"):
        filter_text = filter_text[: -len(" AND")]
    return {
        "p1": _parse_pattern(m1.group(1)),
        "p2": _parse_pattern(m2.group(1)),
        "filter": _parse_expr(filter_text) if filter_text else None,
        "containment": (node_c.groups(), rel_c.groups()),
    }


def _parse_pattern(text: str) -> list[dict]:
    elements = []
    i = 0
    while i < len(text):
        if text[i] == "(":
            j = _scan_until(text, i + 1, ")")
            elements.append(_parse_vertex_body(text[i + 1 : j]))
            i = j + 1
        elif text[i] in "-<":
            start = i
            lb = text.index("[", i)
            rb = _scan_until(text, lb + 1, "]")
            j = rb + 1
            while j < len(text) and text[j] in "->":
                j += 1
            arrow = text[start:lb] + text[rb + 1 : j]
            if arrow.startswith("<"):
                direction = "to"
            elif arrow.endswith(">"):
                direction = "from"
            else:
                direction = "any"
            elements.append(_parse_edge_body(text[lb + 1 : rb], direction))
            i = j
        else:
            raise QueryParseError(f"cannot scan pattern at ...{text[i:]!r}")
    return elements


def _scan_until(text: str, start: int, closer: str) -> int:
    i = start
    in_string = False
    while i < len(text):
        c = text[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == closer:
            return i
        i += 1
    raise QueryParseError(f"unbalanced {closer!r}")


_BODY_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)?(?::(?P<label>[A-Za-z_][A-Za-z0-9_]*))?(?P<rest>.*)", re.S)


def _parse_vertex_body(body: str) -> dict:
    m = _BODY_RE.fullmatch(body)
    props = _parse_props(m.group("rest"))
    return {
        "kind": "vertex",
        "name": m.group("name"),
        "label": m.group("label"),
        "props": props,
    }


def _parse_edge_body(body: str, direction: str) -> dict:
    m = re.fullmatch(
        r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)?"
        r"(?::(?P<type>[A-Za-z_][A-Za-z0-9_]*))?"
        r"(?P<len>\*[0-9.]*)?"
        r"(?P<rest>.*)",
        body,
        re.S,
    )
    if m is None:
        raise QueryParseError(f"cannot scan edge body {body!r}")
    min_len, max_len = 1, 1
    marker = m.group("len")
    if marker is not None:
        spec = marker[1:]
        if spec == "":
            min_len, max_len = 1, None
        elif ".." in spec:
            lo, hi = spec.split("..")
            min_len = int(lo) if lo else 1
            max_len = int(hi) if hi else None
        else:
            min_len = max_len = int(spec)
    return {
        "kind": "edge",
        "name": m.group("name"),
        "type": m.group("type"),
        "direction": direction,
        "min": min_len,
        "max": max_len,
        "props": _parse_props(m.group("rest")),
    }


def _parse_props(rest: str) -> dict:
    rest = rest.strip()
    if not rest:
        return {}
    if not (rest.startswith("{") and rest.endswith("}")):
        raise QueryParseError(f"cannot scan property map {rest!r}")
    inner = rest[1:-1]
    props = {}
    for key, value in re.findall(r'(`[^`]+`|[A-Za-z_][A-Za-z0-9_]*)\s*:\s*"((?:[^"\\]|\\.)*)"', inner):
        props[key.strip("`")] = value.replace('\\"', '"').replace("\\\\", "\\")
    return props


# Filter grammar: expr := term (OR term)* ; term := factor (AND factor)* ;
# factor := '(' expr ')' | comparison ; comparison := operand op operand.

_TOKEN_RE = re.compile(
    r'\s*(?:(?P<str>"(?:[^"\\]|\\.)*")|(?P<op><>|<=|>=|=|<|>)'
    r"|(?P<kw>AND\b|OR\b|CONTAINS\b|STARTS WITH\b|toLower)"
    r"|(?P<ref>[A-Za-z_][A-Za-z0-9_]*(?:\.(?:`[^`]+`|[A-Za-z_][A-Za-z0-9_]*))?)"
    r"|(?P<paren>[()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise QueryParseError(f"cannot tokenize at {text[pos:pos+20]!r}")
        if m.group("str") is not None:
            raw = m.group("str")[1:-1]
            tokens.append(("str", raw.replace('\\"', '"').replace("\\\\", "\\")))
        elif m.group("op") is not None:
            tokens.append(("op", m.group("op")))
        elif m.group("kw") is not None:
            tokens.append(("kw", m.group("kw")))
        elif m.group("ref") is not None:
            tokens.append(("ref", m.group("ref").replace("`", "")))
        else:
            tokens.append(("paren", m.group("paren")))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def parse(self):
        tree = self.expr()
        if self.pos != len(self.tokens):
            raise QueryParseError(f"trailing tokens {self.tokens[self.pos:]!r}")
        return tree

    def expr(self):
        parts = [self.term()]
        while self.peek() == ("kw", "OR"):
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def term(self):
        parts = [self.factor()]
        while self.peek() == ("kw", "AND"):
            self.take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def factor(self):
        kind, value = self.peek()
        if (kind, value) == ("paren", "("):
            self.take()
            inner = self.expr()
            if self.take() != ("paren", ")"):
                raise QueryParseError("missing close paren")
            return inner
        return self.comparison()

    def comparison(self):
        left = self.operand()
        kind, value = self.take()
        if kind == "op":
            op = value
        elif kind == "kw" and value in ("CONTAINS", "STARTS WITH"):
            op = value
        else:
            raise QueryParseError(f"expected comparison operator, got {value!r}")
        right = self.operand()
        return ("cmp", op, left, right)

    def operand(self):
        kind, value = self.take()
        if kind == "str":
            return ("lit", value)
        if kind == "ref":
            return ("ref", value)
        if (kind, value) == ("kw", "toLower"):
            if self.take() != ("paren", "("):
                raise QueryParseError("toLower without parenthesis")
            inner = self.operand()
            if self.take() != ("paren", ")"):
                raise QueryParseError("toLower not closed")
            return ("lower", inner)
        raise QueryParseError(f"unexpected operand {value!r}")


def _parse_expr(text: str):
    return _ExprParser(_tokenize(text)).parse()


# -- structural normalization ----------------------------------------------


def normalize_query(parsed: dict) -> dict:
    """Rename bindings to appearance order so two emissions with different
    generated names compare equal."""
    rename: dict[str, str] = {}

    def canon(name):
        if name is None:
            return None
        if name not in rename:
            rename[name] = f"_n{len(rename)}"
        return rename[name]

    def canon_pattern(elements):
        out = []
        for el in elements:
            el = dict(el)
            el["name"] = canon(el["name"])
            out.append(el)
        return out

    p1 = canon_pattern(parsed["p1"])
    p2 = canon_pattern(parsed["p2"])

    def canon_expr(node):
        if node is None:
            return None
        tag = node[0]
        if tag in ("or", "and"):
            return (tag, tuple(canon_expr(child) for child in node[1]))
        if tag == "cmp":
            return ("cmp", node[1], canon_expr(node[2]), canon_expr(node[3]))
        if tag == "lower":
            return ("lower", canon_expr(node[1]))
        if tag == "ref":
            if "." in node[1]:
                name, prop = node[1].split(".", 1)
                return ("ref", f"{canon(name)}.{prop}")
            return ("ref", canon(node[1]))
        return node

    return {
        "p1": p1,
        "p2": p2,
        "filter": canon_expr(parsed["filter"]),
        "containment": parsed["containment"],
    }
