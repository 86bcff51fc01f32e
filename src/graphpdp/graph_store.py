"""In-memory property graph with file importers and snapshot support.

The graph holds vertices with exactly one label and edges with exactly one
type, each carrying a scalar property map.  Property values are plain
Python ``str``/``int``/``float``/``bool``; the helpers below implement the
value semantics the engine relies on:

* strict equality is kind-aware (integer 2, float 2.0, text "2" and
  boolean True are four different values),
* comparison operators coerce to float only when both operands look
  numeric (see :func:`loose_equal`),
* :func:`as_text` is the canonical textual rendering used for
  lexicographic comparison and for string match functions.

A graph is built in one of three ways, each keeping every vertex's hop
lists sorted and its label and property indexes current:

* ``add_vertex``/``add_edge`` insert one element at a time;
* the file importers check every record, add the vertices, then link the
  edges in bulk, sorting each hop list once at the end;
* :meth:`PropertyGraph.snapshot` and :func:`build_source_subset` derive a
  copy from a built graph's own sorted hop lists, dropping the edges they
  do not keep, so nothing is sorted again; the copy's indexes are built
  from its records.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import AbstractSet, Iterator

from .errors import (
    DuplicateIdError,
    FrozenGraphError,
    GraphFormatError,
    MissingEndpointError,
    ReferentialError,
)
from .policy_model import DIRECTION_ANY, DIRECTION_FROM, DIRECTION_TO, Meta

PropertyValue = str | int | float | bool

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")


def value_kind(value: PropertyValue) -> str:
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


def strict_equal(a: PropertyValue, b: PropertyValue) -> bool:
    return value_kind(a) == value_kind(b) and a == b


def props_equal(a: dict[str, PropertyValue], b: dict[str, PropertyValue]) -> bool:
    if a.keys() != b.keys():
        return False
    return all(strict_equal(a[k], b[k]) for k in a)


def as_text(value: PropertyValue) -> str:
    """Canonical text form: booleans as true/false, floats via repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return repr(value) if isinstance(value, float) else str(value)


def as_number(value: PropertyValue) -> float | None:
    """Float view of a value, or None when it is not numeric.

    Text parses as a number only when it is exactly an integer or float
    literal; booleans never do.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if _FLOAT_RE.match(value):
        return float(value)
    return None


def canonical_key(value: PropertyValue) -> tuple[str, float | str]:
    """Equivalence-class key under :func:`loose_equal`."""
    num = as_number(value)
    if num is not None:
        return ("num", num)
    return ("text", as_text(value))


def loose_equal(a: PropertyValue, b: PropertyValue) -> bool:
    """Equality as the comparison operator '=' sees it.

    Numeric-looking operands compare as floats; two non-numeric operands
    compare by text; a numeric/non-numeric mix is unequal.
    """
    return canonical_key(a) == canonical_key(b)


@dataclass(eq=False)
class VertexRecord:
    id: str
    label: str
    properties: dict[str, PropertyValue] = field(default_factory=dict)

    def copy(self) -> "VertexRecord":
        """Same record with its own property dict."""
        return VertexRecord(self.id, self.label, dict(self.properties))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.label == other.label
            and props_equal(self.properties, other.properties)
        )


@dataclass(eq=False)
class EdgeRecord:
    id: str
    type: str
    from_id: str
    to_id: str
    properties: dict[str, PropertyValue] = field(default_factory=dict)

    def copy(self) -> "EdgeRecord":
        """Same record with its own property dict."""
        return EdgeRecord(
            self.id, self.type, self.from_id, self.to_id, dict(self.properties)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.type == other.type
            and self.from_id == other.from_id
            and self.to_id == other.to_id
            and props_equal(self.properties, other.properties)
        )


_HOP_SLOT = {DIRECTION_FROM: 0, DIRECTION_TO: 1, DIRECTION_ANY: 2}
_NO_IDS: frozenset[str] = frozenset()


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a bulk insert.

    The records and hop lists an insert creates hold no reference cycles,
    yet the collector rescans them as they pile up, which costs more time
    than the inserts themselves.  The previous state comes back however
    the block ends.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class PropertyGraph:
    """Mutable property graph with sorted hop lists and vertex indexes.

    ``snapshot()`` returns a frozen copy with fresh records, hop lists and
    index sets, its hop lists derived from this graph's own rather than
    re-inserted, that later mutations of the live graph cannot affect;
    evaluations run against snapshots.  A graph's indexes hold each
    record's label and property values as they were when it was added;
    a snapshot or subset indexes the values its records hold when it is
    taken.
    """

    def __init__(self) -> None:
        self._vertices: dict[str, VertexRecord] = {}
        self._edges: dict[str, EdgeRecord] = {}
        # vertex id -> sorted (edge id, neighbour id) pairs, one list per
        # direction in _HOP_SLOT order
        self._hops: dict[str, tuple[list[tuple[str, str]], ...]] = {}
        self._label_index: dict[str, set[str]] = {}
        self._vertex_prop_index: dict[tuple[str, tuple], set[str]] = {}
        self._frozen = False

    # -- mutation ----------------------------------------------------------

    def add_vertex(self, vertex: VertexRecord) -> None:
        self._check_mutable()
        if not vertex.id:
            raise GraphFormatError("vertex id must be non-empty")
        if vertex.id in self._vertices:
            raise DuplicateIdError(f"duplicate vertex id {vertex.id!r}")
        self._vertices[vertex.id] = vertex
        self._hops[vertex.id] = ([], [], [])
        self._index_vertex(vertex)

    def _index_vertex(self, vertex: VertexRecord) -> None:
        """Enter ``vertex`` under its label and each property value."""
        self._label_index.setdefault(vertex.label, set()).add(vertex.id)
        for name, value in vertex.properties.items():
            key = (name, canonical_key(value))
            self._vertex_prop_index.setdefault(key, set()).add(vertex.id)

    def add_edge(self, edge: EdgeRecord) -> None:
        self._check_mutable()
        self._check_edge_id(edge)
        for endpoint in (edge.from_id, edge.to_id):
            if endpoint not in self._vertices:
                raise MissingEndpointError(
                    f"edge {edge.id!r} references missing vertex {endpoint!r}"
                )
        self._put_edge(edge, insort)

    def _check_edge_id(self, edge: EdgeRecord) -> None:
        if not edge.id:
            raise GraphFormatError("edge id must be non-empty")
        if edge.id in self._edges:
            raise DuplicateIdError(f"duplicate edge id {edge.id!r}")

    def _put_edge(self, edge: EdgeRecord, put) -> None:
        """Store ``edge`` and give both endpoints its hops through ``put``:
        ``insort`` keeps each hop list sorted, ``list.append`` leaves the
        sort to the caller."""
        self._edges[edge.id] = edge
        out_hop = (edge.id, edge.to_id)
        in_hop = (edge.id, edge.from_id)
        out_hops, _, from_any = self._hops[edge.from_id]
        _, in_hops, to_any = self._hops[edge.to_id]
        put(out_hops, out_hop)
        put(in_hops, in_hop)
        put(from_any, out_hop)
        if edge.from_id != edge.to_id:  # a self-loop is one hop either way
            put(to_any, in_hop)

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("graph snapshot is immutable")

    # -- access ------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def vertex(self, vertex_id: str) -> VertexRecord:
        return self._vertices[vertex_id]

    def edge(self, edge_id: str) -> EdgeRecord:
        return self._edges[edge_id]

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[VertexRecord]:
        return iter(self._vertices.values())

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def vertex_ids(self) -> list[str]:
        return sorted(self._vertices)

    def edge_ids(self) -> list[str]:
        return sorted(self._edges)

    def hops(self, vertex_id: str, direction: str) -> list[tuple[str, str]]:
        """(edge id, neighbour id) pairs leaving ``vertex_id`` in sorted order.

        ``direction`` is ``from`` (out-edges), ``to`` (in-edges) or ``any``
        (both; a self-loop appears once).  The list is the graph's own:
        read it, never mutate it.
        """
        return self._hops[vertex_id][_HOP_SLOT[direction]]

    def vertices_with_label(self, label: str) -> AbstractSet[str]:
        """Ids of the vertices labelled ``label``.  The set is the index's
        own: read it, never mutate it."""
        return self._label_index.get(label, _NO_IDS)

    def vertices_with_property(
        self, name: str, value: PropertyValue
    ) -> AbstractSet[str]:
        """Ids of the vertices whose ``name`` property loosely equals
        ``value``.  The set is the index's own: read it, never mutate it."""
        return self._vertex_prop_index.get((name, canonical_key(value)), _NO_IDS)

    # -- snapshots & equality ---------------------------------------------

    def snapshot(self) -> "PropertyGraph":
        """Frozen copy of this graph, derived from its own structures (see
        :meth:`_derived`); later mutation of this graph cannot reach it."""
        clone = self._derived()
        clone._frozen = True
        return clone

    def _derived(
        self,
        labels: AbstractSet[str] | None = None,
        types: AbstractSet[str] | None = None,
    ) -> "PropertyGraph":
        """Copy of the vertices labelled in ``labels`` and of the edges
        typed in ``types`` whose endpoints are both kept (``None`` keeps
        every label or type).

        The copy has fresh records and each kept vertex's sorted hop lists
        filtered to the kept edges, so still sorted and never sorted again.
        Its label and property indexes are built from the copied records,
        so a record changed in place since it was added is indexed by its
        current values.  No record, list or set is shared with this graph.
        """
        graph = PropertyGraph()
        with _collector_paused():
            vertices = graph._vertices
            for vid, vertex in self._vertices.items():
                if labels is None or vertex.label in labels:
                    vertices[vid] = copy = vertex.copy()
                    graph._index_vertex(copy)
            edges = graph._edges
            for eid, edge in self._edges.items():
                if (
                    (types is None or edge.type in types)
                    and edge.from_id in vertices
                    and edge.to_id in vertices
                ):
                    edges[eid] = edge.copy()
            hops, kept_hops = self._hops, graph._hops
            every_edge = len(edges) == len(self._edges)
            for vid in vertices:
                out_hops, in_hops, any_hops = hops[vid]
                if every_edge:
                    kept_hops[vid] = (out_hops[:], in_hops[:], any_hops[:])
                else:
                    kept_hops[vid] = (
                        [hop for hop in out_hops if hop[0] in edges],
                        [hop for hop in in_hops if hop[0] in edges],
                        [hop for hop in any_hops if hop[0] in edges],
                    )
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        if self._vertices.keys() != other._vertices.keys():
            return False
        if self._edges.keys() != other._edges.keys():
            return False
        return all(
            self._vertices[v] == other._vertices[v] for v in self._vertices
        ) and all(self._edges[e] == other._edges[e] for e in self._edges)

    def __repr__(self) -> str:
        return f"PropertyGraph(vertices={self.vertex_count}, edges={self.edge_count})"


def build_source_subset(meta: Meta, source: PropertyGraph) -> PropertyGraph:
    """Filter ``source`` down to the entities a policy declares relevant.

    Keeps the vertices whose label is listed in ``meta`` and the edges whose
    type is listed and whose endpoints both survived the vertex filter.
    The subset is derived from ``source``'s own hop lists and indexes, as
    a snapshot is, and shares nothing with it.
    """
    return source._derived(set(meta.vertex_entities), set(meta.edge_entities))


# -- JSON import/export ----------------------------------------------------


class _TooLarge:
    """Parsed form of an integer literal that no float can hold."""

    __slots__ = ()


_TOO_LARGE = _TooLarge()


def _integer(text: str) -> int | _TooLarge:
    """The integer ``text`` spells, or ``_TOO_LARGE``: comparisons coerce
    numbers to float, and ``int`` refuses more than 4300 digits."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        return _TOO_LARGE
    return value


class _BadRecord(Exception):
    """A record fails a check; the message lacks the record's place."""


def _check_properties(raw: object) -> dict[str, PropertyValue]:
    if not isinstance(raw, dict):
        raise _BadRecord("properties must be an object")
    for name, value in raw.items():
        if not isinstance(value, (str, int, float, bool)):
            if value is _TOO_LARGE:
                raise _BadRecord(
                    f"property {name!r} is an integer too large to compare as a number"
                )
            raise _BadRecord(f"property {name!r} has unsupported value {value!r}")
    return raw


def _json_records(raws: list, record: type, fields: tuple[str, ...], what: str) -> list:
    """``record(*fields, properties)`` for each raw object of the array
    ``what``, checked; an error names the object as ``what[i]``.  The
    decoded property objects are fresh, so the records keep them."""
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
            values.append(_check_properties(raw.get("properties", {})))
        except _BadRecord as exc:
            raise GraphFormatError(f"{what}[{i}]: {exc}") from None
        records.append(record(*values))
    return records


@_collector_paused()
def load_graph_json(text: str) -> PropertyGraph:
    """Load the JSON graph format; edges may precede their endpoints.

    The collector stays paused through the decode and the record checks
    as well as the link.
    """
    try:
        doc = json.loads(text, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise GraphFormatError(
            "top level must be an object with exactly 'vertices' and 'edges'"
        )
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    vertices = _json_records(doc["vertices"], VertexRecord, ("id", "label"), "vertices")
    edges = _json_records(
        doc["edges"], EdgeRecord, ("id", "type", "from", "to"), "edges"
    )
    return _link(vertices, edges)


def _link(vertices: list[VertexRecord], edges: list[EdgeRecord]) -> PropertyGraph:
    # Second phase of the two-phase import: vertices first, then edges, so
    # file order never matters.  Both loaders run it with the collector
    # paused.  Each edge is checked as add_edge would (a missing endpoint
    # first, then its id) and appends its hops; each hop list is sorted
    # once at the end, and as hops are unique that is the order insort
    # gives.
    graph = PropertyGraph()
    for vertex in vertices:
        graph.add_vertex(vertex)
    has_vertex, append = graph.has_vertex, list.append
    for edge in edges:
        for endpoint in (edge.from_id, edge.to_id):
            if not has_vertex(endpoint):
                raise ReferentialError(edge.id, endpoint)
        graph._check_edge_id(edge)
        graph._put_edge(edge, append)
    for hop_lists in graph._hops.values():
        for hop_list in hop_lists:
            hop_list.sort()
    return graph


def serialize_graph(graph: PropertyGraph) -> str:
    """Deterministic JSON rendering (ids and property keys sorted)."""
    doc = {
        "vertices": [
            {
                "id": v.id,
                "label": v.label,
                "properties": {k: v.properties[k] for k in sorted(v.properties)},
            }
            for v in sorted(graph.vertices(), key=lambda r: r.id)
        ],
        "edges": [
            {
                "id": e.id,
                "type": e.type,
                "from": e.from_id,
                "to": e.to_id,
                "properties": {k: e.properties[k] for k in sorted(e.properties)},
            }
            for e in sorted(graph.edges(), key=lambda r: r.id)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- CSV import ------------------------------------------------------------


def parse_csv_value(cell: str) -> PropertyValue:
    """CSV cells are text unless they are exact int/float/bool literals.

    Raises :class:`GraphFormatError` for an integer no float can hold.
    """
    if _INT_RE.match(cell):
        value = _integer(cell)
        if value is _TOO_LARGE:
            raise GraphFormatError(
                f"integer of {len(cell)} characters is too large to compare as a number"
            )
        return value
    if _FLOAT_RE.match(cell):
        return float(cell)
    if cell in ("true", "false"):
        return cell == "true"
    return cell


def _read_csv_rows(
    text: str, fixed: tuple[str, ...], what: str
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise GraphFormatError(f"{what} CSV is empty", line=1) from None
    if tuple(header[: len(fixed)]) != fixed:
        raise GraphFormatError(
            f"{what} CSV header must start with {','.join(fixed)}", line=1
        )
    prop_names = header[len(fixed) :]
    if len(set(prop_names)) != len(prop_names):
        raise GraphFormatError(f"{what} CSV header repeats a property column", line=1)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise GraphFormatError(
                f"{what} CSV row has {len(row)} fields, expected {len(header)}",
                line=lineno,
            )
        rows.append((lineno, row))
    return prop_names, rows


@_collector_paused()
def load_graph_csv(vertices_text: str, edges_text: str) -> PropertyGraph:
    """Load the two-file CSV format (vertex file + edge file), with the
    collector paused throughout.

    An empty cell means the property is absent on that record, so rows
    with differing property schemas can share one header.
    """
    v_props, v_rows = _read_csv_rows(vertices_text, ("_id", "_label"), "vertex")
    e_props, e_rows = _read_csv_rows(
        edges_text, ("_id", "_type", "_from", "_to"), "edge"
    )
    vertices = [
        VertexRecord(row[0], row[1], _csv_props(v_props, row[2:], "vertex", row[0], line))
        for line, row in v_rows
    ]
    edges = [
        EdgeRecord(
            row[0], row[1], row[2], row[3],
            _csv_props(e_props, row[4:], "edge", row[0], line),
        )
        for line, row in e_rows
    ]
    return _link(vertices, edges)


def _csv_props(
    names: list[str], cells: list[str], what: str, record_id: str, line: int
) -> dict[str, PropertyValue]:
    props = {}
    for name, cell in zip(names, cells):
        if cell != "":
            try:
                props[name] = parse_csv_value(cell)
            except GraphFormatError as exc:
                raise GraphFormatError(
                    f"{what} {record_id!r}: property {name!r}: {exc}", line=line
                ) from None
    return props


def load_graph_path(path, format: str = "json") -> PropertyGraph:
    """Load a graph from disk.

    ``json``: path is the graph file.  ``csv``: path is a directory
    containing ``vertices.csv`` and ``edges.csv``.
    """
    from pathlib import Path

    p = Path(path)
    if format == "json":
        return load_graph_json(p.read_text(encoding="utf-8"))
    if format == "csv":
        vfile = p / "vertices.csv"
        efile = p / "edges.csv"
        for f in (vfile, efile):
            if not f.is_file():
                raise GraphFormatError(f"missing CSV file {f}")
        return load_graph_csv(
            vfile.read_text(encoding="utf-8"), efile.read_text(encoding="utf-8")
        )
    raise GraphFormatError(f"unknown graph format {format!r}")
