"""In-memory property graph with file importers and frozen, shared views.

The graph holds vertices with exactly one label and edges with exactly one
type, each carrying a scalar property map.  Property values are plain
Python ``str``/``int``/``float``/``bool``; the helpers below implement the
value semantics the engine relies on:

* a value keeps its kind (integer 2, float 2.0, text "2" and boolean
  True are four different values),
* comparison operators coerce to float only when both operands look
  numeric (see :func:`index_key`),
* :func:`as_text` is the canonical textual rendering used for
  lexicographic comparison and for string match functions.

Records and graphs are immutable, so graphs share records and a graph is
its own snapshot.  A graph stores only its records, and is built in one of
two ways:

* ``PropertyGraph(vertices, edges)`` checks every vertex and then every
  edge and stores them; the file importers build their records and call
  it, and a loaded graph holds one ``str`` object per distinct text, so
  each edge's endpoints are its vertices' own id objects and a repeated
  label, type, property name or text value is held once;
* :func:`build_source_subset` keeps the records of an already checked
  graph that a policy's ``Meta`` lists.

The JSON importer builds each record of the ``vertices`` and ``edges``
arrays as soon as the standard library's scanner has decoded it, so it
never holds the whole decoded document, and equal property maps whose
values are all text share one read-only view.  The CSV importer builds
each row as the JSON object with the same fields, through the same record
check, so both formats accept and refuse the same records and share texts
and views alike.

Hop lists and label and property indexes are derived from the records in
one bulk pass when one of them is first read, and kept: a source only cut
down to a subset never derives them.  A direction without hops shares one
empty list.  The property index maps each property name to a table keyed
by :func:`index_key` (the float of a numeric value, the text of any
other), so it builds no key object per property.  It keeps the bare id
for a key that one vertex holds, and a set only for a key that several
hold.

Loads and structure builds run with the cyclic garbage collector paused.
One that leaves a young collection due moves what it made to the
collector's oldest generation (see :class:`_collector_paused`), so no
young collection rescans it.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from json.decoder import WHITESPACE, JSONArray, JSONDecodeError, JSONObject
from pathlib import Path
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping

from .errors import DuplicateIdError, GraphFormatError, ReferentialError
from .policy_model import DIRECTION_ANY, DIRECTION_FROM, DIRECTION_TO, Meta

PropertyValue = str | int | float | bool

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")
_WHITESPACE = WHITESPACE.match


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
    literal; booleans never do.  Plain digit text, the commonest kind,
    is recognised by ``str.isdecimal`` without the regex: both accept the
    same Unicode decimal digits, and ``float`` reads them all.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if value.isdecimal() or _FLOAT_RE.match(value):
        return float(value)
    return None


def index_key(value: PropertyValue) -> float | str:
    """Equality key as the comparison operator '=' sees it: the float of a
    numeric value, the text of any other.  A float never equals a str, so
    numeric-looking values compare as floats, two non-numeric ones by
    text, and a numeric/non-numeric mix is unequal."""
    num = as_number(value)
    return as_text(value) if num is None else num


def _freeze_properties(record) -> None:
    """Wrap a copy of the record's properties read-only."""
    object.__setattr__(record, "properties", MappingProxyType(dict(record.properties)))


@dataclass(frozen=True, slots=True, eq=False)
class VertexRecord:
    id: str
    label: str
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    __post_init__ = _freeze_properties


@dataclass(frozen=True, slots=True, eq=False)
class EdgeRecord:
    id: str
    type: str
    from_id: str
    to_id: str
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    __post_init__ = _freeze_properties


# The importers set a record's slots directly: its fields are checked and
# its properties are a read-only view already, and the frozen dataclass
# __init__ costs about three times as much.
_new_record = object.__new__
_VERTEX_SLOTS = (VertexRecord.id.__set__, VertexRecord.label.__set__,
                 VertexRecord.properties.__set__)
_EDGE_SLOTS = (EdgeRecord.id.__set__, EdgeRecord.type.__set__, EdgeRecord.from_id.__set__,
               EdgeRecord.to_id.__set__, EdgeRecord.properties.__set__)


def _vertex_record(vid: str, label: str, properties: Mapping[str, PropertyValue]) -> VertexRecord:
    vertex = _new_record(VertexRecord)
    set_id, set_label, set_properties = _VERTEX_SLOTS
    set_id(vertex, vid)
    set_label(vertex, label)
    set_properties(vertex, properties)
    return vertex


def _edge_record(
    eid: str, etype: str, source: str, target: str, properties: Mapping[str, PropertyValue]
) -> EdgeRecord:
    edge = _new_record(EdgeRecord)
    set_id, set_type, set_from, set_to, set_properties = _EDGE_SLOTS
    set_id(edge, eid)
    set_type(edge, etype)
    set_from(edge, source)
    set_to(edge, target)
    set_properties(edge, properties)
    return edge


_HOP_SLOT = {DIRECTION_FROM: 0, DIRECTION_TO: 1, DIRECTION_ANY: 2}
_NO_IDS: frozenset[str] = frozenset()
_NO_KEYS: Mapping[float | str, str | set[str]] = MappingProxyType({})
# the hop list of every direction that has no hop: read it, never mutate it
_NO_HOPS: list[tuple[str, str]] = []


class _collector_paused:
    """Pause the cyclic garbage collector for a bulk build, in a ``with``
    block, and leave it nothing of the build to rescan.

    The records, hop lists and indexes a build creates hold no reference
    cycles, yet the collector would rescan them as they pile up, which
    costs more time than the build itself.  Paused, it would still rescan
    them all in the young collection that the build's allocations leave
    due.  So when one is due, ``gc.freeze()`` and ``gc.unfreeze()`` move
    every tracked object to the oldest generation, which only a full
    collection scans, and reset the young count, before the collector
    comes back on.  A build too small to leave a collection due promotes
    nothing, and neither does one while a caller holds objects frozen,
    which stay frozen.  The previous state comes back however the block
    ends.  A class rather than a generator, whose set-up costs a small
    load about 2 us more.
    """

    __slots__ = ("was_enabled",)

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.was_enabled:
            young = gc.get_threshold()[0]
            if 0 < young < gc.get_count()[0] and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class PropertyGraph:
    """Immutable property graph of records, with hop lists and indexes
    derived on first read.  Evaluations run against it as it is, so
    ``snapshot()`` returns the graph itself."""

    def __init__(
        self, vertices: Iterable[VertexRecord] = (), edges: Iterable[EdgeRecord] = ()
    ) -> None:
        """Check and store every vertex, then every edge, so an edge may
        come before its endpoints in a file.  A vertex's id must be
        non-empty and new; an edge's endpoints must both be stored
        vertices (``from`` checked first), then its id non-empty and new."""
        stored: dict[str, VertexRecord] = {}
        for vertex in vertices:
            if not vertex.id:
                raise GraphFormatError("vertex id must be non-empty")
            if vertex.id in stored:
                raise DuplicateIdError(f"duplicate vertex id {vertex.id!r}")
            stored[vertex.id] = vertex
        linked: dict[str, EdgeRecord] = {}
        for edge in edges:
            if edge.from_id not in stored:
                raise ReferentialError(edge.id, edge.from_id)
            if edge.to_id not in stored:
                raise ReferentialError(edge.id, edge.to_id)
            if not edge.id:
                raise GraphFormatError("edge id must be non-empty")
            if edge.id in linked:
                raise DuplicateIdError(f"duplicate edge id {edge.id!r}")
            linked[edge.id] = edge
        self._vertices, self._edges = stored, linked

    # -- derived structures ------------------------------------------------

    def _derive_structures(self) -> None:
        """Set ``_hops`` (vertex id -> one sorted hop list per direction in
        _HOP_SLOT order) and the label and property indexes, as plain
        attributes the accessors read directly.  Edges go in id order, so
        each hop list comes out sorted.  Every direction without a hop
        shares one empty list, and ``any`` is the other direction's own
        list when only one direction has hops.  The property index maps
        each name to its values' :func:`index_key` keys; a key that one
        vertex holds maps to that vertex's id, one held by several to a
        set."""
        with _collector_paused():
            labels: dict[str, set[str]] = {}
            props: dict[str, dict[float | str, str | set[str]]] = {}
            for vid, vertex in self._vertices.items():
                ids = labels.get(vertex.label)
                if ids is None:
                    labels[vertex.label] = {vid}
                else:
                    ids.add(vid)
                for name, value in vertex.properties.items():
                    keyed = props.get(name)
                    if keyed is None:
                        keyed = props[name] = {}
                    key = index_key(value)
                    # a vertex holds each name once, so only a new key
                    # comes back as this very id
                    held = keyed.setdefault(key, vid)
                    if held is vid:
                        continue
                    if type(held) is str:
                        keyed[key] = {held, vid}
                    else:
                        held.add(vid)
            outs: dict[str, list[tuple[str, str]]] = {}
            ins: dict[str, list[tuple[str, str]]] = {}
            loops: set[str] = set()
            edges = self._edges
            for eid in sorted(edges):
                edge = edges[eid]
                source, target = edge.from_id, edge.to_id
                listed = outs.get(source)
                if listed is None:
                    outs[source] = [(eid, target)]
                else:
                    listed.append((eid, target))
                listed = ins.get(target)
                if listed is None:
                    ins[target] = [(eid, source)]
                else:
                    listed.append((eid, source))
                if source == target:
                    loops.add(source)
            hops: dict[str, tuple[list, list, list]] = {}
            for vid in self._vertices:
                out_hops = outs.get(vid, _NO_HOPS)
                in_hops = ins.get(vid, _NO_HOPS)
                if not out_hops:
                    any_hops = in_hops
                elif not in_hops:
                    any_hops = out_hops
                else:
                    # both runs are sorted, so the sort merges them; a
                    # self-loop's hop is the same pair both ways, kept once
                    any_hops = out_hops + in_hops
                    any_hops.sort()
                    if vid in loops:
                        any_hops = sorted(set(any_hops))
                hops[vid] = (out_hops, in_hops, any_hops)
        self._hops, self._label_index, self._vertex_prop_index = hops, labels, props

    def with_structures(self) -> "PropertyGraph":
        """This graph, its hop lists and indexes derived now unless it
        holds them already, so that no later read pays for them."""
        if not hasattr(self, "_hops"):
            self._derive_structures()
        return self

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

    def hops(self, vertex_id: str, direction: str) -> list[tuple[str, str]]:
        """(edge id, neighbour id) pairs leaving ``vertex_id`` in sorted order.

        ``direction`` is ``from`` (out-edges), ``to`` (in-edges) or ``any``
        (both; a self-loop appears once).  The list is the graph's own:
        read it, never mutate it.
        """
        try:
            return self._hops[vertex_id][_HOP_SLOT[direction]]
        except AttributeError:  # not derived yet
            return self.with_structures().hops(vertex_id, direction)

    def vertices_with_label(self, label: str) -> AbstractSet[str]:
        """Ids of the vertices labelled ``label``.  The set is the index's
        own: read it, never mutate it."""
        try:
            return self._label_index.get(label, _NO_IDS)
        except AttributeError:
            return self.with_structures().vertices_with_label(label)

    def vertices_with_property(
        self, name: str, value: PropertyValue
    ) -> AbstractSet[str]:
        """Ids of the vertices whose ``name`` property has the
        :func:`index_key` of ``value``.  A value that several vertices hold gets the index's own
        set: read it, never mutate it.  One that a single vertex holds gets
        a fresh one-element set."""
        try:
            ids = self._vertex_prop_index.get(name, _NO_KEYS).get(index_key(value), _NO_IDS)
        except AttributeError:
            return self.with_structures().vertices_with_property(name, value)
        return frozenset((ids,)) if type(ids) is str else ids

    def snapshot(self) -> "PropertyGraph":
        """The graph to decide on: this graph, which nothing can change."""
        return self

    def __repr__(self) -> str:
        return f"PropertyGraph(vertices={self.vertex_count}, edges={self.edge_count})"


def build_source_subset(meta: Meta, source: PropertyGraph) -> PropertyGraph:
    """Filter ``source`` down to the entities a policy declares relevant.

    Keeps the vertices whose label is listed in ``meta`` and the edges whose
    type is listed and whose endpoints both survived the vertex filter.
    The subset holds ``source``'s own records, checked already, so it fills
    its two maps directly; like every graph it derives its hop lists and
    indexes when they are first read.
    """
    labels, types = set(meta.vertex_entities), set(meta.edge_entities)
    subset = PropertyGraph.__new__(PropertyGraph)
    vertices = subset._vertices = {
        vid: vertex for vid, vertex in source._vertices.items() if vertex.label in labels
    }
    subset._edges = {
        eid: edge
        for eid, edge in source._edges.items()
        if edge.type in types and edge.from_id in vertices and edge.to_id in vertices
    }
    return subset


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


def _check_properties(
    raw: object,
    strings: dict[str, str],
    views: dict[tuple, Mapping[str, PropertyValue]],
    own_id: str,
) -> Mapping[str, PropertyValue]:
    """A read-only view of ``raw``, the properties of the record ``own_id``,
    checked, its names and text values replaced by their ``strings``
    entries.  Maps whose values are all text share one view per distinct
    content, found in ``views`` by the map's items in order; only exact
    text shares: 1, 1.0 and True are equal values of one entry, and none
    of them equals a text.  So a map found in ``views`` as it was decoded
    is all text, and its view is the one the checks below would give.

    A map that holds its own record's id as a value, as a graph whose
    every vertex carries its ``_key`` does, is taken as that record's
    alone: it is neither looked up in ``views`` nor kept there."""
    if type(raw) is not dict:
        raise _BadRecord("properties must be an object")
    shared = own_id not in raw.values()
    if shared:
        try:
            view = views.get(tuple(raw.items()))
        except TypeError:  # an unhashable value, so not all text
            view = None
        if view is not None:
            return view
    share = strings.setdefault
    props = {}
    text_only = True
    for name, value in raw.items():
        if type(value) is str:
            value = share(value, value)
        else:
            text_only = False
            if not isinstance(value, (int, float, bool)):
                if value is _TOO_LARGE:
                    raise _BadRecord(
                        f"property {name!r} is an integer too large to compare as a number"
                    )
                raise _BadRecord(f"property {name!r} has unsupported value {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise _BadRecord(f"property {name!r} is {value!r}, not a finite number")
        props[share(name, name)] = value
    if not (text_only and shared):
        return MappingProxyType(props)
    # keyed by the shared texts, so the table keeps no decoded copy alive
    view = views[tuple(props.items())] = MappingProxyType(props)
    return view


def _bad_fields(raw: object, keys: frozenset[str], fields: tuple[str, ...]) -> _BadRecord:
    """The error of a raw object that is no object of ``keys`` whose
    ``fields`` all hold non-empty text: the first failing check."""
    if type(raw) is not dict or not raw.keys() <= keys:
        return _BadRecord(f"expected keys {sorted(keys)}")
    key = next(k for k in fields if type(raw.get(k)) is not str or not raw[k])
    return _BadRecord(f"{key!r} must be a non-empty string")


_VERTEX_KEYS = frozenset(("id", "label", "properties"))
_EDGE_KEYS = frozenset(("id", "type", "from", "to", "properties"))
_NO_PROPERTIES: dict[str, PropertyValue] = {}


def _vertex(raw: object, strings: dict[str, str], views: dict) -> VertexRecord:
    if type(raw) is dict and raw.keys() <= _VERTEX_KEYS:
        vid, label = raw.get("id"), raw.get("label")
        if type(vid) is str and type(label) is str and vid and label:
            props = _check_properties(
                raw.get("properties", _NO_PROPERTIES), strings, views, vid
            )
            share = strings.setdefault
            return _vertex_record(share(vid, vid), share(label, label), props)
    raise _bad_fields(raw, _VERTEX_KEYS, ("id", "label"))


def _edge(raw: object, strings: dict[str, str], views: dict) -> EdgeRecord:
    if type(raw) is dict and raw.keys() <= _EDGE_KEYS:
        eid, etype = raw.get("id"), raw.get("type")
        source, target = raw.get("from"), raw.get("to")
        if (
            type(eid) is str and type(etype) is str and type(source) is str
            and type(target) is str and eid and etype and source and target
        ):
            props = _check_properties(
                raw.get("properties", _NO_PROPERTIES), strings, views, eid
            )
            share = strings.setdefault
            # an edge id is unique, so it stays as decoded
            return _edge_record(
                eid, share(etype, etype), share(source, source), share(target, target), props
            )
    raise _bad_fields(raw, _EDGE_KEYS, ("id", "type", "from", "to"))


_RECORD_ARRAYS = {"vertices": _vertex, "edges": _edge}


class _KeyMemo:
    """Key memo for :func:`json.decoder.JSONObject` that keeps the key
    whose value the object decodes next."""

    __slots__ = ("key",)

    def setdefault(self, key: str, default: str) -> str:
        self.key = key
        return default


def _record_array(s: str, idx: int, scan, what: str, strings: dict, views: dict):
    """Decode the array that starts at ``s[idx]``, building a record from
    each element as soon as ``scan`` has decoded it.  Returns ``(records,
    error)`` and the index after the array: ``error`` is the first bad
    element's :class:`GraphFormatError`, held so that a JSON error later
    in the document still wins.  No record is built after a bad element,
    so the first ``None`` in ``records`` is that element's place."""
    build = _RECORD_ARRAYS[what]
    held: list[_BadRecord] = []

    def element(s: str, idx: int):
        raw, end = scan(s, idx)
        if not held:
            try:
                return build(raw, strings, views), end
            except _BadRecord as exc:
                held.append(exc)
        return None, end

    records, end = JSONArray((s, idx + 1), element)
    if not held:
        return (records, None), end
    return (records, GraphFormatError(f"{what}[{records.index(None)}]: {held[0]}")), end


@lru_cache(maxsize=1)
def _scanner(parse_int):
    """The C scanner of a decoder that parses integer literals with
    ``parse_int``, made once rather than per load."""
    return json.JSONDecoder(parse_int=parse_int).scan_once


def _decode_graph(text: str) -> object:
    """``json.loads(text, parse_int=_integer)``, except that the values of
    the top-level keys ``vertices`` and ``edges``, when they are arrays,
    come back as ``(records, error)`` pairs from :func:`_record_array`.

    The whole decoded document is never held at once.  The parse is the
    standard library's own (its object and array parsers, and its C
    scanner for each element), so a JSON error reads as ``json.loads``
    reports it.  A top level that is not an object is decoded whole.
    """
    scan = _scanner(_integer)
    start = _WHITESPACE(text).end()
    if not text.startswith("{", start):
        return json.loads(text, parse_int=_integer)
    memo = _KeyMemo()
    # one object per distinct text and one view per distinct text-only map
    strings: dict[str, str] = {}
    views: dict[tuple, Mapping[str, PropertyValue]] = {}

    def value(s: str, idx: int):
        if memo.key in _RECORD_ARRAYS and s.startswith("[", idx):
            return _record_array(s, idx, scan, memo.key, strings, views)
        return scan(s, idx)

    doc, end = JSONObject((text, start + 1), True, value, None, None, memo)
    end = _WHITESPACE(text, end).end()
    if end != len(text):
        raise JSONDecodeError("Extra data", text, end)
    return doc


def load_graph_json(text: str) -> PropertyGraph:
    """Load the JSON graph format; edges may precede their endpoints.

    Errors come in this order: a JSON error anywhere in the document; the
    top level's shape; the first bad vertex; the first bad edge; then the
    constructor's.  The collector stays paused through the decode, the
    record checks and the constructor.
    """
    with _collector_paused():
        try:
            doc = _decode_graph(text)
        except JSONDecodeError as exc:
            raise GraphFormatError(
                f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
            ) from exc
        except RecursionError:
            raise GraphFormatError("invalid JSON: nested too deeply") from None
        if type(doc) is not dict or doc.keys() != {"vertices", "edges"}:
            raise GraphFormatError(
                "top level must be an object with exactly 'vertices' and 'edges'"
            )
        # an array value is a (records, error) pair; anything else is no array
        vertices, edges = doc["vertices"], doc["edges"]
        if type(vertices) is not tuple or type(edges) is not tuple:
            raise GraphFormatError("'vertices' and 'edges' must be arrays")
        for _, error in (vertices, edges):
            if error is not None:
                raise error
        return PropertyGraph(vertices[0], edges[0])


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


def parse_csv_value(cell: str) -> PropertyValue | _TooLarge:
    """A CSV cell's value: an exact integer, float or bool literal reads
    as that kind, any other cell as text.

    Raises nothing: as the JSON decoder does, it reads an integer literal
    no float can hold as ``_TOO_LARGE`` and a float literal past the float
    range as an infinity, and :func:`_check_properties` refuses both.
    """
    if _INT_RE.match(cell):
        return _integer(cell)
    if _FLOAT_RE.match(cell):
        return float(cell)
    if cell in ("true", "false"):
        return cell == "true"
    return cell


def _csv_lines(text: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Each row of a CSV text with the line it starts on (a quoted cell may
    hold line breaks); a row the reader refuses, such as a field past its
    size limit, is a :class:`GraphFormatError`."""
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise GraphFormatError(f"{what} CSV: {exc}", line=reader.line_num) from None


def _read_csv_rows(
    text: str, fields: tuple[str, ...], what: str
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The property columns and the numbered rows of a CSV file whose
    header starts with ``_<field>`` per field, its row widths checked."""
    reader = _csv_lines(text, what)
    try:
        _, header = next(reader)
    except StopIteration:
        raise GraphFormatError(f"{what} CSV is empty", line=1) from None
    fixed = [f"_{name}" for name in fields]
    if header[: len(fixed)] != fixed:
        raise GraphFormatError(
            f"{what} CSV header must start with {','.join(fixed)}", line=1
        )
    prop_names = header[len(fixed) :]
    if len(set(prop_names)) != len(prop_names):
        raise GraphFormatError(f"{what} CSV header repeats a property column", line=1)
    rows = []
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise GraphFormatError(
                f"{what} CSV row has {len(row)} fields, expected {len(header)}",
                line=lineno,
            )
        rows.append((lineno, row))
    return prop_names, rows


_CSV_VERTEX_FIELDS = ("id", "label")
_CSV_EDGE_FIELDS = ("id", "type", "from", "to")


def load_graph_csv(vertices_text: str, edges_text: str) -> PropertyGraph:
    """Load the two-file CSV format (vertex file + edge file), with the
    collector paused throughout.

    Each row is built as the JSON object with the same fields would be,
    by :func:`_vertex` or :func:`_edge`, so both formats accept and refuse
    the same records in the same words, and share texts and all-text
    views alike; a CSV fault names the row's id and line.  An empty cell
    means the property is absent on that record, so rows with differing
    property schemas can share one header.  Errors come in this order:
    both files' headers and row widths, the first bad vertex row, the
    first bad edge row, then the constructor's.
    """
    with _collector_paused():
        v_names, v_rows = _read_csv_rows(vertices_text, _CSV_VERTEX_FIELDS, "vertex")
        e_names, e_rows = _read_csv_rows(edges_text, _CSV_EDGE_FIELDS, "edge")
        # one object per distinct text and one view per distinct text-only map
        strings: dict[str, str] = {}
        views: dict[tuple, Mapping[str, PropertyValue]] = {}
        vertices = _csv_records(_vertex, _CSV_VERTEX_FIELDS, v_names, v_rows, strings, views)
        edges = _csv_records(_edge, _CSV_EDGE_FIELDS, e_names, e_rows, strings, views)
        return PropertyGraph(vertices, edges)


def _csv_records(build, fields: tuple, names: list, rows: list, strings: dict, views: dict):
    """The record ``build`` makes of each row, in file order: the object
    of ``fields`` from its first cells, and a property for each of its
    other non-empty cells, read by :func:`parse_csv_value`."""
    what = "vertex" if build is _vertex else "edge"
    width = len(fields)
    records = []
    for line, row in rows:
        raw: dict[str, object] = dict(zip(fields, row))
        cells = zip(names, row[width:])
        raw["properties"] = {name: parse_csv_value(cell) for name, cell in cells if cell}
        try:
            records.append(build(raw, strings, views))
        except _BadRecord as exc:
            raise GraphFormatError(f"{what} {row[0]!r}: {exc}", line=line) from None
    return records


def load_graph_path(path, format: str = "json") -> PropertyGraph:
    """Load a graph from disk.

    ``json``: path is the graph file.  ``csv``: path is a directory
    containing ``vertices.csv`` and ``edges.csv``.
    """
    p = Path(path)
    if format == "json":
        return load_graph_json(_read_utf8(p, "graph JSON"))
    if format == "csv":
        vfile = p / "vertices.csv"
        efile = p / "edges.csv"
        for f in (vfile, efile):
            if not f.is_file():
                raise GraphFormatError(f"missing CSV file {f}")
        return load_graph_csv(_read_utf8(vfile, "vertex CSV"), _read_utf8(efile, "edge CSV"))
    raise GraphFormatError(f"unknown graph format {format!r}")


def _read_utf8(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{what} is not UTF-8: {exc}") from None
