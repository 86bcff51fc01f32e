import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from graphpdp import graph_store
from graphpdp.errors import (
    DuplicateIdError,
    FrozenGraphError,
    GraphFormatError,
    MissingEndpointError,
    ReferentialError,
)
from graphpdp.graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    as_number,
    as_text,
    build_source_subset,
    canonical_key,
    load_graph_csv,
    load_graph_json,
    load_graph_path,
    loose_equal,
    parse_csv_value,
    serialize_graph,
    strict_equal,
    value_kind,
)
from graphpdp.policy_model import Meta


def small_graph() -> PropertyGraph:
    g = PropertyGraph()
    g.add_vertex(VertexRecord("A", "dataObjects", {"typeCode": "pmUser"}))
    g.add_vertex(VertexRecord("B", "tasks", {"_key": 7}))
    g.add_vertex(VertexRecord("C", "dataObjects", {}))
    g.add_edge(EdgeRecord("e1", "accessRelations", "A", "B", {"typeKind": "worksOn"}))
    g.add_edge(EdgeRecord("e2", "taskDataRelations", "B", "C", {}))
    return g


# headers of the two CSV files, with no property columns
V_HEADER = "_id,_label\n"
E_HEADER = "_id,_type,_from,_to\n"


# -- value semantics --------------------------------------------------------


def test_value_kind_distinguishes_bool_from_int():
    assert value_kind(True) == "boolean"
    assert value_kind(1) == "integer"
    assert value_kind(1.0) == "float"
    assert value_kind("1") == "text"
    with pytest.raises(TypeError):
        value_kind(None)


def test_strict_equal_is_kind_aware():
    assert strict_equal(2, 2)
    assert not strict_equal(2, 2.0)
    assert not strict_equal(2, "2")
    assert not strict_equal(True, 1)


def test_as_text_canonical_forms():
    assert as_text(True) == "true"
    assert as_text(False) == "false"
    assert as_text(3) == "3"
    assert as_text(2.5) == "2.5"
    assert as_text("x") == "x"


def test_as_number_parses_exact_literals_only():
    assert as_number("3") == 3.0
    assert as_number("-2.5") == -2.5
    assert as_number(7) == 7.0
    assert as_number("7 ") is None
    assert as_number("v7") is None
    assert as_number(True) is None  # booleans are not numbers here


def test_loose_equal_matches_comparison_semantics():
    assert loose_equal(7, "7")
    assert loose_equal("2.0", 2)
    assert not loose_equal("a", 7)
    assert loose_equal(True, "true")  # both non-numeric -> text compare
    assert canonical_key("07") == canonical_key(7)


# -- construction and lookups ----------------------------------------------


def test_add_and_lookup():
    g = small_graph()
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.vertex("A").label == "dataObjects"
    assert g.edge("e1").to_id == "B"
    assert g.vertex_ids() == ["A", "B", "C"]
    assert g.hops("A", "from") == [("e1", "B")]
    assert g.hops("C", "to") == [("e2", "B")]


def test_duplicate_ids_rejected():
    g = small_graph()
    with pytest.raises(DuplicateIdError):
        g.add_vertex(VertexRecord("A", "tasks", {}))
    with pytest.raises(DuplicateIdError):
        g.add_edge(EdgeRecord("e1", "t", "A", "B", {}))


def test_edge_needs_existing_endpoints():
    g = small_graph()
    with pytest.raises(MissingEndpointError):
        g.add_edge(EdgeRecord("e9", "t", "A", "nope", {}))


def test_indexes():
    g = small_graph()
    assert g.vertices_with_label("dataObjects") == {"A", "C"}
    assert g.vertices_with_label("audit") == set()
    # the property index buckets by loose equality, so "7" finds int 7
    assert g.vertices_with_property("_key", "7") == {"B"}
    assert g.vertices_with_property("_key", 7) == {"B"}


def test_hops_sorted_per_direction():
    g = PropertyGraph()
    for v in "ABC":
        g.add_vertex(VertexRecord(v, "n", {}))
    # inserted out of id order: two parallel A->B edges, one B->A, a
    # self-loop on A and one C->A
    g.add_edge(EdgeRecord("e3", "t", "A", "B", {}))
    g.add_edge(EdgeRecord("e1", "t", "A", "B", {}))
    g.add_edge(EdgeRecord("e4", "t", "C", "A", {}))
    g.add_edge(EdgeRecord("e0", "t", "A", "A", {}))
    g.add_edge(EdgeRecord("e2", "t", "B", "A", {}))
    assert g.hops("A", "from") == [("e0", "A"), ("e1", "B"), ("e3", "B")]
    assert g.hops("A", "to") == [("e0", "A"), ("e2", "B"), ("e4", "C")]
    # the self-loop appears once
    assert g.hops("A", "any") == [
        ("e0", "A"), ("e1", "B"), ("e2", "B"), ("e3", "B"), ("e4", "C")
    ]
    assert g.hops("B", "from") == [("e2", "A")]
    assert g.hops("B", "to") == [("e1", "A"), ("e3", "A")]
    assert g.hops("B", "any") == [("e1", "A"), ("e2", "A"), ("e3", "A")]
    assert g.hops("C", "to") == []
    assert [eid for eid, _ in g.hops("A", "from")] == ["e0", "e1", "e3"]
    assert [eid for eid, _ in g.hops("A", "to")] == ["e0", "e2", "e4"]


def test_snapshot_is_isolated_and_frozen():
    g = small_graph()
    snap = g.snapshot()
    g.add_vertex(VertexRecord("D", "tasks", {}))
    g.vertex("A").properties["typeCode"] = "changed"
    assert snap.vertex_count == 3
    assert snap.vertex("A").properties["typeCode"] == "pmUser"
    g.add_edge(EdgeRecord("e3", "taskDataRelations", "C", "A", {}))
    g.edge("e1").properties["typeKind"] = "changed"
    assert snap.edge_count == 2
    assert snap.hops("A", "any") == [("e1", "B")]
    assert snap.hops("C", "from") == []
    assert snap.edge("e1").properties["typeKind"] == "worksOn"
    with pytest.raises(FrozenGraphError):
        snap.add_vertex(VertexRecord("E", "tasks", {}))
    # no hop list or index set is shared with the live graph
    before = structure(snap)
    g.add_vertex(VertexRecord("F", "dataObjects", {"typeCode": "pmUser", "_key": 7}))
    g.add_edge(EdgeRecord("e4", "accessRelations", "A", "C", {}))
    assert structure(snap) == before
    assert snap.vertices_with_label("dataObjects") == {"A", "C"}
    assert snap.vertices_with_property("_key", 7) == {"B"}
    assert snap.hops("A", "from") == [("e1", "B")]


def structure(g: PropertyGraph, probes=()) -> dict:
    """Everything a reader sees of ``g``: its records in order, every hop
    list, and the index sets for its labels and property values plus
    ``probes``, copied."""
    labels = {v.label for v in g.vertices()} | {label for label, _ in probes}
    values = {(n, x) for v in g.vertices() for n, x in v.properties.items()}
    values |= {value for _, value in probes}
    return {
        "vertices": [(v.id, v.label, dict(v.properties)) for v in g.vertices()],
        "edges": [
            (e.id, e.type, e.from_id, e.to_id, dict(e.properties)) for e in g.edges()
        ],
        "hops": {
            (vid, d): list(g.hops(vid, d))
            for vid in g.vertex_ids()
            for d in ("from", "to", "any")
        },
        "labels": {label: set(g.vertices_with_label(label)) for label in labels},
        "values": {
            (n, x, type(x)): set(g.vertices_with_property(n, x)) for n, x in values
        },
    }


def inserted(vertices, edges) -> PropertyGraph:
    """Copies of the records put through add_vertex/add_edge."""
    g = PropertyGraph()
    for vertex in vertices:
        g.add_vertex(vertex.copy())
    for edge in edges:
        g.add_edge(edge.copy())
    return g


@st.composite
def graphs_and_metas(draw):
    g = draw(strategies.graphs())
    meta = Meta(
        tuple(draw(st.lists(st.sampled_from(strategies.LABELS), unique=True))),
        tuple(draw(st.lists(st.sampled_from(strategies.TYPES), unique=True))),
    )
    return g, meta


@settings(max_examples=100, deadline=None)
@given(graphs_and_metas())
def test_loaded_and_derived_graphs_equal_the_insert_path(drawn):
    g, meta = drawn
    # every label, type and property value the source holds, so that what
    # the subset drops is looked up too
    probes = [(v.label, (n, x)) for v in g.vertices() for n, x in v.properties.items()]
    by_id = lambda record: record.id  # noqa: E731
    vertices, edges = sorted(g.vertices(), key=by_id), sorted(g.edges(), key=by_id)
    text = serialize_graph(g)
    assert structure(load_graph_json(text), probes) == structure(
        inserted(vertices, edges), probes
    )
    # the same file with every array reversed, so hops come out of id order
    doc = json.loads(text)
    reversed_text = json.dumps({name: doc[name][::-1] for name in doc})
    assert structure(load_graph_json(reversed_text), probes) == structure(
        inserted(vertices[::-1], edges[::-1]), probes
    )
    snap = g.snapshot()
    assert snap == g
    assert structure(snap, probes) == structure(inserted(g.vertices(), g.edges()), probes)
    kept = [v for v in g.vertices() if v.label in meta.vertex_entities]
    kept_ids = {v.id for v in kept}
    subset = build_source_subset(meta, g)
    assert structure(subset, probes) == structure(
        inserted(
            kept,
            [
                e
                for e in g.edges()
                if e.type in meta.edge_entities
                and e.from_id in kept_ids
                and e.to_id in kept_ids
            ],
        ),
        probes,
    )


# -- subset filtering -------------------------------------------------------

DEMO_META = Meta(
    ("dataObjects", "tasks"),
    ("dataObjectRelations", "accessRelations", "taskDataRelations"),
)


def audit_heavy_source() -> PropertyGraph:
    g = small_graph()
    g.add_vertex(VertexRecord("X", "audit", {}))
    g.add_edge(EdgeRecord("a1", "auditTrail", "A", "X", {}))
    # listed type, but one endpoint vanishes with its unlisted vertex
    g.add_edge(EdgeRecord("a2", "accessRelations", "X", "B", {}))
    return g


def test_subset_drops_unlisted_labels_and_incident_edges():
    subset = build_source_subset(DEMO_META, audit_heavy_source())
    assert set(subset.vertex_ids()) == {"A", "B", "C"}
    assert set(subset.edge_ids()) == {"e1", "e2"}


def test_subset_matches_independent_filter():
    source = audit_heavy_source()
    subset = build_source_subset(DEMO_META, source)
    wanted_v = {v.id for v in source.vertices() if v.label in DEMO_META.vertex_entities}
    wanted_e = {
        e.id
        for e in source.edges()
        if e.type in DEMO_META.edge_entities
        and e.from_id in wanted_v
        and e.to_id in wanted_v
    }
    assert set(subset.vertex_ids()) == wanted_v
    assert set(subset.edge_ids()) == wanted_e


def test_subset_shares_nothing_with_its_source():
    source = audit_heavy_source()
    subset = build_source_subset(DEMO_META, source)
    before = structure(subset)
    source.add_vertex(VertexRecord("D", "dataObjects", {"typeCode": "pmUser"}))
    source.add_vertex(VertexRecord("E", "tasks", {"_key": 7}))
    source.add_edge(EdgeRecord("e3", "taskDataRelations", "C", "A", {}))
    source.vertex("A").properties["typeCode"] = "changed"
    assert structure(subset) == before
    assert subset.vertices_with_label("tasks") == {"B"}
    assert subset.vertices_with_property("typeCode", "pmUser") == {"A"}
    assert subset.hops("A", "any") == [("e1", "B")]
    assert subset.hops("C", "from") == []
    # a subset stays mutable, and its own inserts leave the source alone
    subset.add_edge(EdgeRecord("e4", "accessRelations", "B", "C", {}))
    assert source.hops("B", "from") == [("e2", "C")]


def test_copies_index_records_by_their_values_when_taken():
    source = audit_heavy_source()
    # edited in place after insertion: a snapshot or subset taken now
    # indexes the new values, as one re-inserting the records would
    source.vertex("A").properties["typeCode"] = "extUser"
    source.vertex("X").label = "tasks"
    probes = [("audit", ("typeCode", "pmUser")), ("tasks", ("typeCode", "extUser"))]
    snap = source.snapshot()
    assert snap.vertices_with_property("typeCode", "extUser") == {"A"}
    assert snap.vertices_with_property("typeCode", "pmUser") == set()
    assert snap.vertices_with_label("tasks") == {"B", "X"}
    assert snap.vertices_with_label("audit") == set()
    assert structure(snap, probes) == structure(
        inserted(source.vertices(), source.edges()), probes
    )
    subset = build_source_subset(DEMO_META, source)
    assert set(subset.vertex_ids()) == {"A", "B", "C", "X"}
    assert subset.vertices_with_label("tasks") == {"B", "X"}
    assert subset.vertices_with_property("typeCode", "extUser") == {"A"}
    assert structure(subset, probes) == structure(
        inserted(
            [source.vertex(v) for v in ("A", "B", "C", "X")],
            [source.edge(e) for e in ("e1", "e2", "a2")],
        ),
        probes,
    )


def test_subset_with_full_meta_is_identity():
    source = audit_heavy_source()
    everything = Meta(
        ("dataObjects", "tasks", "audit"),
        ("accessRelations", "taskDataRelations", "auditTrail"),
    )
    assert build_source_subset(everything, source) == source


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_inserts_pause_the_collector_and_restore_it(enabled, monkeypatch):
    seen: list[bool] = []

    def spying(original):
        def spy(*args):
            seen.append(gc.isenabled())
            return original(*args)

        return spy

    # the JSON decode (integer literals), the CSV cells, the link and the
    # record copies of a subset or snapshot each report the collector state
    monkeypatch.setattr(graph_store, "_integer", spying(graph_store._integer))
    monkeypatch.setattr(
        graph_store, "parse_csv_value", spying(graph_store.parse_csv_value)
    )
    monkeypatch.setattr(PropertyGraph, "add_vertex", spying(PropertyGraph.add_vertex))
    monkeypatch.setattr(VertexRecord, "copy", spying(VertexRecord.copy))
    source = audit_heavy_source()
    text = serialize_graph(small_graph())
    assert '"_key": 7' in text  # the decode calls _integer
    builds = {
        "json": lambda: load_graph_json(text),
        "csv": lambda: load_graph_csv("_id,_label,n\nA,l,1\n", E_HEADER + "e,t,A,A\n"),
        "subset": lambda: build_source_subset(DEMO_META, source),
        "snapshot": lambda: source.snapshot(),
    }
    duplicate = json.dumps(
        {
            "vertices": [
                {"id": "A", "label": "n", "properties": {"k": 1}},
                {"id": "A", "label": "n"},
            ],
            "edges": [],
        }
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for name, build in builds.items():
            seen.clear()
            build()
            assert seen and not any(seen), name
            assert gc.isenabled() is enabled, name
        seen.clear()
        with pytest.raises(DuplicateIdError):
            load_graph_json(duplicate)
        after_failure = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert after_failure is enabled
    assert len(seen) >= 3 and not any(seen)  # the failing load ran paused too


# -- JSON format ------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    g = small_graph()
    out = tmp_path / "g.json"
    out.write_text(serialize_graph(g), encoding="utf-8")
    assert load_graph_path(out) == g


def test_json_rejects_unknown_keys():
    with pytest.raises(GraphFormatError):
        load_graph_json('{"vertices": [{"id": "a", "label": "l", "extra": 1}], "edges": []}')


def test_json_rejects_bad_top_level():
    with pytest.raises(GraphFormatError):
        load_graph_json("[1, 2]")
    with pytest.raises(GraphFormatError) as err:
        load_graph_json('{"vertices": [}')
    assert err.value.line is not None


def test_json_edge_before_vertex_is_fine():
    g = load_graph_json(
        '{"vertices": [{"id": "b", "label": "l"}, {"id": "a", "label": "l"}],'
        ' "edges": [{"id": "e", "type": "t", "from": "a", "to": "b"}]}'
    )
    assert g.edge("e").from_id == "a"


def test_json_dangling_edge_reference():
    with pytest.raises(ReferentialError) as err:
        load_graph_json(
            '{"vertices": [{"id": "a", "label": "l"}],'
            ' "edges": [{"id": "e", "type": "t", "from": "a", "to": "ghost"}]}'
        )
    assert err.value.endpoint_id == "ghost"


# the smallest integer that float() refuses, and two literals past it:
# one that int() still parses, and one longer than int() accepts
FLOAT_INT_LIMIT = 2**1024 - 2**970
HUGE_INTEGERS = {"past-float": str(FLOAT_INT_LIMIT), "5000-digit": "-" + "9" * 5000}


def two_vertex_json(vertex_props: str = "{}", edge_props: str = "{}") -> str:
    return (
        '{"vertices": [{"id": "a", "label": "l", "properties": %s},'
        ' {"id": "b", "label": "l"}],'
        ' "edges": [{"id": "e", "type": "t", "from": "a", "to": "b", "properties": %s}]}'
        % (vertex_props, edge_props)
    )


@pytest.mark.parametrize("literal", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS.keys())
def test_json_rejects_integers_no_float_can_hold(literal):
    too_large = "is an integer too large to compare as a number"
    with pytest.raises(GraphFormatError, match=rf"vertices\[0\]: property 'n' {too_large}"):
        load_graph_json(two_vertex_json(vertex_props=f'{{"n": {literal}}}'))
    with pytest.raises(GraphFormatError, match=rf"edges\[0\]: property 'w' {too_large}"):
        load_graph_json(two_vertex_json(edge_props=f'{{"w": {literal}}}'))


def test_json_keeps_the_largest_integer_a_float_holds():
    largest = FLOAT_INT_LIMIT - 1
    g = load_graph_json(two_vertex_json(f'{{"n": {largest}}}', f'{{"w": {-largest}}}'))
    assert g.vertex("a").properties["n"] == largest
    assert g.edge("e").properties["w"] == -largest


@settings(max_examples=60, deadline=None)
@given(strategies.graphs())
def test_serialize_parse_roundtrip(g):
    assert load_graph_json(serialize_graph(g)) == g


# -- link errors ------------------------------------------------------------


def link_error(vertices_csv: str, edges_csv: str) -> tuple[type, str]:
    """Type and message of the error a CSV load raises."""
    with pytest.raises(Exception) as err:
        load_graph_csv(vertices_csv, edges_csv)
    return type(err.value), str(err.value)


def test_an_edge_checks_its_endpoints_before_its_id():
    # a missing endpoint and a duplicate id on one edge
    assert link_error(V_HEADER + "a,l\n", E_HEADER + "e,t,a,a\ne,t,a,ghost\n") == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )
    # a missing endpoint and an empty id
    assert link_error(V_HEADER + "a,l\n", E_HEADER + ",t,ghost,a\n") == (
        ReferentialError, "edge '' references unknown vertex 'ghost'"
    )
    assert link_error(V_HEADER + "a,l\n", E_HEADER + ",t,a,a\n") == (
        GraphFormatError, "edge id must be non-empty"
    )
    # the first bad edge in file order wins
    assert link_error(V_HEADER + "a,l\n", E_HEADER + "e,t,a,a\ne,t,a,a\nf,t,a,ghost\n") == (
        DuplicateIdError, "duplicate edge id 'e'"
    )
    with pytest.raises(ReferentialError, match="edge 'e' references unknown vertex 'ghost'"):
        load_graph_json(
            '{"vertices": [{"id": "a", "label": "l"}], "edges": ['
            '{"id": "e", "type": "t", "from": "a", "to": "a"},'
            ' {"id": "e", "type": "t", "from": "ghost", "to": "a"}]}'
        )


def test_vertex_errors_come_before_any_edge_error():
    assert link_error(V_HEADER + "a,l\na,l\n", E_HEADER + "e,t,a,ghost\ne,t,a,a\n") == (
        DuplicateIdError, "duplicate vertex id 'a'"
    )
    assert link_error(V_HEADER + ",l\na,l\na,l\n", E_HEADER + "e,t,a,ghost\n") == (
        GraphFormatError, "vertex id must be non-empty"
    )
    with pytest.raises(DuplicateIdError, match="duplicate vertex id 'b'"):
        load_graph_json(
            '{"edges": [{"id": "e", "type": "t", "from": "a", "to": "ghost"}],'
            ' "vertices": [{"id": "b", "label": "l"}, {"id": "b", "label": "l"}]}'
        )


# -- CSV format -------------------------------------------------------------


def test_parse_csv_value_literals():
    assert parse_csv_value("3") == 3 and isinstance(parse_csv_value("3"), int)
    assert parse_csv_value("2.5") == 2.5
    assert parse_csv_value("true") is True
    assert parse_csv_value("yes") == "yes"
    assert parse_csv_value("3a") == "3a"


def test_csv_roundtrip_semantics():
    vertices = "_id,_label,_key,typeCode\nA,dataObjects,1,pmUser\nB,tasks,2,\n"
    edges = "_id,_type,_from,_to,typeKind\ne1,accessRelations,A,B,worksOn\n"
    g = load_graph_csv(vertices, edges)
    assert g.vertex("A").properties == {"_key": 1, "typeCode": "pmUser"}
    # empty cell -> property absent, not empty text
    assert g.vertex("B").properties == {"_key": 2}
    assert g.edge("e1").properties == {"typeKind": "worksOn"}


@pytest.mark.parametrize("literal", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS.keys())
def test_csv_rejects_integers_no_float_can_hold(literal):
    with pytest.raises(GraphFormatError, match="vertex 'B': property 'n': integer") as err:
        load_graph_csv(f"_id,_label,n\nA,l,1\nB,l,{literal}\n", "_id,_type,_from,_to\n")
    assert err.value.line == 3
    with pytest.raises(GraphFormatError, match="edge 'e1': property 'w': integer") as err:
        load_graph_csv("_id,_label\nA,l\n", f"_id,_type,_from,_to,w\ne1,t,A,A,{literal}\n")
    assert err.value.line == 2


def test_csv_header_and_row_errors():
    with pytest.raises(GraphFormatError):
        load_graph_csv("_id,_wrong\n", "_id,_type,_from,_to\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph_csv("_id,_label\nA\n", "_id,_type,_from,_to\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError):
        load_graph_csv("", "_id,_type,_from,_to\n")


def test_csv_directory_loading(tmp_path):
    (tmp_path / "vertices.csv").write_text("_id,_label\nA,l\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("_id,_type,_from,_to\n", encoding="utf-8")
    g = load_graph_path(tmp_path, "csv")
    assert g.vertex_count == 1 and g.edge_count == 0
    with pytest.raises(GraphFormatError):
        load_graph_path(tmp_path / "missing", "csv")
