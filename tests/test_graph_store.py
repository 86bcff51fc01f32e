import csv
import gc
import io
import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memory_probe
import oracles
import strategies
from graphpdp import graph_store
from graphpdp.errors import DuplicateIdError, GraphFormatError, ReferentialError
from graphpdp.graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    as_number,
    as_text,
    build_source_subset,
    index_key,
    load_graph_csv,
    load_graph_json,
    load_graph_path,
    parse_csv_value,
    serialize_graph,
)
from graphpdp.pdp import DecisionEngine, render_response_xml
from graphpdp.policy_model import Meta, load_policy_dir
from graphpdp.request_model import parse_request


def small_records() -> tuple[list[VertexRecord], list[EdgeRecord]]:
    return [
        VertexRecord("A", "dataObjects", {"typeCode": "pmUser"}),
        VertexRecord("B", "tasks", {"_key": 7}),
        VertexRecord("C", "dataObjects", {}),
    ], [
        EdgeRecord("e1", "accessRelations", "A", "B", {"typeKind": "worksOn"}),
        EdgeRecord("e2", "taskDataRelations", "B", "C", {}),
    ]


def small_graph() -> PropertyGraph:
    return PropertyGraph(*small_records())


# headers of the two CSV files, with no property columns
V_HEADER = "_id,_label\n"
E_HEADER = "_id,_type,_from,_to\n"


# -- value semantics --------------------------------------------------------


def test_value_kind_distinguishes_bool_from_int():
    assert oracles.value_kind(True) == "boolean"
    assert oracles.value_kind(1) == "integer"
    assert oracles.value_kind(1.0) == "float"
    assert oracles.value_kind("1") == "text"
    with pytest.raises(TypeError):
        oracles.value_kind(None)


def test_strict_equal_is_kind_aware():
    assert oracles.strict_equal(2, 2)
    assert not oracles.strict_equal(2, 2.0)
    assert not oracles.strict_equal(2, "2")
    assert not oracles.strict_equal(True, 1)


def test_same_graph_tells_apart_records_that_differ_in_any_field_or_kind():
    g = small_graph()
    assert oracles.same_graph(g, small_graph())
    changes = [
        ("B", {"properties": {"_key": 7.0}}),
        ("B", {"properties": {"_key": "7"}}),
        ("B", {"properties": {"_key": 7, "extra": 1}}),
        ("A", {"label": "tasks"}),
        ("e1", {"type": "taskDataRelations"}),
        ("e1", {"to_id": "C"}),
        ("e2", {"from_id": "A"}),
        ("e1", {"properties": {"typeKind": True}}),
    ]
    for rid, change in changes:
        edited = PropertyGraph(
            [replace(v, **change) if v.id == rid else v for v in g.vertices()],
            [replace(e, **change) if e.id == rid else e for e in g.edges()],
        )
        assert not oracles.same_graph(edited, g), (rid, change)
        assert not oracles.same_graph(g, edited), (rid, change)
    fewer = PropertyGraph(g.vertices(), [e for e in g.edges() if e.id != "e2"])
    assert not oracles.same_graph(fewer, g) and not oracles.same_graph(g, fewer)


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
    # any Unicode decimal digits, signed or not, but no other digit
    assert as_number("٣٤") == 34.0
    assert as_number("+٣") == 3.0
    assert as_number("²") is None
    assert as_number("") is None


# the rule as_number used for all text before plain digits skipped the regex
OLD_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")

NUMBER_TEXTS = st.one_of(
    st.just(""),
    st.text(st.sampled_from("0123456789١٢٣۴੭²³½+-.eE_ \t\nxaZ"), max_size=8),
    st.text(st.characters(categories=("Nd",)), min_size=1, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(NUMBER_TEXTS)
def test_the_decimal_fast_path_classifies_text_as_the_regex_did(text):
    old = float(text) if OLD_FLOAT_RE.match(text) else None
    assert as_number(text) == old
    assert (as_number(text) is None) == (old is None)


def test_loose_equal_matches_comparison_semantics():
    assert oracles.loose_equal(7, "7")
    assert oracles.loose_equal("2.0", 2)
    assert not oracles.loose_equal("a", 7)
    assert oracles.loose_equal(True, "true")  # both non-numeric -> text compare
    assert index_key("07") == index_key(7)


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
    vertices, edges = small_records()
    with pytest.raises(DuplicateIdError):
        PropertyGraph([*vertices, VertexRecord("A", "tasks", {})], edges)
    with pytest.raises(DuplicateIdError):
        PropertyGraph(vertices, [*edges, EdgeRecord("e1", "t", "A", "B", {})])


def test_edge_needs_existing_endpoints():
    vertices, edges = small_records()
    with pytest.raises(ReferentialError):
        PropertyGraph(vertices, [*edges, EdgeRecord("e9", "t", "A", "nope", {})])


def test_indexes():
    g = small_graph()
    assert g.vertices_with_label("dataObjects") == {"A", "C"}
    assert g.vertices_with_label("audit") == set()
    # the property index buckets by loose equality, so "7" finds int 7
    assert g.vertices_with_property("_key", "7") == {"B"}
    assert g.vertices_with_property("_key", 7) == {"B"}


def test_hops_sorted_per_direction():
    # given out of id order: two parallel A->B edges, one B->A, a
    # self-loop on A and one C->A
    g = PropertyGraph(
        [VertexRecord(v, "n", {}) for v in "ABC"],
        [
            EdgeRecord("e3", "t", "A", "B", {}),
            EdgeRecord("e1", "t", "A", "B", {}),
            EdgeRecord("e4", "t", "C", "A", {}),
            EdgeRecord("e0", "t", "A", "A", {}),
            EdgeRecord("e2", "t", "B", "A", {}),
        ],
    )
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


@settings(max_examples=100, deadline=None)
@given(strategies.graphs())
def test_hops_equal_a_scan_of_every_edge(g):
    for vid in g.vertex_ids():
        out = sorted((e.id, e.to_id) for e in g.edges() if e.from_id == vid)
        into = sorted((e.id, e.from_id) for e in g.edges() if e.to_id == vid)
        assert g.hops(vid, "from") == out
        assert g.hops(vid, "to") == into
        assert g.hops(vid, "any") == sorted({*out, *into})


def test_a_direction_without_hops_costs_no_list_of_its_own():
    g = PropertyGraph(
        [VertexRecord(v, "n", {}) for v in "ABCD"],
        [
            EdgeRecord("e1", "t", "A", "B", {}),
            EdgeRecord("e2", "t", "A", "C", {}),
            EdgeRecord("e3", "t", "C", "B", {}),
        ],
    )
    empty = g.hops("D", "from")
    assert empty == [] and all(
        g.hops(v, d) is empty for v, d in [("D", "to"), ("D", "any"), ("A", "to"), ("B", "from")]
    )
    # with hops one way only, any is that direction's own list
    assert g.hops("A", "any") is g.hops("A", "from")
    assert g.hops("B", "any") is g.hops("B", "to") == [("e1", "A"), ("e3", "C")]
    assert g.hops("C", "any") == [("e2", "A"), ("e3", "B")]


def assert_unchangeable(record, field_name: str) -> None:
    """Neither a property nor the field ``field_name`` of ``record`` can
    be set in place."""
    with pytest.raises(TypeError):
        record.properties["typeCode"] = "changed"
    with pytest.raises(FrozenInstanceError):
        setattr(record, field_name, "changed")


def test_records_are_immutable_copies_of_what_they_were_built_with():
    properties = {"typeCode": "pmUser"}
    vertex = VertexRecord("A", "dataObjects", properties)
    edge = EdgeRecord("e1", "accessRelations", "A", "A", properties)
    properties["typeCode"] = "changed"
    assert vertex.properties == edge.properties == {"typeCode": "pmUser"}
    assert_unchangeable(vertex, "label")
    assert_unchangeable(edge, "type")
    assert vertex.properties == {"typeCode": "pmUser"}
    edited = replace(vertex, properties={"typeCode": "changed"})
    assert edited.properties == {"typeCode": "changed"}
    assert_unchangeable(edited, "id")
    # each record wraps a copy of its own
    for record in (vertex, edge):
        [wrapped] = gc.get_referents(record.properties)
        assert wrapped is not properties and wrapped == {"typeCode": "pmUser"}


@pytest.mark.parametrize("format", ["json", "csv"])
def test_loaded_records_are_read_only(format):
    if format == "json":
        g = load_graph_json(serialize_graph(small_graph()))
    else:
        g = load_graph_csv(
            "_id,_label,typeCode\nA,dataObjects,pmUser\nB,tasks,\n",
            "_id,_type,_from,_to,typeKind\ne1,accessRelations,A,B,worksOn\n",
        )
    assert_unchangeable(g.vertex("A"), "label")
    assert_unchangeable(g.edge("e1"), "type")
    assert g.vertex("A").properties == {"typeCode": "pmUser"}
    assert g.edge("e1").properties == {"typeKind": "worksOn"}


def test_snapshot_is_isolated_and_frozen():
    vertices, edges = small_records()
    g = PropertyGraph(vertices, edges)
    # every graph is frozen, so it is its own snapshot
    snap = g.snapshot()
    assert snap is g
    # the records are the ones it was built from, and cannot change in place
    assert [g.vertex(v.id) for v in vertices] == vertices
    assert [g.edge(e.id) for e in edges] == edges
    assert_unchangeable(g.vertex("A"), "label")
    assert_unchangeable(g.edge("e1"), "to_id")
    assert snap.vertex_count == 3
    assert snap.vertex("A").properties["typeCode"] == "pmUser"
    assert snap.edge_count == 2
    assert snap.hops("A", "any") == [("e1", "B")]
    assert snap.hops("C", "from") == []
    assert snap.edge("e1").properties["typeKind"] == "worksOn"
    # a graph built from edited records holds and indexes them
    edited = PropertyGraph(
        [replace(v, properties={"typeCode": "changed"}) if v.id == "A" else v for v in g.vertices()],
        [replace(e, properties={"typeKind": "changed"}) if e.id == "e1" else e for e in g.edges()],
    ).snapshot()
    assert edited.vertex("A").properties["typeCode"] == "changed"
    assert edited.edge("e1").properties["typeKind"] == "changed"
    assert edited.vertices_with_property("typeCode", "changed") == {"A"}
    assert edited.vertices_with_property("typeCode", "pmUser") == set()
    assert snap.vertices_with_property("typeCode", "pmUser") == {"A"}
    # and shares no hop list or index set with the graph of the originals
    before = structure(snap)
    structure(edited)
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
    # the "insert path": the constructor, given the records in that order
    g, meta = drawn
    # every label, type and property value the source holds, so that what
    # the subset drops is looked up too
    probes = [(v.label, (n, x)) for v in g.vertices() for n, x in v.properties.items()]
    by_id = lambda record: record.id  # noqa: E731
    vertices, edges = sorted(g.vertices(), key=by_id), sorted(g.edges(), key=by_id)
    text = serialize_graph(g)
    assert structure(load_graph_json(text), probes) == structure(
        PropertyGraph(vertices, edges), probes
    )
    # the same file with every array reversed, so hops come out of id order
    doc = json.loads(text)
    reversed_text = json.dumps({name: doc[name][::-1] for name in doc})
    assert structure(load_graph_json(reversed_text), probes) == structure(
        PropertyGraph(vertices[::-1], edges[::-1]), probes
    )
    snap = g.snapshot()
    assert oracles.same_graph(snap, g)
    assert structure(snap, probes) == structure(PropertyGraph(g.vertices(), g.edges()), probes)
    # a subset of the built source, and one of the loaded source, whose
    # records come in id order
    for source in (g, load_graph_json(text)):
        kept = [v for v in source.vertices() if v.label in meta.vertex_entities]
        kept_ids = {v.id for v in kept}
        assert structure(build_source_subset(meta, source), probes) == structure(
            PropertyGraph(
                kept,
                [
                    e
                    for e in source.edges()
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
    vertices, edges = small_records()
    return PropertyGraph(
        [*vertices, VertexRecord("X", "audit", {})],
        [
            *edges,
            EdgeRecord("a1", "auditTrail", "A", "X", {}),
            # listed type, but one endpoint vanishes with its unlisted vertex
            EdgeRecord("a2", "accessRelations", "X", "B", {}),
        ],
    )


def test_subset_drops_unlisted_labels_and_incident_edges():
    subset = build_source_subset(DEMO_META, audit_heavy_source())
    assert set(subset.vertex_ids()) == {"A", "B", "C"}
    assert set(oracles.edge_ids(subset)) == {"e1", "e2"}


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
    assert set(oracles.edge_ids(subset)) == wanted_e


def test_subset_shares_only_its_records_with_its_source():
    source = audit_heavy_source()
    subset = build_source_subset(DEMO_META, source)
    assert all(subset.vertex(v) is source.vertex(v) for v in subset.vertex_ids())
    assert all(subset.edge(e) is source.edge(e) for e in oracles.edge_ids(subset))
    assert_unchangeable(source.vertex("A"), "label")
    # its hop lists and indexes are its own: the source's keep what it drops
    before = structure(subset)
    structure(source)
    assert structure(subset) == before
    assert subset.vertices_with_label("tasks") == {"B"}
    assert subset.vertices_with_property("typeCode", "pmUser") == {"A"}
    assert subset.hops("A", "any") == [("e1", "B")]
    assert subset.hops("C", "from") == []
    assert source.hops("A", "any") == [("a1", "X"), ("e1", "B")]
    # a subset is frozen: it is its own snapshot
    assert subset.snapshot() is subset
    assert source.hops("B", "from") == [("e2", "C")]
    # a subset of a loaded, frozen source holds the source's records too
    loaded = load_graph_json(serialize_graph(source))
    loaded_subset = build_source_subset(DEMO_META, loaded)
    assert loaded_subset.snapshot() is loaded_subset
    assert all(loaded_subset.vertex(v) is loaded.vertex(v) for v in loaded_subset.vertex_ids())
    assert all(loaded_subset.edge(e) is loaded.edge(e) for e in oracles.edge_ids(loaded_subset))


def test_graphs_of_edited_records_index_the_new_values():
    source = audit_heavy_source()
    assert_unchangeable(source.vertex("X"), "label")
    # records edited with replace(): a graph built from them, and every
    # subset derived from it, index the new values
    changes = {"A": {"properties": {"typeCode": "extUser"}}, "X": {"label": "tasks"}}
    edited = PropertyGraph(
        [replace(v, **changes.get(v.id, {})) for v in source.vertices()], source.edges()
    )
    probes = [("audit", ("typeCode", "pmUser")), ("tasks", ("typeCode", "extUser"))]
    snap = edited.snapshot()
    assert snap.vertices_with_property("typeCode", "extUser") == {"A"}
    assert snap.vertices_with_property("typeCode", "pmUser") == set()
    assert snap.vertices_with_label("tasks") == {"B", "X"}
    assert snap.vertices_with_label("audit") == set()
    assert structure(snap, probes) == structure(
        PropertyGraph(edited.vertices(), edited.edges()), probes
    )
    # a subset of the built graph, and one of the same graph loaded
    for graph in (edited, load_graph_json(serialize_graph(edited))):
        subset = build_source_subset(DEMO_META, graph)
        assert set(subset.vertex_ids()) == {"A", "B", "C", "X"}
        assert subset.vertices_with_label("tasks") == {"B", "X"}
        assert subset.vertices_with_property("typeCode", "extUser") == {"A"}
        assert structure(subset, probes) == structure(
            PropertyGraph(graph.vertices(), [e for e in graph.edges() if e.id != "a1"]),
            probes,
        )
    # the source's own records and indexes are unchanged
    assert source.vertices_with_property("typeCode", "pmUser") == {"A"}
    assert source.vertices_with_label("audit") == {"X"}


def test_subset_with_full_meta_is_identity():
    source = audit_heavy_source()
    everything = Meta(
        ("dataObjects", "tasks", "audit"),
        ("accessRelations", "taskDataRelations", "auditTrail"),
    )
    assert oracles.same_graph(build_source_subset(everything, source), source)


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_inserts_pause_the_collector_and_restore_it(enabled, monkeypatch):
    seen: list[bool] = []

    def spying(original):
        def spy(*args):
            seen.append(gc.isenabled())
            return original(*args)

        return spy

    # the JSON decode (integer literals), the CSV cells, the constructor
    # and the structure build (each vertex property it indexes) report
    # the collector state
    source = audit_heavy_source()
    monkeypatch.setattr(graph_store, "_integer", spying(graph_store._integer))
    monkeypatch.setattr(
        graph_store, "parse_csv_value", spying(graph_store.parse_csv_value)
    )
    monkeypatch.setattr(PropertyGraph, "__init__", spying(PropertyGraph.__init__))
    monkeypatch.setattr(graph_store, "index_key", spying(graph_store.index_key))
    text = serialize_graph(small_graph())
    assert '"_key": 7' in text  # the decode calls _integer
    builds = {
        "json": lambda: load_graph_json(text),
        "csv": lambda: load_graph_csv("_id,_label,n\nA,l,1\n", E_HEADER + "e,t,A,A\n"),
        # a subset or snapshot builds its structures when first read
        "subset": lambda: build_source_subset(DEMO_META, source).vertices_with_label("x"),
        "snapshot": lambda: source.snapshot().vertices_with_label("x"),
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
    # the failing load ran paused too: its decode and its constructor
    assert seen == [False, False]


def collections_during(build) -> list[int]:
    """The generation of each collection that runs during ``build()``, with
    the collector enabled and starting from empty young generations."""
    passes: list[int] = []

    def seen(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(seen)
    try:
        build()
    finally:
        gc.callbacks.remove(seen)
        (gc.enable if was_enabled else gc.disable)()
    return passes


def test_a_set_up_leaves_the_collector_nothing_to_rescan(demo_policy_dir):
    # without the promotion, the first allocation after the load runs a
    # young collection over everything the load made
    policies = load_policy_dir(demo_policy_dir)
    text = generated_graph_json(3000, 6000)
    engines = []
    assert collections_during(
        lambda: engines.append(DecisionEngine(policies, load_graph_json(text)))
    ) == []
    assert engines[0].graph.vertex_count == 3000


def test_a_set_up_keeps_what_a_caller_froze_frozen(demo_policy_dir):
    policies = load_policy_dir(demo_policy_dir)
    text = generated_graph_json(300, 600)
    was_enabled = gc.isenabled()
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        DecisionEngine(policies, load_graph_json(text))
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("vertices, promoted", [(5, False), (3000, True)])
def test_a_load_promotes_only_when_it_leaves_a_young_collection_due(vertices, promoted):
    # a caller's young object moves to the oldest generation with the
    # load's own, and only when a young collection would otherwise run
    text = generated_graph_json(vertices, 2 * vertices)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        marker = []
        load_graph_json(text)
        young = any(o is marker for o in gc.get_objects(generation=0))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert young is not promoted


def test_repeated_set_ups_keep_no_garbage_and_no_memory(demo_policy_dir):
    # each set-up promotes what it made, so any cycle among it would wait
    # for a full collection, and the memory of the engines before with it
    policies = load_policy_dir(demo_policy_dir)
    text = generated_graph_json(1000, 2000)
    collected: list[int] = []

    def seen(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    was_enabled = gc.isenabled()
    gc.enable()
    tracemalloc.start()
    try:
        # the second set-up is the first that finds every cache warm
        for _ in range(2):
            engine = DecisionEngine(policies, load_graph_json(text))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        gc.callbacks.append(seen)
        try:
            for _ in range(5):
                engine = DecisionEngine(policies, load_graph_json(text))
            gc.collect()
        finally:
            gc.callbacks.remove(seen)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
        (gc.enable if was_enabled else gc.disable)()
    assert engine.graph.vertex_count == 1000
    assert sum(collected) == 0
    assert grown < held // 100


# -- structure builds -------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def count_builds(monkeypatch) -> list[PropertyGraph]:
    """Each graph whose hop lists and indexes are derived from here on,
    once per derivation."""
    built: list[PropertyGraph] = []
    derive = PropertyGraph._derive_structures

    def spy(graph):
        built.append(graph)
        derive(graph)

    monkeypatch.setattr(PropertyGraph, "_derive_structures", spy)
    return built


def test_a_source_cut_to_a_subset_never_builds_its_structures(monkeypatch):
    built = count_builds(monkeypatch)
    text = serialize_graph(audit_heavy_source())
    for source in (
        load_graph_json(text),
        load_graph_csv(
            V_HEADER + "A,dataObjects\nB,tasks\nX,audit\n",
            E_HEADER + "e1,accessRelations,A,B\na1,auditTrail,A,X\n",
        ),
    ):
        built.clear()
        subset = build_source_subset(DEMO_META, source)
        assert built == []
        assert subset.hops("A", "from") == [("e1", "B")]
        assert subset.vertices_with_label("tasks") == {"B"}
        assert subset.vertices_with_property("_key", "X") == set()
        assert len(built) == 1 and built[0] is subset


def test_an_engine_builds_its_graph_before_it_decides(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.project_graph(
        tmp_path, 1, n_pm=6, n_ext=4, n_task=8, n_doc=12, per_class=2
    )
    built = count_builds(monkeypatch)
    policies = load_policy_dir(workload.policy_dir)
    (meta,) = {p.meta for p in policies}
    subset = build_source_subset(meta, load_graph_path(workload.graph_file))
    engine = DecisionEngine(policies, subset)
    assert len(built) == 1 and built[0] is engine.graph is subset
    assert {op.cls for op in workload.ops} == set(workload.shares)
    for op in workload.ops:
        request = parse_request(Path(op.request_file).read_text(encoding="utf-8"))
        assert render_response_xml(engine.decide(request)) == op.expected, op.cls
    assert len(built) == 1


@pytest.mark.parametrize(
    "args, phases, records",
    [
        (["--source", "graphs/demo_source.json"], ["load", "subset", "engine build"], [16, 11, 11]),
        (["--graph", "graphs/demo_graph.json"], ["load", "engine build"], [11, 11]),
        (["--graph", "graphs/demo_csv", "--format", "csv"], ["load", "engine build"], [11, 11]),
    ],
    ids=["source", "graph", "csv"],
)
def test_the_memory_probe_reports_each_set_up_phase(capsys, fixtures_dir, args, phases, records):
    args = [args[0], str(fixtures_dir / args[1]), *args[2:]]
    assert memory_probe.main(["--policies", str(fixtures_dir / "policies"), *args]) == 0
    assert not tracemalloc.is_tracing()
    memory, _ = capsys.readouterr().out.split("\n\n")
    header, *rows = memory.splitlines()
    assert header.split() == ["phase", "retained_B", "peak_B", "records", "B/record"]
    table = {row[:14].strip(): row[14:].split() for row in rows}
    assert list(table) == ["policies", *phases, "engine holds", "second set-up"]
    for name, count in zip([*phases, "second set-up"], [*records, records[-1]]):
        retained, peak, shown, per = table[name]
        assert 0 < int(retained) <= int(peak)
        assert (int(shown), int(per)) == (count, round(int(retained) / count))
    held, peak, shown, _ = table["engine holds"]
    assert peak == "-" and int(shown) == records[-1]
    assert int(held) >= int(table["engine build"][0]) + int(table["policies"][0])
    # the second engine shares nothing with the first, which stays held
    assert int(table["second set-up"][0]) > int(table["engine build"][0])


def test_the_memory_probe_times_each_phase_with_its_collector_passes(capsys, fixtures_dir):
    args = ["--policies", str(fixtures_dir / "policies"),
            "--source", str(fixtures_dir / "graphs" / "demo_source.json")]
    assert memory_probe.main(args) == 0
    assert not tracemalloc.is_tracing()
    memory, timing = capsys.readouterr().out.split("\n\n")
    assert memory.splitlines()[-1].startswith("second set-up")
    header, *rows = timing.splitlines()
    assert header.split() == ["phase", "best_ms", "gc_passes", "gc_ms"]
    table = {row[:14].strip(): [float(x) for x in row[14:].split()] for row in rows}
    assert list(table) == ["policies", "load", "subset", "engine build", "set-up"]
    *phases, whole = table.values()
    assert all(x >= 0 for row in table.values() for x in row)
    # a set-up spans its phases, so its best is at least their bests' sum,
    # and its mean passes are their means' sum, each printed rounded
    assert sum(best for best, _, _ in phases) <= whole[0] + 0.03
    assert abs(sum(passes for _, passes, _ in phases) - whole[1]) <= 0.25


def json_of(vertices, edges) -> str:
    """A graph file of the records, in this order."""
    return json.dumps({
        "vertices": [
            {"id": v.id, "label": v.label, "properties": dict(v.properties)}
            for v in vertices
        ],
        "edges": [
            {"id": e.id, "type": e.type, "from": e.from_id, "to": e.to_id,
             "properties": dict(e.properties)}
            for e in edges
        ],
    })


# -- JSON format ------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    g = small_graph()
    out = tmp_path / "g.json"
    out.write_text(serialize_graph(g), encoding="utf-8")
    assert oracles.same_graph(load_graph_path(out), g)


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


# JSON spellings of non-finite numbers, and a literal that overflows a float
NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e400": "inf", "-1e400": "-inf"}


@pytest.mark.parametrize("literal", NON_FINITE, ids=NON_FINITE)
def test_json_rejects_non_finite_numbers(literal):
    # loaded, such a value is indexed as a number but checked as its text
    # ("inf"), so a rule constrained to that text would miss it
    shown = NON_FINITE[literal]
    with pytest.raises(GraphFormatError, match=rf"vertices\[0\]: property 'n' is {shown}, not"):
        load_graph_json(two_vertex_json(vertex_props=f'{{"n": {literal}}}'))
    with pytest.raises(GraphFormatError, match=rf"edges\[0\]: property 'w' is {shown}, not"):
        load_graph_json(two_vertex_json(edge_props=f'{{"w": {literal}}}'))


def test_json_keeps_the_largest_integer_a_float_holds():
    largest = FLOAT_INT_LIMIT - 1
    g = load_graph_json(two_vertex_json(f'{{"n": {largest}}}', f'{{"w": {-largest}}}'))
    assert g.vertex("a").properties["n"] == largest
    assert g.edge("e").properties["w"] == -largest


@settings(max_examples=60, deadline=None)
@given(strategies.graphs())
def test_serialize_parse_roundtrip(g):
    assert oracles.same_graph(load_graph_json(serialize_graph(g)), g)


# -- the streamed decode against the plain one ------------------------------

# what a record field or property may be replaced by: wrong kinds, empty
# and ghost ids, ids already taken, and values no record may hold
ODD_VALUES = (None, 0, 2.5, True, "", "ghost", "v0", "e0", [], [1], {}, {"a": 1}, float("nan"))
# text spliced into a document: structural tokens, literals and bytes the
# scanner refuses or reads as a number no float can hold
TOKENS = (
    "{", "}", "[", "]", ",", ":", '"', " ", "\n", "\\", "\x00", "-", "0", "1e400",
    "9" * 400, "NaN", "-Infinity", "null", "true", '"id"', '"vertices"', '"edges": []', "é",
)
SPLICED_VALUES = ([], {}, [{"id": 1}], [{"id": "v0", "label": "L0"}], [None], "x")


@st.composite
def graph_documents(draw) -> str:
    """JSON graph documents, often malformed: records edited, the arrays
    in either order and a top-level key repeated, then text deleted,
    spliced in or appended, a BOM put first or arrays nested deeply."""
    g = draw(strategies.graphs())
    arrays = json.loads(json_of(g.vertices(), g.edges()))
    for _ in range(draw(st.integers(0, 2))):
        records = arrays[draw(st.sampled_from(["vertices", "edges"]))]
        if not records:
            continue
        record = draw(st.sampled_from(records))
        key = draw(st.sampled_from(["id", "label", "type", "from", "to", "properties", "x"]))
        if draw(st.booleans()):
            record.pop(key, None)
        elif key == "properties":
            record[key] = {"p": draw(st.sampled_from(ODD_VALUES))}
        else:
            record[key] = draw(st.sampled_from(ODD_VALUES))
    pairs = list(arrays.items())
    if draw(st.booleans()):
        pairs.reverse()
    if draw(st.booleans()):
        key = draw(st.sampled_from(["vertices", "edges"]))
        pairs.insert(draw(st.integers(0, 2)), (key, draw(st.sampled_from(SPLICED_VALUES))))
    indent = draw(st.sampled_from([None, 1]))
    text = "{" + ", ".join(
        f"{json.dumps(key)}: {json.dumps(value, indent=indent)}" for key, value in pairs
    ) + "}"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "splice", "append", "bom", "nest"]))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif edit == "splice":
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        elif edit == "append":
            text += draw(st.sampled_from([" ", "\n", "x", "{}", " 1", ","]))
        elif edit == "bom":
            text = "\ufeff" + text
        else:
            # far below and far above the interpreter's recursion limit
            depth = draw(st.sampled_from([3, 40, 5000]))
            text = text[:at] + "[" * depth + "]" * depth + text[at:]
    return text


def load_outcome(load, text: str):
    """The graph a load returns, or the type, message and place of its error."""
    try:
        return load(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=400, deadline=None)
@given(graph_documents())
def test_the_streamed_load_matches_a_load_of_the_whole_decoded_document(text):
    streamed = load_outcome(load_graph_json, text)
    plain = load_outcome(oracles.reference_load_graph_json, text)
    if isinstance(plain, PropertyGraph):
        assert isinstance(streamed, PropertyGraph) and oracles.same_graph(streamed, plain)
    else:
        assert streamed == plain


def test_a_repeated_array_key_keeps_its_last_array_and_that_arrays_own_error():
    good = '[{"id": "a", "label": "l"}]'
    bad = '[{"id": "a", "label": 5}]'
    g = load_graph_json(f'{{"vertices": {bad}, "edges": [], "vertices": {good}}}')
    assert g.vertex_ids() == ["a"]
    with pytest.raises(GraphFormatError, match=r"^vertices\[0\]: 'label' must be"):
        load_graph_json(f'{{"vertices": {good}, "edges": [], "vertices": {bad}}}')
    # a bad record is held until the document has decoded: a later JSON
    # error, and the top level's shape, come first
    with pytest.raises(GraphFormatError, match="invalid JSON: Expecting ',' delimiter"):
        load_graph_json(f'{{"vertices": {bad}, "edges": [] "x": 1}}')
    with pytest.raises(GraphFormatError, match="top level must be an object"):
        load_graph_json(f'{{"vertices": {bad}, "edges": [], "x": 1}}')
    with pytest.raises(GraphFormatError, match="must be arrays"):
        load_graph_json(f'{{"vertices": {bad}, "edges": {{}}}}')


# -- shared texts and the property index -----------------------------------


def held_texts(g: PropertyGraph) -> list[str]:
    """Every text object a graph's records hold: ids, labels, types,
    endpoints and text property values."""
    texts = []
    for v in g.vertices():
        texts += [v.id, v.label, *(x for x in v.properties.values() if type(x) is str)]
    for e in g.edges():
        texts += [e.id, e.type, e.from_id, e.to_id]
        texts += [x for x in e.properties.values() if type(x) is str]
    return texts


@pytest.mark.parametrize("format", ["json", "csv"])
def test_a_loaded_graph_keeps_one_object_per_distinct_text(format):
    # texts of more than one character, which the decoders never share on
    # their own: every id is an endpoint, the labels, types and values
    # repeat, and one value spells a vertex id
    if format == "json":
        g = load_graph_json(json.dumps({
            "vertices": [
                {"id": "va", "label": "node", "properties": {"color": "blue", "peer": "vb"}},
                {"id": "vb", "label": "node", "properties": {"color": "blue"}},
            ],
            "edges": [
                {"id": "ea", "type": "link", "from": "va", "to": "vb",
                 "properties": {"color": "blue"}},
                {"id": "eb", "type": "link", "from": "vb", "to": "va",
                 "properties": {"shade": "blue"}},
            ],
        }))
    else:
        g = load_graph_csv(
            "_id,_label,color,peer\nva,node,blue,vb\nvb,node,blue,\n",
            "_id,_type,_from,_to,color,shade\nea,link,va,vb,blue,\neb,link,vb,va,,blue\n",
        )
    texts = held_texts(g)
    assert sorted(set(texts)) == ["blue", "ea", "eb", "link", "node", "va", "vb"]
    assert len({id(text) for text in texts}) == len(set(texts))
    assert g.edge("ea").from_id is g.vertex("va").id
    assert g.vertex("va").properties["peer"] is g.vertex("vb").id
    names = [name for record in all_records(g) for name in record.properties]
    assert sorted(set(names)) == ["color", "peer", "shade"]
    assert len({id(name) for name in names}) == len(set(names))
    # equal all-text maps share one view
    assert g.vertex("vb").properties is g.edge("ea").properties


def all_records(g: PropertyGraph) -> list:
    return [*g.vertices(), *g.edges()]


def test_equal_text_only_property_maps_share_one_view():
    g = load_graph_json(json.dumps({
        "vertices": [
            {"id": "va", "label": "node", "properties": {"color": "blue", "shade": "dark"}},
            {"id": "vb", "label": "node", "properties": {"color": "blue", "shade": "dark"}},
            # the same items in another order, and maps of other kinds
            {"id": "vc", "label": "node", "properties": {"shade": "dark", "color": "blue"}},
            {"id": "vd", "label": "node", "properties": {"n": 1}},
            {"id": "ve", "label": "node", "properties": {"n": 1}},
            {"id": "vf", "label": "node", "properties": {"n": "1"}},
            {"id": "vg", "label": "node", "properties": {"n": True}},
            {"id": "vh", "label": "node", "properties": {"n": "1"}},
            {"id": "vi", "label": "node"},
        ],
        "edges": [
            {"id": "ea", "type": "link", "from": "va", "to": "vb",
             "properties": {"color": "blue", "shade": "dark"}},
            {"id": "eb", "type": "link", "from": "vb", "to": "va", "properties": {}},
        ],
    }))
    view = g.vertex("va").properties
    assert [g.vertex(v).properties is view for v in ("vb", "vc")] == [True, False]
    assert g.edge("ea").properties is view
    assert list(g.vertex("vc").properties) == ["shade", "color"]
    assert g.vertex("vf").properties is g.vertex("vh").properties
    # numbers and booleans never share, and equal them as values of their kinds
    assert g.vertex("vd").properties is not g.vertex("ve").properties
    assert {oracles.value_kind(g.vertex(v).properties["n"]) for v in ("vd", "vf", "vg")} == {
        "integer", "text", "boolean"
    }
    assert g.vertex("vi").properties is g.edge("eb").properties == {}
    with pytest.raises(TypeError):
        view["color"] = "red"


def generated_graph_json(n_vertices: int, n_edges: int) -> str:
    """A project-like graph: each vertex keys itself and carries one of a
    few type codes, each edge one of a few kinds."""
    codes, kinds = ("user", "task", "document"), ("worksOn", "produces", "references")
    return json.dumps({
        "vertices": [
            {"id": f"v{i:05d}", "label": "dataObjects",
             "properties": {"_key": f"v{i:05d}", "typeCode": codes[i % 3]}}
            for i in range(n_vertices)
        ],
        "edges": [
            {"id": f"e{i:05d}", "type": "relations", "from": f"v{i % n_vertices:05d}",
             "to": f"v{i * 7 % n_vertices:05d}", "properties": {"typeKind": kinds[i % 3]}}
            for i in range(n_edges)
        ],
    }, separators=(",", ":"))


def test_a_load_peaks_little_above_what_it_keeps():
    # a load that decoded the whole document first would peak at about
    # twice what it keeps
    text = generated_graph_json(700, 1400)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = load_graph_json(text)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count + g.edge_count == 2100
    kept, above = held - start, peak - held
    assert above < kept / 2, (kept, above)


def test_equal_numbers_booleans_and_texts_load_as_values_of_their_own_kinds():
    def kinds(g):
        return {
            v.id: (oracles.value_kind(v.properties["n"]), v.properties["n"])
            for v in g.vertices()
        }

    # 1, 1.0 and True are equal dict keys, and "1" equals them loosely
    g = load_graph_json(json.dumps({
        "vertices": [
            {"id": "int", "label": "l", "properties": {"n": 1}},
            {"id": "float", "label": "l", "properties": {"n": 1.0}},
            {"id": "bool", "label": "l", "properties": {"n": True}},
            {"id": "text", "label": "l", "properties": {"n": "1"}},
        ],
        "edges": [],
    }))
    assert kinds(g) == {
        "int": ("integer", 1),
        "float": ("float", 1.0),
        "bool": ("boolean", True),
        "text": ("text", "1"),
    }
    assert all(
        oracles.strict_equal(g.vertex(vid).properties["n"], value)
        for vid, (_, value) in kinds(g).items()
    )
    assert g.vertices_with_property("n", 1) == {"int", "float", "text"}
    assert g.vertices_with_property("n", True) == {"bool"}
    # a CSV cell spells no text that reads as a number
    g = load_graph_csv("_id,_label,n\nint,l,1\nfloat,l,1.0\nbool,l,true\n", E_HEADER)
    assert kinds(g) == {"int": ("integer", 1), "float": ("float", 1.0), "bool": ("boolean", True)}


# values that index_key merges, a few words, and values no vertex holds
MERGED_VALUES = (1, 1.0, "1", "01", "1.0", True, "true", False, "false",
                 "٣", 3, "03", -0.0, 0.0, "-0")
COMMON_VALUES = ("red", "green", 2, 2.5)
ABSENT_VALUES = ("absent", 7, 0.5, "2.25", "RED")


@st.composite
def indexed_graphs(draw) -> PropertyGraph:
    """Vertices whose ``n`` values are often shared, sometimes merged by
    index_key, and sometimes held by one vertex only."""
    vertices = []
    pool = st.sampled_from(MERGED_VALUES + COMMON_VALUES)
    for i in range(draw(st.integers(min_value=1, max_value=16))):
        props = {}
        kind = draw(st.sampled_from(["pool", "unique", "none"]))
        if kind == "pool":
            props["n"] = draw(pool)
        elif kind == "unique":
            props["n"] = draw(st.sampled_from([f"only{i}", 100 + i, 100.5 + i]))
        if draw(st.booleans()):
            props["m"] = draw(pool)
        vertices.append(VertexRecord(f"v{i}", "node", props))
    return PropertyGraph(vertices)


@settings(max_examples=100, deadline=None)
@given(indexed_graphs())
def test_property_lookups_equal_a_scan_of_every_vertex(g):
    for graph in (g, load_graph_json(serialize_graph(g))):
        ids = set(graph.vertex_ids())
        held = {(n, x) for v in graph.vertices() for n, x in v.properties.items()}
        probes = held | {(n, x) for n in ("n", "m", "absent") for x in ABSENT_VALUES}
        probes |= {("n", x) for x in MERGED_VALUES}
        for name, value in probes:
            found = graph.vertices_with_property(name, value)
            scanned = {
                v.id
                for v in graph.vertices()
                if name in v.properties and oracles.loose_equal(v.properties[name], value)
            }
            assert found == scanned, (name, value)
            assert found & ids == scanned and ids & found == scanned
            assert all(vid in found for vid in scanned)
            assert not any(vid in found for vid in ids - scanned)
            assert "absent" not in found


# -- link errors ------------------------------------------------------------


def link_error(vertices_csv: str, edges_csv: str) -> tuple[type, str]:
    """Type and message of the error a CSV load raises."""
    with pytest.raises(Exception) as err:
        load_graph_csv(vertices_csv, edges_csv)
    return type(err.value), str(err.value)


def constructor_error(vertices: list, edges: list) -> tuple[type, str]:
    """Type and message of the error ``PropertyGraph`` raises for records
    built by hand as ``(id, from, to)`` edges between ``l`` vertices."""
    with pytest.raises(Exception) as err:
        PropertyGraph(
            [VertexRecord(vid, "l") for vid in vertices],
            [EdgeRecord(eid, "t", source, target) for eid, source, target in edges],
        )
    return type(err.value), str(err.value)


def test_an_edge_checks_its_endpoints_before_its_id():
    # a missing endpoint and a duplicate id on one edge
    assert constructor_error(["a"], [("e", "a", "a"), ("e", "a", "ghost")]) == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )
    # a missing endpoint and an empty id
    assert constructor_error(["a"], [("", "ghost", "a")]) == (
        ReferentialError, "edge '' references unknown vertex 'ghost'"
    )
    assert constructor_error(["a"], [("", "a", "a")]) == (
        GraphFormatError, "edge id must be non-empty"
    )
    # the first bad edge in file order wins
    assert constructor_error(["a"], [("e", "a", "a"), ("e", "a", "a"), ("f", "a", "ghost")]) == (
        DuplicateIdError, "duplicate edge id 'e'"
    )
    with pytest.raises(ReferentialError, match="edge 'e' references unknown vertex 'ghost'"):
        load_graph_json(
            '{"vertices": [{"id": "a", "label": "l"}], "edges": ['
            '{"id": "e", "type": "t", "from": "a", "to": "a"},'
            ' {"id": "e", "type": "t", "from": "ghost", "to": "a"}]}'
        )
    # a file's edge goes through the same constructor checks
    assert link_error(V_HEADER + "a,l\n", E_HEADER + "e,t,a,a\ne,t,a,ghost\n") == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )


def json_error(vertices: list, edges: list) -> tuple[type, str]:
    """Type and message of the error a JSON load of the arrays raises."""
    with pytest.raises(Exception) as err:
        load_graph_json(json.dumps({"vertices": vertices, "edges": edges}))
    return type(err.value), str(err.value)


def vertex(vid, **props):
    return {"id": vid, "label": "l", "properties": props}


def edge(eid, source, target, **props):
    return {"id": eid, "type": "t", "from": source, "to": target, "properties": props}


def test_a_malformed_record_wins_over_any_earlier_link_error():
    # a missing endpoint on the first edge, and a later record that fails
    # its own checks: a vertex, an edge field, an edge property
    ghost = edge("e", "a", "ghost")
    assert json_error([vertex("a")], [ghost, {"id": "f", "type": "t", "from": 5, "to": "a"}]) == (
        GraphFormatError, "edges[1]: 'from' must be a non-empty string"
    )
    assert json_error([vertex("a"), vertex("a"), {"id": "b"}], [ghost]) == (
        GraphFormatError, "vertices[2]: 'label' must be a non-empty string"
    )
    assert json_error([vertex("a")], [ghost, edge("f", "a", "a", w=[1])]) == (
        GraphFormatError, "edges[1]: property 'w' has unsupported value [1]"
    )
    assert link_error(
        V_HEADER + "a,l\n", "_id,_type,_from,_to,w\ne,t,a,ghost,\nf,t,a,a,1e400\n"
    ) == (GraphFormatError, "edge 'f': property 'w' is inf, not a finite number (line 3)")
    assert link_error(
        "_id,_label,n\na,l,\na,l,\nb,l,1e400\n", E_HEADER + "e,t,a,ghost\n"
    ) == (GraphFormatError, "vertex 'b': property 'n' is inf, not a finite number (line 4)")
    # with no malformed record, the duplicate vertex id comes first, then
    # the edges in file order, each its endpoints before its id
    assert json_error([vertex("a"), vertex("a")], [ghost]) == (
        DuplicateIdError, "duplicate vertex id 'a'"
    )
    assert json_error([vertex("a")], [ghost, edge("e", "ghost2", "a")]) == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )
    assert json_error([vertex("a")], [edge("e", "a", "a"), edge("e", "a", "ghost")]) == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )
    assert json_error([vertex("a")], [edge("e", "ghost", "ghost2")]) == (
        ReferentialError, "edge 'e' references unknown vertex 'ghost'"
    )
    assert json_error([vertex("a")], [edge("e", "a", "a"), edge("e", "a", "a")]) == (
        DuplicateIdError, "duplicate edge id 'e'"
    )


def test_vertex_errors_come_before_any_edge_error():
    assert link_error(V_HEADER + "a,l\na,l\n", E_HEADER + "e,t,a,ghost\ne,t,a,a\n") == (
        DuplicateIdError, "duplicate vertex id 'a'"
    )
    assert link_error(V_HEADER + ",l\na,l\na,l\n", E_HEADER + "e,t,a,ghost\n") == (
        GraphFormatError, "vertex '': 'id' must be a non-empty string (line 2)"
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
    too_large = "is an integer too large to compare as a number"
    with pytest.raises(GraphFormatError, match=f"vertex 'B': property 'n' {too_large}") as err:
        load_graph_csv(f"_id,_label,n\nA,l,1\nB,l,{literal}\n", "_id,_type,_from,_to\n")
    assert err.value.line == 3
    with pytest.raises(GraphFormatError, match=f"edge 'e1': property 'w' {too_large}") as err:
        load_graph_csv("_id,_label\nA,l\n", f"_id,_type,_from,_to,w\ne1,t,A,A,{literal}\n")
    assert err.value.line == 2


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1.5e999"])
def test_csv_rejects_floats_no_float_can_hold(literal):
    # as JSON words the same literal: the float it overflows to
    not_finite = f"is {float(literal)!r}, not a finite number"
    with pytest.raises(GraphFormatError, match=f"vertex 'B': property 'n' {not_finite}"):
        load_graph_csv(f"_id,_label,n\nA,l,1\nB,l,{literal}\n", "_id,_type,_from,_to\n")
    with pytest.raises(GraphFormatError, match=f"edge 'e1': property 'w' {not_finite}"):
        load_graph_csv("_id,_label\nA,l\n", f"_id,_type,_from,_to,w\ne1,t,A,A,{literal}\n")


def test_csv_header_and_row_errors():
    with pytest.raises(GraphFormatError):
        load_graph_csv("_id,_wrong\n", "_id,_type,_from,_to\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph_csv("_id,_label\nA\n", "_id,_type,_from,_to\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError):
        load_graph_csv("", "_id,_type,_from,_to\n")


def test_a_csv_fault_names_the_line_its_row_starts_on():
    # a quoted cell may hold line breaks, so rows and lines part ways
    note = '"two\nlines"'
    with pytest.raises(GraphFormatError, match=r"vertex 'B': 'label' must be") as err:
        load_graph_csv(f"_id,_label,note\nA,l,{note}\n\nB,,x\n", E_HEADER)
    assert err.value.line == 5
    with pytest.raises(GraphFormatError, match=r"edge CSV row has 3 fields") as err:
        load_graph_csv(V_HEADER + "A,l\n", f"_id,_type,_from,_to,note\ne1,t,A,A,{note}\ne2,t,A\n")
    assert err.value.line == 4


def test_a_row_the_csv_reader_refuses_is_a_format_error():
    too_long = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(GraphFormatError, match=r"vertex CSV: field larger than field limit"):
        load_graph_csv(f"_id,_label,n\nA,l,1\nB,l,{too_long}\n", E_HEADER)
    with pytest.raises(GraphFormatError, match=r"edge CSV: new-line character seen") as err:
        load_graph_csv(V_HEADER + "A,l\n", E_HEADER + "e1,t,A,A\ne2,t\r,A,A\n")
    assert err.value.line == 3


def test_csv_directory_loading(tmp_path):
    (tmp_path / "vertices.csv").write_text("_id,_label\nA,l\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("_id,_type,_from,_to\n", encoding="utf-8")
    g = load_graph_path(tmp_path, "csv")
    assert g.vertex_count == 1 and g.edge_count == 0
    with pytest.raises(GraphFormatError):
        load_graph_path(tmp_path / "missing", "csv")


# -- one record check for both formats --------------------------------------


# text a CSV cell can spell: non-empty, and read as no number or bool
CSV_TEXTS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), min_size=1
).filter(lambda text: as_number(text) is None and text not in ("true", "false"))
CSV_VALUES = st.one_of(
    st.sampled_from(["red", "blue"]),  # so that equal all-text maps recur
    CSV_TEXTS,
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
PROPERTY_COLUMNS = ("color", "n", "x, y")


@st.composite
def spellable_records(draw) -> tuple[list[dict], list[dict]]:
    """JSON vertex and edge objects whose every value a CSV cell spells,
    each properties map in column order."""

    def properties() -> dict:
        names = draw(st.lists(st.sampled_from(PROPERTY_COLUMNS), unique=True))
        return {name: draw(CSV_VALUES) for name in PROPERTY_COLUMNS if name in names}

    vertex_ids = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    vertices = [
        {"id": vid, "label": draw(st.sampled_from(["node", "other"])), "properties": properties()}
        for vid in vertex_ids
    ]
    endpoints = st.sampled_from(vertex_ids)
    edges = [
        {"id": f"e{i}", "type": draw(st.sampled_from(["link", "other"])),
         "from": draw(endpoints), "to": draw(endpoints), "properties": properties()}
        for i in range(draw(st.integers(0, 5)))
    ]
    return vertices, edges


def csv_text(fields: tuple[str, ...], records: list[dict]) -> str:
    """The CSV file of ``records``: ``fields`` then a column per property
    name, each value spelled as CSV spells it and an absent one empty."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"_{name}" for name in fields] + list(PROPERTY_COLUMNS))
    for record in records:
        props = record["properties"]
        writer.writerow([record[name] for name in fields] + [
            as_text(props[name]) if name in props else "" for name in PROPERTY_COLUMNS
        ])
    return out.getvalue()


def text_views_are_shared(g: PropertyGraph) -> bool:
    """Whether each set of equal all-text property maps is one object."""
    views: dict[tuple, object] = {}
    for record in all_records(g):
        props = record.properties
        if all(type(value) is str for value in props.values()):
            if views.setdefault(tuple(props.items()), props) is not props:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(spellable_records())
def test_csv_and_json_load_a_record_alike(records):
    vertices, edges = records
    from_json = load_graph_json(json.dumps({"vertices": vertices, "edges": edges}))
    from_csv = load_graph_csv(
        csv_text(("id", "label"), vertices), csv_text(("id", "type", "from", "to"), edges)
    )
    assert oracles.same_graph(from_csv, from_json)
    assert oracles.same_graph(from_csv, PropertyGraph(
        [VertexRecord(v["id"], v["label"], v["properties"]) for v in vertices],
        [EdgeRecord(e["id"], e["type"], e["from"], e["to"], e["properties"]) for e in edges],
    ))
    assert text_views_are_shared(from_json) and text_views_are_shared(from_csv)


# a fault as a change to a valid vertex or edge, and the reason both
# formats give for it; a property value is the literal both files spell
MALFORMED_RECORDS = {
    "empty id": ("vertex", {"id": ""}, "'id' must be a non-empty string"),
    "empty label": ("vertex", {"label": ""}, "'label' must be a non-empty string"),
    "empty type": ("edge", {"type": ""}, "'type' must be a non-empty string"),
    "empty from": ("edge", {"from": ""}, "'from' must be a non-empty string"),
    "empty to": ("edge", {"to": ""}, "'to' must be a non-empty string"),
    "integer no float holds": (
        "vertex", {"n": HUGE_INTEGERS["past-float"]},
        "property 'n' is an integer too large to compare as a number"),
    "overflowing float": ("edge", {"n": "-1e400"}, "property 'n' is -inf, not a finite number"),
}


def json_object(fields: dict[str, str]) -> str:
    """A JSON record of ``fields``, its ``n`` field a property spelled by
    its literal as it stands, or absent when empty."""
    fields = dict(fields)
    literal = fields.pop("n")
    properties = f'{{"n": {literal}}}' if literal else "{}"
    return json.dumps(fields)[:-1] + f', "properties": {properties}}}'


@pytest.mark.parametrize("fault", MALFORMED_RECORDS)
def test_csv_and_json_refuse_a_malformed_record_for_one_reason(fault):
    what, change, reason = MALFORMED_RECORDS[fault]
    vertex = {"id": "a", "label": "l", "n": ""}
    edge = {"id": "e", "type": "t", "from": "a", "to": "a", "n": ""}
    record = vertex if what == "vertex" else edge
    record.update(change)
    with pytest.raises(GraphFormatError) as err:
        load_graph_csv(
            "_id,_label,n\n" + ",".join(vertex.values()) + "\n",
            "_id,_type,_from,_to,n\n" + ",".join(edge.values()) + "\n",
        )
    assert str(err.value) == f"{what} {record['id']!r}: {reason} (line 2)"
    with pytest.raises(GraphFormatError) as err:
        load_graph_json(
            f'{{"vertices": [{json_object(vertex)}], "edges": [{json_object(edge)}]}}'
        )
    assert str(err.value) == f"{'vertices' if what == 'vertex' else 'edges'}[0]: {reason}"
