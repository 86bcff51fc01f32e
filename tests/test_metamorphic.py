"""Metamorphic relations on the benchmark's graphs, where no brute-force
oracle can run.

Each graph comes from ``perfbench/workloads.GENERATORS`` and is decided
through ``--source``: the policies' ``Meta`` cuts the source graph down
before the engine is built.  A relation changes the source graph, or the
route to the engine, in a way that cannot change any decision, or, for
monotonicity, cannot take a Permit away, and compares whole response
bytes.  The base responses must also be the ones each request's class
expects.
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from graphpdp import cli
from graphpdp.path_matcher import DEFAULT_VARLEN_CAP
from graphpdp.pdp import render_response_xml
from graphpdp.policy_model import load_policy_dir
from graphpdp.request_model import parse_request

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CASES = [(name, seed) for name in ("project_graph", "deep_varlen") for seed in (1, 2)]
PROJECT_CASES = [case for case in CASES if case[0] == "project_graph"]
PERMIT = "<Decision>Permit</Decision>"


def responses(workload, graph: Path, *options: str, route: str = "--source") -> list[str]:
    """Every request of ``workload`` decided by one engine built as
    ``eval`` builds it with ``graph`` read through ``route`` and the
    other ``options``."""
    args = cli.build_arg_parser().parse_args([
        "eval", "--policies", workload.policy_dir, "--request", "-", route, str(graph), *options,
    ])
    engine = cli._build_engine(args)
    return [
        render_response_xml(engine.decide(
            parse_request(Path(op.request_file).read_text(encoding="utf-8"))))
        for op in workload.ops
    ]


def case_ids(cases) -> list[str]:
    return [f"{name}-{seed}" for name, seed in cases]


@pytest.fixture(scope="module", params=CASES, ids=case_ids(CASES))
def case(request, tmp_path_factory):
    name, seed = request.param
    work = tmp_path_factory.mktemp(f"{name}-{seed}")
    workload = workloads.GENERATORS[name](work, seed)
    doc = json.loads(Path(workload.graph_file).read_text(encoding="utf-8"))
    base = responses(workload, Path(workload.graph_file))
    assert base == [op.expected for op in workload.ops]
    return workload, seed, doc, base, work


def write_graph(work: Path, name: str, doc: dict) -> Path:
    path = work / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def shuffled_bijection(ids: list[str], rng: random.Random) -> dict[str, str]:
    renamed = ids[:]
    rng.shuffle(renamed)
    return dict(zip(ids, renamed))


def test_renaming_every_id_and_reversing_the_records_changes_no_response(case):
    # id order sets the order of the search, not its outcome
    workload, seed, doc, base, work = case
    rng = random.Random(seed)
    vertex_id = shuffled_bijection([v["id"] for v in doc["vertices"]], rng)
    edge_id = shuffled_bijection([e["id"] for e in doc["edges"]], rng)
    renamed = {
        "vertices": [dict(v, id=vertex_id[v["id"]]) for v in reversed(doc["vertices"])],
        "edges": [
            dict(e, id=edge_id[e["id"]], **{"from": vertex_id[e["from"]], "to": vertex_id[e["to"]]})
            for e in reversed(doc["edges"])
        ],
    }
    assert vertex_id != dict(zip(vertex_id, vertex_id))
    assert responses(workload, write_graph(work, "renamed.json", renamed)) == base


def test_a_disjoint_copy_of_the_graph_changes_no_response(case):
    # the copy holds no vertex a request pins, and no edge joins it to
    # the original, so no request match and no rule match through one
    # changes
    workload, seed, doc, base, work = case
    keys = {v["properties"]["_key"] for v in doc["vertices"]}

    def fresh_key(key: str) -> str:
        # one digit longer than every generated key, so never equal to one
        return "9" + key

    assert not keys & set(map(fresh_key, keys))
    copy = {
        "vertices": doc["vertices"] + [
            dict(v, id=f"copy-{v['id']}",
                 properties=dict(v["properties"], _key=fresh_key(v["properties"]["_key"])))
            for v in doc["vertices"]
        ],
        "edges": doc["edges"] + [
            dict(e, id=f"copy-{e['id']}", **{"from": f"copy-{e['from']}", "to": f"copy-{e['to']}"})
            for e in doc["edges"]
        ],
    }
    assert responses(workload, write_graph(work, "copied.json", copy)) == base


def test_eval_through_source_answers_as_eval_on_the_built_graph(case):
    # one view, two routes: the Meta cut made while the engine is built
    # equals the graph build-graph writes
    workload, seed, doc, base, work = case
    built = work / "built.json"
    code = cli.run([
        "build-graph", "--policies", workload.policy_dir, "--source", workload.graph_file,
        "--out", str(built),
    ])
    assert code == 0
    assert responses(workload, built, route="--graph") == base


def permits(base: list[str]) -> list[int]:
    """The positions of the Permit responses, of which there are some."""
    found = [i for i, response in enumerate(base) if PERMIT in response]
    assert found
    return found


@pytest.mark.parametrize("case", PROJECT_CASES, ids=case_ids(PROJECT_CASES), indirect=True)
def test_adding_edges_of_a_meta_type_keeps_every_permit(case):
    # the demo policy is one Permit rule under first-applicable, so a new
    # edge can add rule matches but never take one away; half the new
    # edges start or end at a vertex of a Permit request's path
    workload, seed, doc, base, work = case
    rng = random.Random(seed)
    (meta,) = {policy.meta for policy in load_policy_dir(workload.policy_dir)}
    visible = [v["id"] for v in doc["vertices"] if v["label"] in meta.vertex_entities]
    on_path = [
        value
        for i in permits(base)
        for group in parse_request(
            Path(workload.ops[i].request_file).read_text(encoding="utf-8")).path_groups
        for _, name, value in group.values
        if name == "_key"  # a project_graph vertex's id is its _key
    ]
    kinds = ("worksOn", "allocates", "observes", "produces", "references")
    added = []
    for n in range(400):
        ends = [rng.choice(on_path if n % 2 else visible), rng.choice(visible)]
        rng.shuffle(ends)
        added.append({
            "id": f"added-{n}", "type": rng.choice(meta.edge_entities), "from": ends[0],
            "to": ends[1], "properties": {"typeKind": rng.choice(kinds)},
        })
    grown_doc = dict(doc, edges=doc["edges"] + added)
    grown = responses(workload, write_graph(work, "grown.json", grown_doc))
    assert [grown[i] for i in permits(base)] == [base[i] for i in permits(base)]


@pytest.mark.parametrize("case", PROJECT_CASES, ids=case_ids(PROJECT_CASES), indirect=True)
def test_raising_the_varlen_cap_keeps_every_permit(case):
    workload, seed, doc, base, work = case
    cap = str(2 * DEFAULT_VARLEN_CAP)
    raised = responses(workload, Path(workload.graph_file), "--varlen-cap", cap)
    assert [raised[i] for i in permits(base)] == [base[i] for i in permits(base)]


def test_raising_the_varlen_cap_keeps_every_permit_of_an_unbounded_step(tmp_path):
    # deep_varlen's one Permit rule walks an unbounded step from its
    # anchor, so the cap sets which trails exist.  Asked about core edges
    # whose tail the anchor reaches along links in fewer hops than the
    # default cap, every request is a Permit, and a larger cap only adds
    # trails
    workload = workloads.GENERATORS["deep_varlen"](tmp_path, 1)
    doc = json.loads(Path(workload.graph_file).read_text(encoding="utf-8"))
    (policy,) = load_policy_dir(workload.policy_dir)
    ((anchor_match,),) = policy.rules[0].pattern.steps[0].constraints.any_of
    links = sorted((e["from"], e["to"]) for e in doc["edges"] if e["type"] == "links")
    hops = {anchor_match.literal: 0}
    for depth in range(DEFAULT_VARLEN_CAP):
        hops.update({b: depth + 1 for a, b in links if hops.get(a) == depth and b not in hops})
    # a shortest path to the tail and the edge itself are one trail
    reached = [(a, b) for a, b in links if hops.get(a, DEFAULT_VARLEN_CAP) < DEFAULT_VARLEN_CAP]
    asked = random.Random(1).sample(reached, 16)
    ops = []
    for i, keys in enumerate(asked):
        request = tmp_path / f"reached-{i}.xml"
        request.write_text(workloads.request_xml(list(keys)), encoding="utf-8")
        ops.append(workloads.Op("permit", str(request), ""))
    reached_workload = replace(workload, ops=ops)
    base = responses(reached_workload, Path(workload.graph_file))
    assert permits(base) == list(range(len(asked)))
    cap = str(2 * DEFAULT_VARLEN_CAP)
    assert responses(reached_workload, Path(workload.graph_file), "--varlen-cap", cap) == base
