"""Metamorphic relations on the benchmark's graphs, where no brute-force
oracle can run.

Each graph comes from ``perfbench/workloads.GENERATORS`` and is decided
through ``--source``: the policies' ``Meta`` cuts the source graph down
before the engine is built.  A relation changes the source graph in a
way that cannot change any decision, and compares whole response bytes.
The base responses must also be the ones each request's class expects.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from graphpdp import cli
from graphpdp.pdp import render_response_xml
from graphpdp.request_model import parse_request

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CASES = [(name, seed) for name in ("project_graph", "deep_varlen") for seed in (1, 2)]


def responses(workload, source: Path) -> list[str]:
    """Every request of ``workload`` decided by one engine built as
    ``eval --source`` builds it."""
    args = cli.build_arg_parser().parse_args([
        "eval", "--policies", workload.policy_dir, "--request", "-", "--source", str(source),
    ])
    engine = cli._build_engine(args)
    return [
        render_response_xml(engine.decide(
            parse_request(Path(op.request_file).read_text(encoding="utf-8"))))
        for op in workload.ops
    ]


@pytest.fixture(scope="module", params=CASES, ids=[f"{n}-{s}" for n, s in CASES])
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
