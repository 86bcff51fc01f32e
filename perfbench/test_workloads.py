"""Checks on the benchmark's own generators and tracer.

The benchmark counts a response as correct when it equals the one its
request class implies.  These tests check that argument on instances
small enough for the brute-force oracle in ``tests/oracles.py``: engine
decision, oracle decision and class decision must all agree.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from graphpdp import cli, graph_store, path_matcher, pdp, policy_model, request_model  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

CLASS_DECISION = {
    "permit": "Permit",
    "exhaustive": "NotApplicable",
    "absent": "NotApplicable",
    "unreachable": "NotApplicable",
}

SMALL = {
    "project_graph": dict(n_pm=6, n_ext=4, n_task=8, n_doc=12, per_class=2),
    "deep_varlen": dict(core=7, islands=2, dropped=3),
}


def build_engine(workload: workloads.Workload) -> pdp.DecisionEngine:
    policies = policy_model.load_policy_dir(workload.policy_dir)
    graph = graph_store.load_graph_path(workload.graph_file)
    if workload.from_source:
        meta = next(p.meta for p in policies if p.meta is not None)
        graph = graph_store.build_source_subset(meta, graph)
    return pdp.DecisionEngine(policies, graph)


def small(name: str, tmp_path: Path, seed: int) -> workloads.Workload:
    return workloads.GENERATORS[name](tmp_path / name, seed, **SMALL[name])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_engine_oracle_and_class_agree(name, seed, tmp_path):
    workload = small(name, tmp_path, seed)
    engine = build_engine(workload)
    (policy,) = engine.policies
    (rule,) = policy.rules
    rule_plan = pdp.compile_rule(rule)
    assert {op.cls for op in workload.ops} == set(workload.shares)
    for op in workload.ops:
        request = request_model.parse_request(Path(op.request_file).read_text(encoding="utf-8"))
        response = engine.decide(request)
        request_plan = pdp.compile_request_path(request.path_groups)
        applies = oracles.intersection_oracle(engine.graph, rule_plan, request_plan)
        oracle_decision = rule.effect if applies else "NotApplicable"
        assert response.decision.value == oracle_decision == CLASS_DECISION[op.cls], op
        assert pdp.render_response_xml(response) == op.expected


def test_demo_expects_the_pinned_permit_bytes(tmp_path):
    workload = workloads.demo(tmp_path / "demo", 0)
    (op,) = workload.ops
    assert op.expected.startswith("<Response") and "<Decision>Permit</Decision>" in op.expected
    request = request_model.parse_request(Path(op.request_file).read_text(encoding="utf-8"))
    assert pdp.render_response_xml(build_engine(workload).decide(request)) == op.expected


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_follow_the_seed(name, tmp_path):
    first = small(name, tmp_path / "a", 7).inputs_digest
    again = small(name, tmp_path / "b", 7).inputs_digest
    other = small(name, tmp_path / "c", 8).inputs_digest
    assert first == again != other


def test_meta_drops_labels_and_types(tmp_path):
    workload = small("project_graph", tmp_path, 1)
    source = graph_store.load_graph_path(workload.graph_file)
    visible = build_engine(workload).graph
    assert {v.label for v in source.vertices()} - {v.label for v in visible.vertices()}
    assert {e.type for e in source.edges()} - {e.type for e in visible.edges()}


def test_tracer_counts_match_the_engine_and_uninstall_restores(tmp_path):
    workload = small("project_graph", tmp_path, 1)
    engine = build_engine(workload)
    rule_plan = pdp.compile_rule(engine.policies[0].rules[0])
    all_rule_matches = len(list(path_matcher.match_plan(engine.graph, rule_plan)))
    modules = {"cli": cli, "graph_store": graph_store, "path_matcher": path_matcher,
               "pdp": pdp, "policy_model": policy_model, "request_model": request_model}
    originals = {(m, a): getattr(modules[m], a)
                 for m, a in (("pdp", "check_intersection"), ("path_matcher", "match_plan"),
                              ("request_model", "parse_request"))}
    exhaustive = [op for op in workload.ops if op.cls == "exhaustive"]
    untraced = [pdp.render_response_xml(engine.decide(request_model.parse_request(
        Path(op.request_file).read_text(encoding="utf-8")))) for op in exhaustive]

    tracer = Tracer()
    tracer.install(modules)
    try:
        traced = []
        for i, op in enumerate(exhaustive):
            tracer.decision = f"decide-{i}"
            xml = Path(op.request_file).read_text(encoding="utf-8")
            traced.append(tracer.call("decide", lambda x: pdp.render_response_xml(
                engine.decide(request_model.parse_request(x))), xml))
        tracer.decision = "setup-0"
        build_engine(workload)
    finally:
        tracer.uninstall()

    assert traced == untraced
    assert {k: getattr(modules[k[0]], k[1]) for k in originals} == originals
    metrics = layer_metrics(tracer, [f"decide-{i}" for i in range(len(exhaustive))],
                            [], ["setup-0"], [])
    assert metrics["path_matcher.rule_matches"][0] == all_rule_matches
    assert metrics["path_matcher.request_matches"][0] == 1
    assert metrics["path_matcher.filter_calls"][0] == all_rule_matches
    assert metrics["path_matcher.useful_ratio"][0] == 0
    assert 0 < metrics["trace.unattributed_share"][0] < 0.5
