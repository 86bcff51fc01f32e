import http.client
import io
import json
import logging
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from graphpdp import cli
from graphpdp.cli import (
    DECISION_EXIT_CODES,
    EXIT_USAGE,
    DecisionHandler,
    build_server,
    run,
)
from graphpdp.errors import PolicySchemaError
from graphpdp.graph_store import load_graph_path
from graphpdp.pdp import DecisionEngine
from graphpdp.policy_model import load_policy_dir

PERMIT_XML = """\
<Response xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17">
  <Result>
    <Decision>Permit</Decision>
    <Status>
      <StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok"/>
    </Status>
    <PolicyIdentifierList>
      <PolicyIdReference>pmUserToDataObject</PolicyIdReference>
    </PolicyIdentifierList>
  </Result>
</Response>
"""

DEMO_QUERY = """\
MATCH p1 = (s{typeCode:"pmUser"})-[e:accessRelations]->(:tasks)-[*..2]-()
MATCH p2 = ({_key:"1196741133"})-[]-({_key:"1196741778"})-[]-({_key:"1196742142"})
WHERE (e.typeKind = "worksOn" OR e.typeKind = "allocates") AND ALL (x IN nodes(p2) WHERE x IN nodes(p1)) AND ALL (x IN relationships(p2) WHERE x IN relationships(p1))
RETURN p1 IS NOT NULL AS result
"""

METALESS_POLICY = """\
<Policy xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17"
        PolicyId="plain"
        RuleCombiningAlgId="urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable">
  <Rule RuleId="allow_all" Effect="Permit"/>
</Policy>
"""


def eval_args(policy_dir, request_file, graph_file):
    return [
        "eval",
        "--policies",
        str(policy_dir),
        "--request",
        str(request_file),
        "--graph",
        str(graph_file),
    ]


# -- validate ---------------------------------------------------------------


def test_validate_clean_directory(capsys, demo_policy_dir):
    assert run(["validate", "--policies", str(demo_policy_dir)]) == 0
    out = capsys.readouterr().out
    assert "pm_user_to_data_object.xml: OK" in out
    assert out.strip().endswith("1 policies checked, 0 violations")


def test_validate_reports_violations(capsys, tmp_path):
    bad = METALESS_POLICY.replace(
        "first-applicable", "first-applicable-nonsense"
    )
    (tmp_path / "bad.xml").write_text(bad, encoding="utf-8")
    (tmp_path / "ok.xml").write_text(METALESS_POLICY, encoding="utf-8")
    assert run(["validate", "--policies", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.xml: Policy: unsupported combining algorithm" in out
    assert "ok.xml: OK" in out
    assert "2 policies checked, 1 violations" in out


def test_validate_warns_without_failing(capsys, tmp_path, demo_policy_dir):
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    (tmp_path / "a.xml").write_text(text.replace('Effect="Permit"', 'Effect="Deny"'), "utf-8")
    # the same ids again, an ignored attribute, and a label and a type
    # that the Meta does not declare
    b = text.replace('Label="tasks"', 'Label="nosuchlabel" Foo="1"')
    (tmp_path / "b.xml").write_text(b.replace('Type="accessRelations"', 'Type="t"'), "utf-8")
    assert run(["validate", "--policies", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rule = "Policy/Rule[user_access_dataObj]"
    assert lines == [
        "a.xml: OK",
        "b.xml: OK",
        f"b.xml: warning: {rule}/Pattern/Path/Path[2]/Vertex[0]: ignored unknown attribute 'Foo'",
        f"b.xml: warning: {rule}/Pattern/step[1]: Type 't' is not declared in Meta,"
        " so the rule never matches on a Meta subset",
        f"b.xml: warning: {rule}/Pattern/step[2]: Label 'nosuchlabel' is not declared in Meta,"
        " so the rule never matches on a Meta subset",
        "b.xml: warning: PolicyId 'pmUserToDataObject' is already used in a.xml",
        "b.xml: warning: RuleId 'user_access_dataObj' of PolicyId 'pmUserToDataObject'"
        " is already used in a.xml",
        "2 policies checked, 0 violations",
    ]


def test_validate_missing_directory(capsys, tmp_path):
    assert run(["validate", "--policies", str(tmp_path / "ghost")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# -- build-graph ------------------------------------------------------------


def test_build_graph_filters_source(capsys, tmp_path, demo_policy_dir, demo_source_file, demo_graph_file):
    out_file = tmp_path / "subset.json"
    code = run(
        [
            "build-graph",
            "--policies",
            str(demo_policy_dir),
            "--source",
            str(demo_source_file),
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "vertices=6 edges=5\n"
    assert oracles.same_graph(load_graph_path(out_file), load_graph_path(demo_graph_file))
    # serialized form is deterministic: sorted ids, sorted property keys
    data = json.loads(out_file.read_text(encoding="utf-8"))
    ids = [v["id"] for v in data["vertices"]]
    assert ids == sorted(ids)


def test_build_graph_needs_a_meta(capsys, tmp_path, demo_source_file):
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "plain.xml").write_text(METALESS_POLICY, encoding="utf-8")
    code = run(
        [
            "build-graph",
            "--policies",
            str(policy_dir),
            "--source",
            str(demo_source_file),
            "--out",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == EXIT_USAGE
    assert "no loaded policy carries a Meta element" in capsys.readouterr().err


def test_build_graph_refuses_policies_whose_metas_differ(capsys, tmp_path, demo_policy_dir,
                                                         demo_source_file):
    # a.xml keeps no tasks; b.xml is the demo policy, and c.xml lists the
    # same entities as b.xml in another order
    demo = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    tasks = "<xacml4g:VertexEntity>tasks</xacml4g:VertexEntity>"
    objects = "<xacml4g:VertexEntity>dataObjects</xacml4g:VertexEntity>"
    assert demo.count(tasks) == demo.count(objects) == 1
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    files = {
        "a.xml": demo.replace(tasks, "").replace('PolicyId="', 'PolicyId="a-'),
        "b.xml": demo,
        "c.xml": demo.replace(tasks, "@").replace(objects, tasks).replace("@", objects)
        .replace('PolicyId="', 'PolicyId="c-'),
    }
    for name, text in files.items():
        (policy_dir / name).write_text(text, encoding="utf-8")
    out_file = tmp_path / "out.json"
    args = ["build-graph", "--policies", str(policy_dir), "--source", str(demo_source_file),
            "--out", str(out_file)]
    assert run(args) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the policies declare 2 different Meta elements: a.xml; b.xml, c.xml\n"
    )
    assert not out_file.exists()
    # with one Meta, in whatever order its entities are listed, it builds
    (policy_dir / "a.xml").unlink()
    assert run(args) == 0
    assert capsys.readouterr().out == "vertices=6 edges=5\n"


def test_build_graph_bad_source(capsys, tmp_path, demo_policy_dir):
    code = run(
        [
            "build-graph",
            "--policies",
            str(demo_policy_dir),
            "--source",
            str(tmp_path / "ghost.json"),
            "--out",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == EXIT_USAGE


# -- eval -------------------------------------------------------------------


def test_eval_demo_permits(capsys, demo_policy_dir, demo_request_file, demo_graph_file):
    code = run(eval_args(demo_policy_dir, demo_request_file, demo_graph_file))
    assert code == DECISION_EXIT_CODES["Permit"] == 0
    assert capsys.readouterr().out == PERMIT_XML


def test_eval_source_matches_prebuilt_graph(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_source_file
):
    built = tmp_path / "subset.json"
    run(
        [
            "build-graph",
            "--policies",
            str(demo_policy_dir),
            "--source",
            str(demo_source_file),
            "--out",
            str(built),
        ]
    )
    capsys.readouterr()
    assert run(eval_args(demo_policy_dir, demo_request_file, built)) == 0
    via_graph = capsys.readouterr().out
    code = run(
        [
            "eval",
            "--policies",
            str(demo_policy_dir),
            "--request",
            str(demo_request_file),
            "--source",
            str(demo_source_file),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == via_graph == PERMIT_XML


def test_source_refuses_policies_whose_metas_differ(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, demo_source_file
):
    # a.xml is the demo policy without tasks in its Meta, so the subset a.xml
    # would cut has no path for the demo request, and b.xml's has one
    demo = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    tasks = "<xacml4g:VertexEntity>tasks</xacml4g:VertexEntity>"
    assert demo.count(tasks) == 1
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "a.xml").write_text(
        demo.replace(tasks, "").replace('PolicyId="', 'PolicyId="a-'), encoding="utf-8"
    )
    (policy_dir / "b.xml").write_text(demo, encoding="utf-8")
    message = "error: the policies declare 2 different Meta elements: a.xml; b.xml\n"
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 0
    capsys.readouterr()
    source = ["--policies", str(policy_dir), "--source", str(demo_source_file)]
    assert run(["eval", "--request", str(demo_request_file), *source]) == EXIT_USAGE
    assert capsys.readouterr() == ("", message)
    assert run(["serve", "--port", "0", *source]) == EXIT_USAGE
    assert capsys.readouterr() == ("", message)


def test_eval_is_deterministic(capsys, demo_policy_dir, demo_request_file, demo_graph_file):
    args = eval_args(demo_policy_dir, demo_request_file, demo_graph_file)
    run(args)
    first = capsys.readouterr().out
    run(args)
    assert capsys.readouterr().out == first


def test_eval_csv_graph(capsys, fixtures_dir, demo_policy_dir, demo_request_file):
    code = run(
        eval_args(demo_policy_dir, demo_request_file, fixtures_dir / "graphs" / "demo_csv")
        + ["--format", "csv"]
    )
    assert code == 0
    assert capsys.readouterr().out == PERMIT_XML


@pytest.mark.parametrize("graph_format", ["json", "csv"])
def test_eval_rejects_a_graph_with_a_huge_integer(
    capsys, tmp_path, fixtures_dir, demo_policy_dir, demo_request_file, graph_format
):
    # the demo graph, with the edge property the demo rule's filter compares
    # set far past any float
    huge = str(10**400)
    if graph_format == "json":
        graph = tmp_path / "graph.json"
        text = (fixtures_dir / "graphs" / "demo_graph.json").read_text(encoding="utf-8")
        graph.write_text(text.replace('"worksOn"', huge, 1), encoding="utf-8")
    else:
        graph = tmp_path / "csv"
        shutil.copytree(fixtures_dir / "graphs" / "demo_csv", graph)
        edges = graph / "edges.csv"
        text = edges.read_text(encoding="utf-8")
        edges.write_text(text.replace("worksOn", huge, 1), encoding="utf-8")
    code = run(eval_args(demo_policy_dir, demo_request_file, graph) + ["--format", graph_format])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE, captured
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "property 'typeKind'" in captured.err
    assert "too large to compare as a number" in captured.err


def test_eval_refuses_a_csv_vertex_with_an_empty_label(
    capsys, tmp_path, fixtures_dir, demo_policy_dir, demo_request_file
):
    graph = tmp_path / "csv"
    shutil.copytree(fixtures_dir / "graphs" / "demo_csv", graph)
    vertices = graph / "vertices.csv"
    text = vertices.read_text(encoding="utf-8")
    vertices.write_text(text.replace("1196741133,dataObjects,", "1196741133,,", 1), encoding="utf-8")
    code = run(eval_args(demo_policy_dir, demo_request_file, graph) + ["--format", "csv"])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"error: {graph}: vertex '1196741133': 'label' must be a non-empty string (line 2)\n"
    )


def test_eval_deny_rule_first(capsys, fixtures_dir, demo_request_file, demo_graph_file):
    code = run(
        eval_args(
            fixtures_dir / "policies_conflict_deny_first",
            demo_request_file,
            demo_graph_file,
        )
    )
    assert code == DECISION_EXIT_CODES["Deny"] == 1
    assert "<Decision>Deny</Decision>" in capsys.readouterr().out


def test_eval_deny_rule_last(capsys, fixtures_dir, demo_request_file, demo_graph_file):
    code = run(
        eval_args(
            fixtures_dir / "policies_conflict_deny_last",
            demo_request_file,
            demo_graph_file,
        )
    )
    assert code == 0
    assert "<Decision>Permit</Decision>" in capsys.readouterr().out


def test_eval_not_applicable_path(capsys, tmp_path, demo_policy_dir, demo_graph_file, demo_request_file):
    text = demo_request_file.read_text(encoding="utf-8")
    # decoy subject: wrong typeCode, so the pattern never matches
    other = tmp_path / "request.xml"
    other.write_text(text.replace("1196741133", "1196741400"), encoding="utf-8")
    code = run(eval_args(demo_policy_dir, other, demo_graph_file))
    assert code == DECISION_EXIT_CODES["NotApplicable"] == 3
    assert "<Decision>NotApplicable</Decision>" in capsys.readouterr().out


def test_policies_sharing_ids_each_keep_their_own_rules(
    capsys, tmp_path, demo_policy_dir, demo_request, demo_request_file, demo_graph_file
):
    # two policies with the same PolicyId and RuleId: a.xml denies the demo
    # request, b.xml's pattern needs a label no vertex carries; a.xml is
    # loaded first, so its Deny decides
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    assert text.count('Effect="Permit"') == text.count('Label="tasks"') == 1
    (tmp_path / "a.xml").write_text(
        text.replace('Effect="Permit"', 'Effect="Deny"'), encoding="utf-8"
    )
    (tmp_path / "b.xml").write_text(
        text.replace('Label="tasks"', 'Label="nosuchlabel"'), encoding="utf-8"
    )
    policies = load_policy_dir(tmp_path)
    assert [p.policy_id for p in policies] == ["pmUserToDataObject"] * 2
    engine = DecisionEngine(policies, load_graph_path(demo_graph_file))
    response = engine.decide(demo_request)
    assert response.decision.value == "Deny"
    assert response.policy_ids == ("pmUserToDataObject",)

    code = run(eval_args(tmp_path, demo_request_file, demo_graph_file))
    assert code == DECISION_EXIT_CODES["Deny"] == 1
    out = capsys.readouterr().out
    assert "<Decision>Deny</Decision>" in out
    assert "<PolicyIdReference>pmUserToDataObject</PolicyIdReference>" in out


def test_eval_requires_exactly_one_graph_flag(
    capsys, demo_policy_dir, demo_request_file, demo_graph_file, demo_source_file
):
    both = eval_args(demo_policy_dir, demo_request_file, demo_graph_file) + [
        "--source",
        str(demo_source_file),
    ]
    assert run(both) == EXIT_USAGE
    assert "exactly one of --graph/--source" in capsys.readouterr().err
    neither = [
        "eval",
        "--policies",
        str(demo_policy_dir),
        "--request",
        str(demo_request_file),
    ]
    assert run(neither) == EXIT_USAGE


def test_eval_rejects_bad_varlen_cap(capsys, demo_policy_dir, demo_request_file, demo_graph_file):
    args = eval_args(demo_policy_dir, demo_request_file, demo_graph_file)
    assert run(args + ["--varlen-cap", "0"]) == EXIT_USAGE
    assert "--varlen-cap must be >= 1" in capsys.readouterr().err


def test_eval_rejects_request_without_colon(capsys, tmp_path, demo_policy_dir, demo_graph_file, demo_request_file):
    text = demo_request_file.read_text(encoding="utf-8")
    broken = tmp_path / "request.xml"
    broken.write_text(text.replace("_key:1196741133", "justakey"), encoding="utf-8")
    assert run(eval_args(demo_policy_dir, broken, demo_graph_file)) == EXIT_USAGE
    assert "no colon separator" in capsys.readouterr().err


def test_eval_rejects_malformed_request_xml(capsys, tmp_path, demo_policy_dir, demo_graph_file):
    broken = tmp_path / "request.xml"
    broken.write_text("<Request>", encoding="utf-8")
    assert run(eval_args(demo_policy_dir, broken, demo_graph_file)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_broken_policy_directory(capsys, tmp_path, demo_request_file, demo_graph_file):
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    bad = METALESS_POLICY.replace("Effect=\"Permit\"", "Effect=\"Allow\"")
    (policy_dir / "bad.xml").write_text(bad, encoding="utf-8")
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: bad.xml:")
    assert "Effect must be Permit or Deny" in err


def test_eval_rejects_a_graph_nested_too_deeply(capsys, tmp_path, demo_policy_dir, demo_request_file):
    graph = tmp_path / "graph.json"
    graph.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run(eval_args(demo_policy_dir, demo_request_file, graph)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {graph}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("command", ["eval --graph", "eval --source", "serve --graph",
                                     "serve --source", "build-graph --source"])
def test_a_graph_load_error_names_the_file(
    capsys, tmp_path, demo_policy_dir, demo_request_file, command
):
    graph = tmp_path / "graph.json"
    graph.write_text('{"vertices": [1], "edges": []}', encoding="utf-8")
    name, option = command.split()
    args = [name, "--policies", str(demo_policy_dir), option, str(graph)]
    args += {"eval": ["--request", str(demo_request_file)],
             "serve": ["--port", "0"],
             "build-graph": ["--out", str(tmp_path / "out.json")]}[name]
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {graph}: vertices[0]: expected keys ['id', 'label', 'properties']\n"
    )


NOT_UTF8 = b"\xff\xfe{}"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("case", [
    "validate --policies", "eval --policies", "eval --request", "eval --graph",
    "eval --graph csv", "emit-cypher --policies", "emit-cypher --request",
    "build-graph --source", "serve --policies", "serve --graph",
])
def test_a_file_that_is_not_utf8_exits_2_naming_it(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, case
):
    name, option, *csv = case.split()
    policies, request, graph = demo_policy_dir, demo_request_file, demo_graph_file
    if option == "--policies":
        policies = tmp_path / "policies"
        policies.mkdir()
        (policies / "bad.xml").write_bytes(NOT_UTF8)
        # validate names the file by its path, the policy loader by its name
        expected = f"{policies / 'bad.xml'}: not UTF-8" if name == "validate" else "bad.xml: not UTF-8"
    elif option == "--request":
        request = tmp_path / "request.xml"
        request.write_bytes(NOT_UTF8)
        expected = f"{request}: not UTF-8"
    elif csv:
        graph = tmp_path / "graph"
        graph.mkdir()
        (graph / "vertices.csv").write_bytes(NOT_UTF8)
        (graph / "edges.csv").write_text("_id,_type,_from,_to\n", encoding="utf-8")
        expected = f"{graph}: vertex CSV is not UTF-8"
    else:
        graph = tmp_path / "graph.json"
        graph.write_bytes(NOT_UTF8)
        expected = f"{graph}: graph JSON is not UTF-8"
    args = {
        "validate": ["validate", "--policies", str(policies)],
        "eval": eval_args(policies, request, graph) + ["--format", "csv" if csv else "json"],
        "emit-cypher": ["emit-cypher", "--policies", str(policies), "--request", str(request),
                        "--rule", "user_access_dataObj"],
        "build-graph": ["build-graph", "--policies", str(policies), "--source", str(graph),
                        "--out", str(tmp_path / "out.json")],
        "serve": ["serve", "--policies", str(policies), "--graph", str(graph), "--port", "0"],
    }[name]
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}: {DECODE_ERROR}\n"


def nested_condition_policy_dir(tmp_path, demo_policy_dir, depth: int) -> Path:
    """The demo policy with its condition wrapped in ``depth`` one-argument
    ``and`` Applies."""
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    start = text.index("<xacml:Apply")
    end = text.rindex("</xacml:Apply>") + len("</xacml:Apply>")
    opening = '<xacml:Apply FunctionId="xacml4g:1.0:function:and">' * depth
    policy_dir = tmp_path / f"deep{depth}"
    policy_dir.mkdir()
    (policy_dir / "deep.xml").write_text(
        text[:start] + opening + text[start:end] + "</xacml:Apply>" * depth + text[end:],
        encoding="utf-8",
    )
    return policy_dir


@pytest.mark.parametrize("depth", [600, 100_000])
def test_a_condition_nested_too_deeply_is_a_violation(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, depth
):
    policy_dir = nested_condition_policy_dir(tmp_path, demo_policy_dir, depth)
    request = ["--request", str(demo_request_file)]
    commands = {
        "eval": eval_args(policy_dir, demo_request_file, demo_graph_file),
        "serve": ["serve", "--policies", str(policy_dir), "--graph", str(demo_graph_file)],
        "emit-cypher": ["emit-cypher", "--policies", str(policy_dir), *request,
                        "--rule", "user_access_dataObj"],
    }
    too_deep = "Apply nested more than 100 levels deep"
    for name, args in commands.items():
        assert run(args) == EXIT_USAGE, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("error: deep.xml: Policy/Rule[user_access_dataObj]/")
        assert captured.err.endswith(f": {too_deep}\n"), name
    assert run(["validate", "--policies", str(policy_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("deep.xml: Policy/Rule[user_access_dataObj]/PatternCondition/")
    assert lines[0].endswith(f": {too_deep}")
    assert lines[1:] == ["1 policies checked, 1 violations"]


def test_a_condition_at_the_depth_limit_decides(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    # the demo condition is two Applies deep, so 98 wrappers reach the limit
    policy_dir = nested_condition_policy_dir(tmp_path, demo_policy_dir, 98)
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 0
    assert capsys.readouterr().out == PERMIT_XML


def nested_path_policy_dir(tmp_path, demo_policy_dir, depth: int) -> Path:
    """The demo policy with its inner Path wrapped in ``depth`` more Paths."""
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    start = text.index("<xacml4g:Path>", text.index("<xacml4g:Path>") + 1)
    end = text.index("</xacml4g:Path>") + len("</xacml4g:Path>")
    policy_dir = tmp_path / f"paths{depth}"
    policy_dir.mkdir()
    (policy_dir / "deep.xml").write_text(
        text[:start] + "<xacml4g:Path>" * depth + text[start:end]
        + "</xacml4g:Path>" * depth + text[end:],
        encoding="utf-8",
    )
    return policy_dir


def test_a_path_nested_too_deeply_is_a_violation(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    policy_dir = nested_path_policy_dir(tmp_path, demo_policy_dir, 5000)
    too_deep = ": Path nested more than 100 levels deep"
    assert run(["validate", "--policies", str(policy_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("deep.xml: Policy/Rule[user_access_dataObj]/Pattern/Path/Path[2]/")
    assert lines[0].endswith(too_deep)
    assert lines[1:] == ["1 policies checked, 1 violations"]
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: deep.xml: Policy/Rule[user_access_dataObj]/Pattern/")
    assert captured.err.endswith(too_deep + "\n")
    assert captured.err.count("\n") == 1


def test_a_path_at_the_depth_limit_is_the_demo_policy(tmp_path, demo_policy_dir, demo_policy):
    # the demo pattern's Paths are two deep, so 98 wrappers reach the limit
    assert load_policy_dir(nested_path_policy_dir(tmp_path, demo_policy_dir, 98)) == [demo_policy]
    with pytest.raises(PolicySchemaError, match="Path nested more than 100 levels deep"):
        load_policy_dir(nested_path_policy_dir(tmp_path, demo_policy_dir, 99))


DEMO_GRAPH_TEXT = (Path(__file__).resolve().parent.parent / "fixtures" / "graphs"
                   / "demo_graph.json").read_text(encoding="utf-8")
# a placeholder put at a place in the document, which the rendered text
# then replaces with deeply nested JSON
NESTED = "\x00nested"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -0.0, "", "1196741133", "pmUser", "worksOn", "tasks"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def json_places(node):
    """Every (container, key) place inside a decoded JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        yield node, key
        yield from json_places(value)


@st.composite
def mutated_graph_files(draw) -> bytes:
    """The demo graph file with one to three places replaced, deleted or
    copied, then sometimes one place nested deeply, and sometimes a
    stretch of the text replaced by junk that need not be UTF-8."""
    holder = [json.loads(DEMO_GRAPH_TEXT)]
    for _ in range(draw(st.integers(1, 3))):
        places = list(json_places(holder))
        container, key = draw(st.sampled_from(places))
        action = draw(st.sampled_from(["replace", "delete", "copy"]))
        if action == "replace" or container is holder:
            container[key] = draw(json_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, json.loads(json.dumps(container[key])))
        else:
            container[draw(st.text(max_size=4))] = json.loads(json.dumps(container[key]))
    text = json.dumps(holder[0])
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(json_places(holder))))
        container[key] = NESTED
        depth = draw(st.sampled_from([1, 40, 999, 1000, 5000, 100_000]))
        opening, closing = draw(st.sampled_from([("[", "]"), ('{"a":', "}"), ('[{"k":', "}]")]))
        text = json.dumps(holder[0]).replace(
            json.dumps(NESTED), opening * depth + '"leaf"' + closing * depth
        )
    if draw(st.booleans()):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        junk = draw(st.text(st.characters(codec="utf-8"), max_size=8) | st.just("\ud800"))
        text = text[:start] + junk + text[end:]
    return text.encode("utf-8", "surrogatepass")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(content=mutated_graph_files())
def test_eval_gives_any_graph_file_a_defined_exit(tmp_path, demo_policy_dir, demo_request_file,
                                                 content):
    graph = tmp_path / "graph.json"
    graph.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(eval_args(demo_policy_dir, demo_request_file, graph))
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == EXIT_USAGE:
        assert out == ""
        assert err.startswith(f"error: {graph}: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code in DECISION_EXIT_CODES.values(), (code, err)
        assert err == "" and "<Decision>" in out


# -- emit-cypher ------------------------------------------------------------


def test_emit_cypher_demo(capsys, demo_policy_dir, demo_request_file):
    code = run(
        [
            "emit-cypher",
            "--policies",
            str(demo_policy_dir),
            "--request",
            str(demo_request_file),
            "--rule",
            "user_access_dataObj",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == DEMO_QUERY


def test_emit_cypher_unknown_rule(capsys, demo_policy_dir, demo_request_file):
    code = run(
        [
            "emit-cypher",
            "--policies",
            str(demo_policy_dir),
            "--request",
            str(demo_request_file),
            "--rule",
            "ghost",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: no rule with id 'ghost'\n"


def test_emit_cypher_patternless_rule(capsys, tmp_path, demo_request_file):
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "plain.xml").write_text(METALESS_POLICY, encoding="utf-8")
    code = run(
        [
            "emit-cypher",
            "--policies",
            str(policy_dir),
            "--request",
            str(demo_request_file),
            "--rule",
            "allow_all",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: rule 'allow_all' has no pattern\n"


def test_emit_cypher_refuses_an_anonymous_edge_it_cannot_constrain(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    # the demo rule's variable-length edge, which no EdgeId may name, with
    # two alternatives: a valid policy that a property map cannot express
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    edge = '<xacml4g:Edge MaxLength="2" Category="xacml4g:1.0:path-category:edge"/>'
    alternatives = "".join(
        "<xacml:AllOf><xacml:Match MatchId=\"urn:oasis:names:tc:xacml:1.0:function:string-equal\">"
        f"<xacml:AttributeValue>{kind}</xacml:AttributeValue>"
        '<xacml:AttributeDesignator AttributeId="typeKind"'
        ' Category="xacml4g:1.0:path-category:edge"/></xacml:Match></xacml:AllOf>'
        for kind in ("produces", "references")
    )
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "alt.xml").write_text(
        text.replace(edge, f"{edge[:-2]}><xacml:AnyOf>{alternatives}</xacml:AnyOf></xacml4g:Edge>"),
        encoding="utf-8",
    )
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 0
    assert capsys.readouterr().out.endswith(PERMIT_XML)
    code = run(["emit-cypher", "--policies", str(policy_dir), "--request",
                str(demo_request_file), "--rule", "user_access_dataObj"])
    assert code == 1
    assert capsys.readouterr() == ("", (
        "error: rule 'user_access_dataObj': Pattern/step[3]: an edge without an EdgeId"
        " cannot be constrained beyond a property map in Cypher\n"
    ))


def emit_args(policy_dir, request_file) -> list[str]:
    return ["emit-cypher", "--policies", str(policy_dir), "--request", str(request_file),
            "--rule", "user_access_dataObj"]


SUBJECT_MATCH = """\
              <xacml:Match MatchId="urn:oasis:names:tc:xacml:1.0:function:string-equal">
                <xacml:AttributeValue>pmUser</xacml:AttributeValue>
                <xacml:AttributeDesignator AttributeId="typeCode"
                                           Category="xacml4g:1.0:path-category:vertex"/>
              </xacml:Match>
"""


def test_emit_cypher_renders_a_second_equality_on_one_rule_property(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    # the subject must have typeCode pmUser and typeCode extUser: no vertex
    # has both, so the decision is NotApplicable, and so must the query be
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    assert SUBJECT_MATCH in text
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "both.xml").write_text(
        text.replace(SUBJECT_MATCH, SUBJECT_MATCH + SUBJECT_MATCH.replace("pmUser", "extUser")),
        encoding="utf-8",
    )
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 3
    capsys.readouterr()
    assert run(emit_args(policy_dir, demo_request_file)) == 0
    assert capsys.readouterr() == (DEMO_QUERY.replace(
        " AND ALL (x IN nodes", ' AND (s.typeCode = "extUser") AND ALL (x IN nodes', 1), "")


def test_emit_cypher_renders_a_second_value_in_one_request_group(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    # the subject must be both the demo subject and the task vertex
    value = "        <AttributeValue>_key:1196741133</AttributeValue>\n"
    text = demo_request_file.read_text(encoding="utf-8")
    assert value in text
    request = tmp_path / "request.xml"
    request.write_text(text.replace(value, value + value.replace("1133", "1778")), encoding="utf-8")
    assert run(eval_args(demo_policy_dir, request, demo_graph_file)) == 3
    capsys.readouterr()
    assert run(emit_args(demo_policy_dir, request)) == 0
    assert capsys.readouterr() == (DEMO_QUERY.replace(
        'p2 = ({_key:"1196741133"})', 'p2 = (_v0{_key:"1196741133"})'
    ).replace(
        " AND ALL (x IN nodes", ' AND (_v0._key = "1196741778") AND ALL (x IN nodes', 1
    ), "")


@pytest.mark.parametrize("name, renamed", [
    ("p2", {"MATCH p2 =": "MATCH p2_ =", "(p2)": "(p2_)"}),
    ("x", {"(x IN": "(x_ IN", "WHERE x IN": "WHERE x_ IN"}),
], ids=["path variable", "list variable"])
def test_emit_cypher_keeps_its_own_variables_apart_from_declared_names(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, name, renamed
):
    # the demo subject declared under a name the query uses for itself:
    # one name bound twice is a query a Cypher engine refuses
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "named.xml").write_text(
        text.replace('VertexId="s"', f'VertexId="{name}"'), encoding="utf-8"
    )
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 0
    assert capsys.readouterr().out.endswith(PERMIT_XML)
    query = DEMO_QUERY.replace("(s{", f"({name}{{")
    for old, new in renamed.items():
        query = query.replace(old, new)
    assert run(emit_args(policy_dir, demo_request_file)) == 0
    assert capsys.readouterr() == (query, "")


def test_emit_cypher_quotes_a_declared_name_that_is_no_identifier(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    # names with a space, read in the pattern, in a WHERE test on the
    # subject and in the condition: each is printed as a quoted name
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    named = text.replace('VertexId="s"', 'VertexId="my user"').replace(
        'EdgeId="e"', 'EdgeId="my edge"'
    ).replace(SUBJECT_MATCH, SUBJECT_MATCH + SUBJECT_MATCH.replace("pmUser", "extUser"))
    assert named.count('EdgeId="my edge"') == 3
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "named.xml").write_text(named, encoding="utf-8")
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 3
    capsys.readouterr()
    assert run(emit_args(policy_dir, demo_request_file)) == 0
    query = DEMO_QUERY.replace("(s{", "(`my user`{").replace("[e:", "[`my edge`:")
    query = query.replace("e.typeKind", "`my edge`.typeKind").replace(
        " AND ALL (x IN nodes", ' AND (`my user`.typeCode = "extUser") AND ALL (x IN nodes', 1)
    assert capsys.readouterr() == (query, "")


def test_emit_cypher_refuses_a_request_edge_with_a_second_value(
    capsys, tmp_path, demo_policy_dir, demo_request_file
):
    # a trailing edge group whose typeKind is two values: a request edge
    # has no name for WHERE to test the second by
    resource = (
        '<Attributes Category="urn:oasis:names:tc:xacml:3.0:attribute-category:resource">'
    )
    text = demo_request_file.read_text(encoding="utf-8")
    start = text.index(resource)
    end = text.index("</Attributes>", start) + len("</Attributes>")
    request = tmp_path / "request.xml"
    request.write_text(text[:start] + resource.replace(
        ">", ' Type="xacml4g:1.0:path-category:edge">'
    ) + '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:resource:resource-id">'
        "<AttributeValue>typeKind:produces</AttributeValue>"
        "<AttributeValue>typeKind:references</AttributeValue>"
        "</Attribute></Attributes>" + text[end:], encoding="utf-8")
    assert run(emit_args(demo_policy_dir, request)) == 1
    assert capsys.readouterr() == ("", (
        "error: rule 'user_access_dataObj': Request/step[3]: an edge without an EdgeId"
        " cannot be constrained beyond a property map in Cypher\n"
    ))


@pytest.mark.parametrize("plain_name, emitted", [("a.xml", False), ("c.xml", True)])
def test_emit_cypher_takes_the_first_rule_with_the_id_in_load_order(
    capsys, tmp_path, demo_policy_dir, demo_request_file, plain_name, emitted
):
    # a patternless rule with the demo rule's id, loaded before or after
    # the demo policy (b.xml)
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    demo = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    (policy_dir / "b.xml").write_text(demo, encoding="utf-8")
    plain = METALESS_POLICY.replace('RuleId="allow_all"', 'RuleId="user_access_dataObj"')
    (policy_dir / plain_name).write_text(plain, encoding="utf-8")
    code = run(
        [
            "emit-cypher",
            "--policies",
            str(policy_dir),
            "--request",
            str(demo_request_file),
            "--rule",
            "user_access_dataObj",
        ]
    )
    out, err = capsys.readouterr()
    if emitted:
        assert (code, out, err) == (0, DEMO_QUERY, "")
    else:
        assert (code, out) == (1, "")
        assert err == "error: rule 'user_access_dataObj' has no pattern\n"


# -- serve ------------------------------------------------------------------


@contextmanager
def serving(engine, timeout=None):
    """A server for ``engine`` running on its own thread, its handlers'
    request timeout set to ``timeout`` when given; shut down and closed on
    exit."""
    server = build_server(engine, 0)
    if timeout is not None:
        server.RequestHandlerClass.timeout = timeout
    # polled often, so that shutdown() returns soon
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def demo_engine(demo_policy_dir, demo_graph_file):
    return DecisionEngine(load_policy_dir(demo_policy_dir), load_graph_path(demo_graph_file))


@pytest.fixture()
def running_server(demo_engine):
    with serving(demo_engine) as server:
        yield server.server_address


def http_call(address, method, path, body=None):
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def test_serve_health(running_server):
    assert http_call(running_server, "GET", "/health") == (200, "ok")


def test_serve_decision(running_server, demo_request_file):
    body = demo_request_file.read_text(encoding="utf-8")
    status, payload = http_call(running_server, "POST", "/decision", body)
    assert status == 200
    assert payload == PERMIT_XML


def test_serve_rejects_bad_request_body(running_server):
    status, payload = http_call(running_server, "POST", "/decision", "<nope>")
    assert status == 400
    assert payload.startswith("bad request: ")


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_serve_rejects_bad_content_length(running_server, length):
    # http.client sets Content-Length itself, so speak HTTP over a raw socket
    status, body = raw_post(running_server, f"Content-Length: {length}\r\n")
    assert status == b"400", body
    assert body.startswith(b"bad request: "), body


def raw_post(address, head_fields: str, body: bytes = b"") -> tuple[bytes, bytes]:
    """Status code and body of the reply to a hand-written POST /decision."""
    return raw_exchange(address, post_head(head_fields) + body)


def post_head(head_fields: str) -> bytes:
    return f"POST /decision HTTP/1.1\r\nHost: localhost\r\n{head_fields}\r\n".encode("ascii")


def raw_exchange(address, sent: bytes) -> tuple[bytes, bytes]:
    """Status code and body of the reply to ``sent``, read until the server
    closes the connection."""
    status, _, body = split_reply(raw_reply(address, sent))
    return status, body


def raw_reply(address, sent: bytes, close_write: bool = False) -> bytes:
    """Every byte the server sends back for ``sent``, until it closes the
    connection; with ``close_write`` the client closes its side first."""
    reply = b""
    with socket.create_connection(address, timeout=5) as sock:
        try:
            sock.sendall(sent)
            if close_write:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server has answered and closed without reading it all
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass  # the server closes with the unread body still queued
    return reply


def split_reply(reply: bytes) -> tuple[bytes, list[bytes], bytes]:
    """Status code, header lines and body of a reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *fields = head.split(b"\r\n")
    assert status_line, "the server closed the connection without a reply"
    return status_line.split()[1], fields, body


def test_serve_refuses_an_oversized_body_unread(running_server):
    started = time.perf_counter()
    status, body = raw_post(running_server, "Content-Length: 1000000000\r\n", b"<Req")
    assert status == b"413", body
    assert body.startswith(b"request body too large: "), body
    assert time.perf_counter() - started < 4


def test_serve_times_out_a_stalled_body(demo_engine):
    with serving(demo_engine, timeout=0.5) as server:
        # promises 100 bytes, sends 4, then waits
        status, body = raw_post(server.server_address, "Content-Length: 100\r\n", b"<Req")
    assert status == b"408", body
    assert body.startswith(b"request timeout: "), body


@pytest.mark.parametrize(
    "sent",
    [b"POST /decision HTTP/1.1\r\nHost: localhost\r\n", b"POST /deci"],
    ids=["headers", "request line"],
)
def test_serve_times_out_a_stalled_head(demo_engine, sent):
    with serving(demo_engine, timeout=0.5) as server:
        status, body = raw_exchange(server.server_address, sent)
    assert status == b"408", body
    assert body == b"request timeout: request line or headers not received"


def trickled_reply(address, sent: bytes, trickled: bytes) -> tuple[bytes, bytes, float]:
    """Status code and body of the reply to ``sent`` followed by
    ``trickled``, one byte every 0.1 s from a client thread, and the
    seconds from connecting to the end of the reply."""
    stop = threading.Event()

    def trickle(sock):
        for i in range(len(trickled)):
            if stop.wait(0.1):
                return
            try:
                sock.sendall(trickled[i : i + 1])
            except OSError:
                return  # the server has answered and closed

    started = time.monotonic()
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(sent)
        sender = threading.Thread(target=trickle, args=(sock,), daemon=True)
        sender.start()
        reply = b""
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass  # the server closes with trickled bytes still unread
        elapsed = time.monotonic() - started
        stop.set()
        sender.join(timeout=5)
    assert not sender.is_alive()
    status, _, body = split_reply(reply)
    return status, body, elapsed


@pytest.mark.parametrize(
    "sent, trickled, message",
    [
        (
            b"POST /decision HTTP/1.1\r\n",
            b"Host: localhost\r\nX-Pad: " + b"a" * 100,
            b"request timeout: request line or headers not received",
        ),
        (
            post_head("Content-Length: 100\r\n"),
            b"<Request" + b" " * 92,
            b"request timeout: body not received",
        ),
    ],
    ids=["head", "body"],
)
def test_a_trickling_client_gets_its_408_at_the_request_deadline(
    demo_engine, sent, trickled, message
):
    # each byte arrives well inside the 0.5 s timeout, yet the request as
    # a whole is refused once 0.5 s have passed since the connection
    with serving(demo_engine, timeout=0.5) as server:
        status, body, elapsed = trickled_reply(server.server_address, sent, trickled)
    assert (status, body) == (b"408", message)
    assert elapsed < 1.5


class FailingEngine:
    def decide(self, request):
        raise RuntimeError("engine fault")


def test_serve_answers_500_on_an_engine_fault_and_keeps_serving(caplog, demo_request_file):
    with serving(FailingEngine()) as server:
        body = demo_request_file.read_text(encoding="utf-8")
        status, payload = http_call(server.server_address, "POST", "/decision", body)
        assert status == 500
        assert payload.startswith("internal error: ")
        assert http_call(server.server_address, "GET", "/health") == (200, "ok")
    faults = [r for r in caplog.records if r.name == "graphpdp" and r.exc_info]
    assert [r.exc_info[0] for r in faults] == [RuntimeError]


class RecordingEngine:
    """Decides as ``engine`` does, recording the thread of each decision.
    With ``hold_next`` set, the next decision waits for ``release``."""

    def __init__(self, engine):
        self.engine = engine
        self.threads: list[threading.Thread] = []
        self.hold_next = False
        self.held = threading.Event()
        self.release = threading.Event()

    def decide(self, request):
        self.threads.append(threading.current_thread())
        if self.hold_next:
            self.hold_next = False
            self.held.set()
            self.release.wait(timeout=5)
        return self.engine.decide(request)


def test_serve_answers_sequential_connections_on_one_thread(demo_engine, demo_request_file):
    engine = RecordingEngine(demo_engine)
    body = demo_request_file.read_bytes()
    with serving(engine) as server:
        for _ in range(2):
            # read until the server closes, by which time its thread is idle
            status, reply = raw_post(server.server_address, f"Content-Length: {len(body)}\r\n", body)
            assert (status, reply.decode("utf-8")) == (b"200", PERMIT_XML)
    first, second = engine.threads
    assert first is second


def test_a_stalled_connection_does_not_delay_another_client(demo_engine, demo_request_file):
    body = demo_request_file.read_text(encoding="utf-8")
    with serving(demo_engine, timeout=3) as server:
        # leaves one idle thread, which the stalled connection takes
        assert http_call(server.server_address, "POST", "/decision", body) == (200, PERMIT_XML)
        with socket.create_connection(server.server_address, timeout=5) as stalled:
            stalled.sendall(post_head("Content-Length: 100\r\n") + b"<Req")
            started = time.perf_counter()
            assert http_call(server.server_address, "POST", "/decision", body) == (200, PERMIT_XML)
            assert time.perf_counter() - started < 1.5


def test_no_handler_thread_outlives_a_closed_server(demo_engine, demo_request_file):
    engine = RecordingEngine(demo_engine)
    body = demo_request_file.read_bytes()
    head = f"Content-Length: {len(body)}\r\n"
    held_replies = []
    with serving(engine) as server:
        engine.hold_next = True
        client = threading.Thread(
            target=lambda: held_replies.append(raw_post(server.server_address, head, body)),
            daemon=True,
        )
        client.start()
        assert engine.held.wait(timeout=5)
        # the first thread is busy, so this connection starts a second one,
        # which is idle once it has answered
        status, reply = raw_post(server.server_address, head, body)
        assert (status, reply.decode("utf-8")) == (b"200", PERMIT_XML)
    engine.release.set()  # only now, after server_close, does the busy thread answer
    busy, idle = engine.threads
    assert busy is not idle
    for thread in (client, busy, idle):
        thread.join(timeout=5)
        assert not thread.is_alive(), thread
    assert held_replies == [(b"200", PERMIT_XML.encode("utf-8"))]


@pytest.mark.parametrize("engine_kind", ["demo", "failing"])
def test_serve_answers_after_a_client_leaves_before_its_reply(
    demo_engine, demo_request_file, engine_kind
):
    engine, expected = {"demo": (demo_engine, b"200"), "failing": (FailingEngine(), b"500")}[
        engine_kind
    ]
    body = demo_request_file.read_bytes()
    head = f"Content-Length: {len(body)}\r\n"
    with serving(engine) as server:
        for _ in range(2):
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(post_head(head) + body)  # and leaves without reading
            assert raw_post(server.server_address, head, body)[0] == expected
        assert http_call(server.server_address, "GET", "/health") == (200, "ok")


def test_serve_process_answers_and_exits_on_sigint(
    demo_policy_dir, demo_graph_file, demo_request_file
):
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )
    env.pop("PYTHONUNBUFFERED", None)  # serve must flush its line to a pipe itself
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphpdp", "serve", "--policies", str(demo_policy_dir),
         "--graph", str(demo_graph_file), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert select.select([proc.stdout], [], [], 20)[0], "serve printed no line"
        line = proc.stdout.readline()
        assert line.startswith("listening on http://127.0.0.1:"), line
        address = ("127.0.0.1", int(line.rsplit(":", 1)[1]))
        body = demo_request_file.read_text(encoding="utf-8")
        for _ in range(2):
            assert http_call(address, "POST", "/decision", body) == (200, PERMIT_XML)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=5)


def test_request_log_lines_are_formatted_only_for_debug(caplog):
    handler = object.__new__(DecisionHandler)  # no connection needed
    handler.client_address = ("127.0.0.1", 1)
    caplog.set_level(logging.INFO, logger="graphpdp")
    handler.log_message("%d", "not a number")  # would raise if formatted
    caplog.set_level(logging.DEBUG, logger="graphpdp")
    handler.log_message('"%s" %s', "GET /health HTTP/1.1", "200")
    assert [r.getMessage() for r in caplog.records] == [
        '127.0.0.1 - "GET /health HTTP/1.1" 200'
    ]


def test_serve_unknown_paths(running_server):
    assert http_call(running_server, "GET", "/nope")[0] == 404
    assert http_call(running_server, "POST", "/nope", "x")[0] == 404


DEMO_BODY = (
    Path(__file__).resolve().parent.parent / "fixtures" / "requests" / "access_data_object.xml"
).read_bytes()
DEMO_POST = post_head(f"Content-Length: {len(DEMO_BODY)}\r\n") + DEMO_BODY
GET_HEALTH = b"GET /health HTTP/1.0\r\n\r\n"


def header_fields(count: int, value_bytes: int) -> bytes:
    return b"".join(b"X-Field-%d: %s\r\n" % (i, b"v" * value_bytes) for i in range(count))


# (sent, whether the client then closes its side, status); the ids say
# what each row sends
STATUS_TABLE = {
    "request line over 65536 bytes": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", False, b"414"),
    "header line over 65536 bytes": (
        b"GET /health HTTP/1.0\r\n" + header_fields(1, 70_000) + b"\r\n", False, b"431"),
    "head over 65536 bytes": (
        b"GET /health HTTP/1.0\r\n" + header_fields(20, 4000) + b"\r\n", False, b"431"),
    "101 header fields": (
        b"GET /health HTTP/1.0\r\n" + header_fields(101, 1) + b"\r\n", False, b"431"),
    "method PUT": (b"PUT /decision HTTP/1.0\r\nContent-Length: 0\r\n\r\n", False, b"501"),
    "HTTP/2.0": (b"GET /health HTTP/2.0\r\n\r\n", False, b"505"),
    "one-word request line": (b"GARBAGE\r\n\r\n", False, b"400"),
    "request line without a version": (b"GET /health\r\n\r\n", False, b"400"),
    "malformed version": (b"GET /health HTTP/one\r\n\r\n", False, b"400"),
    "header line without a colon": (
        b"GET /health HTTP/1.0\r\nNoColonHere\r\n\r\n", False, b"400"),
    "two different Content-Lengths": (
        post_head(f"Content-Length: {len(DEMO_BODY)}\r\nContent-Length: {len(DEMO_BODY) + 1}\r\n")
        + DEMO_BODY, False, b"400"),
    "EOF inside the headers": (b"GET /health HTTP/1.0\r\nHost: localhost\r\n", True, b"400"),
    "EOF inside the request line": (b"POST /deci", True, b"400"),
    "EOF inside the body": (post_head("Content-Length: 100\r\n") + b"<Req", True, b"400"),
    "Content-Length of 5000 digits": (
        post_head(f"Content-Length: {'9' * 5000}\r\n"), False, b"413"),
    "the same Content-Length twice": (
        post_head(f"Content-Length: {len(DEMO_BODY)}\r\nContent-Length: {len(DEMO_BODY)}\r\n")
        + DEMO_BODY, False, b"200"),
    "bare LF line ends": (b"GET /health HTTP/1.0\n\n", False, b"200"),
}


@pytest.mark.parametrize("row", sorted(STATUS_TABLE))
def test_serve_status_table(running_server, row):
    sent, close_write, expected = STATUS_TABLE[row]
    status, head_fields, body = split_reply(raw_reply(running_server, sent, close_write))
    assert status == expected, body
    assert b"Content-Type: text/plain; charset=utf-8" in head_fields or status == b"200"
    assert head_fields[-1] == b"Content-Length: %d" % len(body)


def test_a_client_that_sends_nothing_gets_no_reply_and_frees_its_thread(demo_engine):
    engine = RecordingEngine(demo_engine)
    with serving(engine) as server:
        assert raw_exchange(server.server_address, DEMO_POST)[0] == b"200"
        # the one handler thread, idle again, takes this connection
        assert raw_reply(server.server_address, b"", close_write=True) == b""
        assert raw_exchange(server.server_address, DEMO_POST)[0] == b"200"
    first, second = engine.threads
    assert first is second


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_serve_reads_a_head_whose_end_arrives_in_pieces(running_server, cut):
    head_end = DEMO_POST.index(b"\r\n\r\n") + 4
    pieces = [DEMO_POST[: head_end - cut - 1], DEMO_POST[head_end - cut - 1: head_end - 1],
              DEMO_POST[head_end - 1: head_end], DEMO_POST[head_end:]]
    reply = b""
    with socket.create_connection(running_server, timeout=5) as sock:
        for piece in pieces:
            sock.sendall(piece)
            time.sleep(0.02)  # so each piece is a recv of its own
        while chunk := sock.recv(4096):
            reply += chunk
    status, _, body = split_reply(reply)
    assert (status, body.decode("utf-8")) == (b"200", PERMIT_XML)


def raw_requests():
    """Byte strings a client might send in place of a request."""
    truncated = st.sampled_from([DEMO_POST, GET_HEALTH]).flatmap(
        lambda sent: st.integers(1, len(sent)).map(lambda n: sent[:n])
    )
    long_lines = st.builds(
        lambda where, n: {
            "target": b"GET /" + b"a" * n + b" HTTP/1.0\r\n\r\n",
            "field": b"GET /health HTTP/1.0\r\nX: " + b"a" * n + b"\r\n\r\n",
            "fields": b"GET /health HTTP/1.0\r\n" + header_fields(n // 600, 30) + b"\r\n",
        }[where],
        st.sampled_from(["target", "field", "fields"]),
        st.integers(60_000, 70_000),
    )
    junk = st.binary(min_size=1, max_size=300)
    in_head = st.builds(
        lambda at, inserted: DEMO_POST[:at] + inserted + DEMO_POST[at:],
        st.integers(0, DEMO_POST.index(b"\r\n\r\n")),
        st.binary(min_size=1, max_size=20).filter(lambda b: any(c > 127 for c in b)),
    )
    lengths = st.one_of(
        st.sampled_from(["", "-1", "abc", "1e3", "0x10", " 12 ", "9" * 5000, "0" * 5000 + "1"]),
        st.integers(0, 3000).map(str),
        st.integers(0, 10**25).map(str),
    )
    bad_length = st.builds(
        lambda value, body: post_head(f"Content-Length: {value}\r\n") + body,
        lengths,
        st.sampled_from([b"", DEMO_BODY[:10], DEMO_BODY]),
    )
    not_xml = st.binary(max_size=400).map(
        lambda body: post_head(f"Content-Length: {len(body)}\r\n") + body
    )
    return st.one_of(truncated, long_lines, junk, in_head, bad_length, not_xml)


def test_serve_answers_any_bytes_with_a_defined_status(demo_engine):
    statuses = {b"200", b"400", b"404", b"408", b"413", b"414", b"431", b"501", b"505"}
    # a short timeout, since a truncated request left open waits for it
    with serving(demo_engine, timeout=0.1) as server:
        errors = []
        server.handle_error = lambda request, client_address: errors.append(client_address)

        @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(sent=raw_requests(), close_write=st.booleans())
        def exchange(sent, close_write):
            status, _, body = split_reply(raw_reply(server.server_address, sent, close_write))
            assert status in statuses, body

        exchange()
        assert errors == []
        assert http_call(server.server_address, "GET", "/health") == (200, "ok")


def test_the_benchmark_tracer_hooks_are_looked_up_at_call_time(
    monkeypatch, running_server
):
    # perfbench/tracing.py wraps these three attributes of a running service
    assert "do_POST" in DecisionHandler.__dict__
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [(DecisionHandler, "do_POST"), (cli, "parse_request"),
                        (cli, "render_response_xml")]:
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    body = DEMO_BODY.decode("utf-8")
    assert http_call(running_server, "POST", "/decision", body) == (200, PERMIT_XML)
    assert calls == ["do_POST", "parse_request", "render_response_xml"]


@pytest.mark.parametrize("port", ["70000", "-1", "busy"])
def test_serve_on_a_bad_or_busy_port_exits_2(capsys, demo_policy_dir, demo_graph_file, port):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        if port == "busy":
            port = str(taken.getsockname()[1])
        code = run(["serve", "--policies", str(demo_policy_dir), "--graph",
                    str(demo_graph_file), "--port", port])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: "), err
    assert err.count("\n") == 1, err


def test_serve_flag_conflict(capsys, demo_policy_dir, demo_graph_file, demo_source_file):
    code = run(
        [
            "serve",
            "--policies",
            str(demo_policy_dir),
            "--graph",
            str(demo_graph_file),
            "--source",
            str(demo_source_file),
        ]
    )
    assert code == EXIT_USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_console_entry_point(tmp_path, demo_policy_dir, demo_request_file, demo_graph_file):
    # Run the entry declared in [project.scripts] as its own process, through
    # a launcher that does what pip's console-script wrapper does, so the
    # repo's code is exercised without an installed package.
    tomllib = pytest.importorskip("tomllib")
    repo = Path(__file__).resolve().parent.parent
    with open(repo / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "graphpdp" in scripts, "pyproject.toml declares no graphpdp script"
    module, attr = scripts["graphpdp"].split(":")
    launcher = tmp_path / "graphpdp"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )

    proc = subprocess.run(
        [sys.executable, str(launcher)]
        + eval_args(demo_policy_dir, demo_request_file, demo_graph_file),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PERMIT_XML, proc.stderr
