import http.client
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from graphpdp.cli import (
    DECISION_EXIT_CODES,
    EXIT_USAGE,
    DecisionHandler,
    build_server,
    run,
)
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
    assert load_graph_path(out_file) == load_graph_path(demo_graph_file)
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
    assert code == 1
    assert "no loaded policy carries a Meta element" in capsys.readouterr().err


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


# -- serve ------------------------------------------------------------------


@pytest.fixture()
def running_server(demo_policy_dir, demo_graph_file):
    policies = load_policy_dir(demo_policy_dir)
    engine = DecisionEngine(policies, load_graph_path(demo_graph_file))
    server = build_server(engine, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


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
    head = f"POST /decision HTTP/1.1\r\nHost: localhost\r\n{head_fields}\r\n"
    reply = b""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head.encode("ascii") + body)
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass  # the server closes with the unread body still queued
    status_line, _, rest = reply.partition(b"\r\n")
    return status_line.split()[1], rest.partition(b"\r\n\r\n")[2]


def test_serve_refuses_an_oversized_body_unread(running_server):
    started = time.perf_counter()
    status, body = raw_post(running_server, "Content-Length: 1000000000\r\n", b"<Req")
    assert status == b"413", body
    assert body.startswith(b"request body too large: "), body
    assert time.perf_counter() - started < 4


def test_serve_times_out_a_stalled_body(demo_policy_dir, demo_graph_file):
    engine = DecisionEngine(load_policy_dir(demo_policy_dir), load_graph_path(demo_graph_file))
    server = build_server(engine, 0)
    server.RequestHandlerClass.timeout = 0.5
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # promises 100 bytes, sends 4, then waits
        status, body = raw_post(server.server_address, "Content-Length: 100\r\n", b"<Req")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert status == b"408", body
    assert body.startswith(b"request timeout: "), body


class FailingEngine:
    def decide(self, request):
        raise RuntimeError("engine fault")


def test_serve_answers_500_on_an_engine_fault_and_keeps_serving(caplog, demo_request_file):
    server = build_server(FailingEngine(), 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = demo_request_file.read_text(encoding="utf-8")
        status, payload = http_call(server.server_address, "POST", "/decision", body)
        assert status == 500
        assert payload.startswith("internal error: ")
        assert http_call(server.server_address, "GET", "/health") == (200, "ok")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    faults = [r for r in caplog.records if r.name == "graphpdp" and r.exc_info]
    assert [r.exc_info[0] for r in faults] == [RuntimeError]


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
