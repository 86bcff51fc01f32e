"""End-to-end gate: one test per shipped guarantee.

Each test here states a user-visible promise (demo decision, conflict
resolution by rule order, emitted query structure, oracle agreement,
function coverage, flat latency, graceful rejection) and checks it at
full strength; the unit suites cover the same ground in finer grain.
"""

import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from filters import eval_tree
import graphpdp
from graphpdp import uris
from graphpdp.cli import run
from graphpdp.errors import PolicySchemaError, UnknownFunctionError
from graphpdp.graph_store import EdgeRecord, PropertyGraph, VertexRecord
from graphpdp.path_matcher import check_intersection, match_plan
from graphpdp.pattern_compiler import (
    _REGISTRY,
    MATCH_REGISTRY,
    QueryPlan,
    element_check,
    render_pattern,
    translate_function,
)
from graphpdp.pdp import MATCH, NO_MATCH, DecisionEngine, match_target
from graphpdp.policy_model import (
    Apply,
    ConstraintSet,
    Designator,
    EdgeStep,
    Literal,
    MatchConstraint,
    Policy,
    Rule,
    VertexStep,
    parse_policy,
)
from graphpdp.request_model import parse_request

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

# the same intersection query as a Cypher author working directly against
# the demo dataset would write it, with the entity labels spelled onto the
# subject and resource endpoints; the emitter leaves those two vertices
# label-free because the policy pattern never declares labels for them
HANDWRITTEN_QUERY = """\
MATCH p1 = (s:dataObjects{typeCode:"pmUser"})-[e1:accessRelations]->(:tasks)-[*..2]-(:dataObjects)
MATCH p2 = ({_key:"1196741133"})-[]-({_key:"1196741778"})-[]-({_key:"1196742142"})
WHERE e1.typeKind="worksOn" OR e1.typeKind="allocates" AND ALL (x IN nodes(p2) WHERE x IN nodes(p1)) AND ALL (x IN relationships(p2) WHERE x IN relationships(p1))
RETURN p1 IS NOT NULL AS result
"""


def test_demo_request_permitted_end_to_end(
    demo_policy_dir, demo_request_file, demo_graph_file
):
    argv = [
        "eval",
        "--policies",
        str(demo_policy_dir),
        "--request",
        str(demo_request_file),
        "--graph",
        str(demo_graph_file),
    ]
    command = [shutil.which("graphpdp") or ""]
    if not command[0]:
        command = [sys.executable, "-m", "graphpdp"]
    started = time.perf_counter()
    proc = subprocess.run(command + argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PERMIT_XML
    assert elapsed < 1.0, f"demo eval took {elapsed:.2f}s"


def test_rule_order_resolves_conflicts(
    capsys, fixtures_dir, demo_request_file, demo_graph_file
):
    def decide(policy_dir):
        code = run(
            [
                "eval",
                "--policies",
                str(policy_dir),
                "--request",
                str(demo_request_file),
                "--graph",
                str(demo_graph_file),
            ]
        )
        return code, capsys.readouterr().out

    code, out = decide(fixtures_dir / "policies_conflict_deny_first")
    assert code == 1
    assert "<Decision>Deny</Decision>" in out
    code, out = decide(fixtures_dir / "policies_conflict_deny_last")
    assert code == 0
    assert "<Decision>Permit</Decision>" in out


def test_emitted_query_structure(capsys, demo_policy_dir, demo_request_file):
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
    emitted = oracles.normalize_query(
        oracles.parse_emitted_query(capsys.readouterr().out)
    )
    wanted = oracles.normalize_query(
        oracles.parse_emitted_query(HANDWRITTEN_QUERY)
    )
    assert emitted["containment"] == wanted["containment"] == (("p2", "p1"), ("p2", "p1"))
    assert emitted["filter"] == wanted["filter"]
    assert emitted["p2"] == wanted["p2"]
    assert len(emitted["p1"]) == len(wanted["p1"]) == 5
    for position, (got, want) in enumerate(zip(emitted["p1"], wanted["p1"])):
        if position in (0, 4):
            # documented deviation: labels the policy never declares are
            # not invented, while the handwritten form names them
            assert want["label"] == "dataObjects" and got["label"] is None
            got, want = dict(got, label=None), dict(want, label=None)
        assert got == want


def test_matcher_agrees_with_brute_force_oracles():
    runs = []

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def compare(data):
        graph = data.draw(strategies.graphs())
        plan = data.draw(strategies.plans(graph))
        request_plan = data.draw(strategies.request_plans(graph))
        assert oracles.binding_keys(
            match_plan(graph, plan, varlen_cap=3), plan
        ) == oracles.binding_keys(oracles.plan_match_oracle(graph, plan, varlen_cap=3))
        assert check_intersection(
            graph, plan, request_plan, varlen_cap=3
        ) == oracles.intersection_oracle(graph, plan, request_plan, varlen_cap=3)
        runs.append(1)

    started = time.perf_counter()
    compare()
    elapsed = time.perf_counter() - started
    assert len(runs) >= 500
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_condition_function_set_is_complete_and_closed():
    expected = {
        "and",
        "or",
        "equal",
        "not-equal",
        "greater-than",
        "greater-than-or-equal",
        "less-than",
        "less-than-or-equal",
        "string-equal-ignore-case",
        "string-contains",
        "string-starts-with",
    }
    assert set(_REGISTRY) == {
        f"xacml4g:1.0:function:{name}" for name in expected
    }
    assert len(_REGISTRY) == 11

    graph = PropertyGraph([VertexRecord("v", "signs", {"score": 7, "word": "Amber"})])
    binding = (("v",), (), {"x": "v"})
    ref = Designator("score", uris.CAT_PATH_VERTEX, "x")
    word = Designator("word", uris.CAT_PATH_VERTEX, "x")
    probes = {
        uris.FN_EQUAL: (ref, Literal("7"), True),
        uris.FN_NOT_EQUAL: (ref, Literal("8"), True),
        uris.FN_GREATER_THAN: (ref, Literal("6.5"), True),
        uris.FN_GREATER_THAN_OR_EQUAL: (ref, Literal("7"), True),
        uris.FN_LESS_THAN: (ref, Literal("10"), True),
        uris.FN_LESS_THAN_OR_EQUAL: (ref, Literal("6"), False),
        uris.FN_STRING_EQUAL_IGNORE_CASE: (word, Literal("amber"), True),
        uris.FN_STRING_CONTAINS: (word, Literal("mbe"), True),
        uris.FN_STRING_STARTS_WITH: (word, Literal("Am"), True),
    }
    for fn, (left, right, expected_result) in probes.items():
        translate_function(fn)
        comparison = Apply(fn, (left, right))
        assert eval_tree(binding, comparison, graph) is expected_result, fn
    yes = Apply(uris.FN_EQUAL, (ref, Literal("7")))
    no = Apply(uris.FN_EQUAL, (ref, Literal("0")))
    assert eval_tree(binding, Apply(uris.FN_OR, (no, yes)), graph)
    assert not eval_tree(binding, Apply(uris.FN_AND, (no, yes)), graph)

    # anything outside the set: rejected up front, Indeterminate if forced
    with pytest.raises(UnknownFunctionError):
        translate_function("xacml4g:1.0:function:regex-match")
    bad_policy = CHAIN_POLICY.replace(
        "</xacml4g:Pattern>",
        "</xacml4g:Pattern><xacml4g:PatternCondition>"
        '<Apply FunctionId="xacml4g:1.0:function:regex-match">'
        "<AttributeValue>a</AttributeValue><AttributeValue>b</AttributeValue>"
        "</Apply></xacml4g:PatternCondition>",
    )
    with pytest.raises(PolicySchemaError) as caught:
        parse_policy(bad_policy)
    assert any("unknown function" in v.reason for v in caught.value.violations)

    subject_key = Designator("_key", uris.CAT_PATH_VERTEX, "s")
    forced = Apply("xacml4g:1.0:function:regex-match", (subject_key, Literal("b")))
    policy = parse_policy(CHAIN_POLICY)
    rule = policy.rules[0]
    hacked = Rule(rule.rule_id, rule.effect, rule.target, rule.pattern, forced)
    chain_graph, _ = chain_setup(2)
    one_rule = Policy(policy.policy_id, uris.ALG_FIRST_APPLICABLE, rules=(hacked,))
    engine = DecisionEngine([one_rule], chain_graph)
    decision = engine.decide(parse_request(chain_request(1))).decision
    assert decision.value == "Indeterminate"


def test_match_function_set_is_complete_and_closed(demo_request_file):
    # the table's keys are the functions validation admits
    assert set(MATCH_REGISTRY) == set(uris.MATCH_FUNCTIONS)
    assert len(MATCH_REGISTRY) == 2

    # a target, an element check and the emitted Cypher read one entry
    request = parse_request(
        demo_request_file.read_text(encoding="utf-8").replace("access-do", "Amber")
    )
    record = VertexRecord("v", "signs", {"word": "Amber"})
    probes = [
        (uris.MATCH_STRING_EQUAL, "Amber", True, '{word:"Amber"}'),
        (uris.MATCH_STRING_EQUAL, "amber", False, '{word:"amber"}'),
        (uris.MATCH_STRING_EQUAL_IGNORE_CASE, "aMBER", True, 'toLower(v.word) = toLower("aMBER")'),
        (uris.MATCH_STRING_EQUAL_IGNORE_CASE, "Ambe", False, 'toLower(v.word) = toLower("Ambe")'),
    ]
    for fn, literal, holds, cypher in probes:
        on_word = MatchConstraint(fn, literal, "word", uris.CAT_PATH_VERTEX)
        on_action = MatchConstraint(fn, literal, uris.ATTR_ACTION_ID, uris.CAT_ACTION)
        assert match_target(ConstraintSet(((on_action,),)), request) == (MATCH if holds else NO_MATCH)
        step = VertexStep("v", constraints=ConstraintSet(((on_word,),)))
        assert element_check(step)(record) is holds, (fn, literal)
        extras: list[str] = []
        text = render_pattern(QueryPlan((step, EdgeStep(), VertexStep("w"))), extras)
        assert cypher in text + " ".join(extras), (fn, literal)


RESOURCE_EDGE_TAIL = """\
          <xacml4g:Edge EdgeId="r" Type="taskDataRelations" Direction="from"
                        Category="urn:oasis:names:tc:xacml:3.0:attribute-category:resource"/>
          <xacml4g:Vertex/>
"""


def resource_edge_setup(tmp_path, demo_policy_dir, demo_request_file, kind, final=True):
    """The demo policy with its pattern ending in a resource edge (or,
    with ``final`` false, with its first edge the resource), and the demo
    request with its resource group an edge of typeKind ``kind``."""
    text = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    tail = (
        '          <xacml4g:Edge MaxLength="2" Category="xacml4g:1.0:path-category:edge"/>\n'
        '          <xacml4g:Vertex Category="urn:oasis:names:tc:xacml:3.0:attribute-category:resource"/>\n'
    )
    assert tail in text
    text = text.replace(tail, RESOURCE_EDGE_TAIL)
    if not final:
        first = 'Category="xacml4g:1.0:path-category:edge"/>\n        <xacml4g:Path>'
        assert first in text
        text = text.replace(first, f'Category="{uris.CAT_RESOURCE}"/>\n        <xacml4g:Path>')
        text = text.replace(RESOURCE_EDGE_TAIL, RESOURCE_EDGE_TAIL.replace(
            uris.CAT_RESOURCE, uris.CAT_PATH_EDGE))
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / "edge.xml").write_text(text, encoding="utf-8")

    request = demo_request_file.read_text(encoding="utf-8")
    group = f'<Attributes Category="{uris.CAT_RESOURCE}">'
    assert group in request and "_key:1196742142" in request
    request = request.replace(group, group.replace(">", f' Type="{uris.CAT_PATH_EDGE}">')).replace(
        "_key:1196742142", f"typeKind:{kind}")
    request_file = tmp_path / "request.xml"
    request_file.write_text(request, encoding="utf-8")
    return policy_dir, request_file


@pytest.mark.parametrize("kind, code, decision", [
    ("produces", 0, "Permit"), ("references", 3, "NotApplicable"),
])
def test_an_edge_is_a_protected_resource_end_to_end(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, kind, code, decision
):
    # the task vertex 1196741778 produces the design spec through td-1; no
    # edge it touches is a reference
    policy_dir, request = resource_edge_setup(tmp_path, demo_policy_dir, demo_request_file, kind)
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert capsys.readouterr().out == "edge.xml: OK\n1 policies checked, 0 violations\n"
    assert run(["eval", "--policies", str(policy_dir), "--request", str(request),
                "--graph", str(demo_graph_file)]) == code
    out = capsys.readouterr().out
    assert f"<Decision>{decision}</Decision>" in out
    if decision == "Permit":
        assert out == PERMIT_XML
    assert run(["emit-cypher", "--policies", str(policy_dir), "--request", str(request),
                "--rule", "user_access_dataObj"]) == 0
    assert capsys.readouterr().out == (
        'MATCH p1 = (s{typeCode:"pmUser"})-[e:accessRelations]->(:tasks)-[r:taskDataRelations]->()\n'
        'MATCH p2 = ({_key:"1196741133"})-[]-({_key:"1196741778"})-[{typeKind:"%s"}]-()\n'
        'WHERE (e.typeKind = "worksOn" OR e.typeKind = "allocates")'
        " AND ALL (x IN nodes(p2) WHERE x IN nodes(p1))"
        " AND ALL (x IN relationships(p2) WHERE x IN relationships(p1))\n"
        "RETURN p1 IS NOT NULL AS result\n" % kind
    )


def test_a_resource_edge_must_be_the_final_edge(
    capsys, tmp_path, demo_policy_dir, demo_request_file
):
    policy_dir, _ = resource_edge_setup(
        tmp_path, demo_policy_dir, demo_request_file, "produces", final=False
    )
    assert run(["validate", "--policies", str(policy_dir)]) == 1
    assert capsys.readouterr().out == (
        "edge.xml: Policy/Rule[user_access_dataObj]/Pattern:"
        " a resource edge must be the final edge of the pattern\n"
        "1 policies checked, 1 violations\n"
    )


CHAIN_POLICY = """\
<Policy xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17"
        xmlns:xacml4g="xacml4g:1.0"
        PolicyId="chainWalk"
        RuleCombiningAlgId="urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable">
  <xacml4g:Meta>
    <xacml4g:Vertices>
      <xacml4g:VertexEntity>chain</xacml4g:VertexEntity>
    </xacml4g:Vertices>
    <xacml4g:Edges>
      <xacml4g:EdgeEntity>link</xacml4g:EdgeEntity>
    </xacml4g:Edges>
  </xacml4g:Meta>
  <Rule RuleId="walk" Effect="Permit">
    <xacml4g:Pattern PatternId="chainReach">
      <xacml4g:Path>
        <xacml4g:Vertex Category="urn:oasis:names:tc:xacml:1.0:subject-category:access-subject"
                        VertexId="s">
          <AnyOf>
            <AllOf>
              <Match MatchId="urn:oasis:names:tc:xacml:1.0:function:string-equal">
                <AttributeValue>c0</AttributeValue>
                <AttributeDesignator AttributeId="_key"
                                     Category="xacml4g:1.0:path-category:vertex"/>
              </Match>
            </AllOf>
          </AnyOf>
        </xacml4g:Vertex>
        <xacml4g:Edge MaxLength="8" Category="xacml4g:1.0:path-category:edge"/>
        <xacml4g:Vertex Category="urn:oasis:names:tc:xacml:3.0:attribute-category:resource"/>
      </xacml4g:Path>
    </xacml4g:Pattern>
  </Rule>
</Policy>
"""


def chain_setup(edges: int):
    graph = PropertyGraph(
        [VertexRecord(f"c{i}", "chain", {"_key": f"c{i}"}) for i in range(edges + 1)],
        [EdgeRecord(f"l{i}", "link", f"c{i}", f"c{i+1}", {}) for i in range(edges)],
    )
    return graph, parse_policy(CHAIN_POLICY)


def chain_request(length: int) -> str:
    groups = [
        '    <Attributes Category="urn:oasis:names:tc:xacml:1.0:subject-category:access-subject">\n'
        '      <Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:subject:subject-id">\n'
        "        <AttributeValue>_key:c0</AttributeValue>\n"
        "      </Attribute>\n"
        "    </Attributes>"
    ]
    for i in range(1, length):
        groups.append(
            '    <Attributes Category="xacml4g:1.0:path-category:vertex">\n'
            '      <Attribute AttributeId="xacml4g:1.0:path:vertex-id">\n'
            f"        <AttributeValue>_key:c{i}</AttributeValue>\n"
            "      </Attribute>\n"
            "    </Attributes>"
        )
    groups.append(
        '    <Attributes Category="urn:oasis:names:tc:xacml:3.0:attribute-category:resource">\n'
        '      <Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:resource:resource-id">\n'
        f"        <AttributeValue>_key:c{length}</AttributeValue>\n"
        "      </Attribute>\n"
        "    </Attributes>"
    )
    body = "\n".join(groups)
    return (
        '<Request xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17"\n'
        '         xmlns:xacml4g="xacml4g:1.0">\n'
        "  <xacml4g:PathAttributes>\n"
        f"{body}\n"
        "  </xacml4g:PathAttributes>\n"
        "</Request>\n"
    )


def test_decision_latency_flat_across_path_lengths():
    graph, policy = chain_setup(8)
    engine = DecisionEngine([policy], graph)
    requests = {
        length: parse_request(chain_request(length)) for length in range(1, 6)
    }
    for request in requests.values():
        assert engine.decide(request).decision.value == "Permit"

    medians = {}
    for length, request in requests.items():
        samples = []
        for _ in range(100):
            started = time.perf_counter()
            engine.decide(request)
            samples.append(time.perf_counter() - started)
        medians[length] = statistics.median(samples)
    ratio = medians[5] / medians[1]
    assert ratio < 5.0, f"median latency grew {ratio:.2f}x from length 1 to 5"


def test_malformed_inputs_are_rejected_cleanly(
    capsys, tmp_path, demo_policy_dir, demo_graph_file, demo_request_file
):
    # value without the name:value separator
    request = tmp_path / "request.xml"
    request.write_text(
        demo_request_file.read_text(encoding="utf-8").replace(
            "_key:1196741133", "justakey"
        ),
        encoding="utf-8",
    )
    code = run(
        [
            "eval",
            "--policies",
            str(demo_policy_dir),
            "--request",
            str(request),
            "--graph",
            str(demo_graph_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "no colon separator" in captured.err

    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    source = demo_policy_dir / "pm_user_to_data_object.xml"
    text = source.read_text(encoding="utf-8")

    # inverted length range
    (policy_dir / "a.xml").write_text(
        text.replace('MaxLength="2"', 'MinLength="3" MaxLength="2"'), encoding="utf-8"
    )
    # condition function outside the supported set
    (policy_dir / "b.xml").write_text(
        text.replace("xacml4g:1.0:function:or", "xacml4g:1.0:function:xor"),
        encoding="utf-8",
    )
    # condition left behind after its pattern is removed
    start = text.index("<xacml4g:Pattern")
    end = text.index("</xacml4g:Pattern>") + len("</xacml4g:Pattern>")
    (policy_dir / "c.xml").write_text(text[:start] + text[end:], encoding="utf-8")

    code = run(["validate", "--policies", str(policy_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "length range [3, 2] is inverted" in captured.out
    assert "unknown function 'xacml4g:1.0:function:xor'" in captured.out
    assert "PatternCondition requires a Pattern" in captured.out
    assert "3 policies checked" in captured.out

    # and the same broken policies refuse to evaluate, without a traceback
    code = run(
        [
            "eval",
            "--policies",
            str(policy_dir),
            "--request",
            str(demo_request_file),
            "--graph",
            str(demo_graph_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: a.xml:")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_are_the_names_the_readme_lists():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    # the bullet list after the line that names graphpdp.__all__
    after = library.split("`graphpdp.__all__`", 1)[1].split("\n\n", 1)[1]
    listing = after.split("\n\n", 1)[0]
    assert listing.startswith("- ")
    listed = re.findall(r"`(\w+)`", listing)
    assert len(listed) == len(set(listed)) > 30
    assert sorted(graphpdp.__all__) == sorted(listed)
    for name in listed:
        assert getattr(graphpdp, name) is not None, name
