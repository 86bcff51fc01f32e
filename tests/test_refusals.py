"""Refusal branches, end to end: each fault a policy or a request can
carry is reported in its own words by ``validate``, ``eval`` and
``serve``, and a target the engine cannot evaluate decides Indeterminate.

Every policy here is the demo policy with one change.
"""

from dataclasses import replace

import pytest

from graphpdp import uris
from graphpdp.cli import run
from graphpdp.graph_store import load_graph_path
from graphpdp.pdp import DecisionEngine, render_response_xml
from graphpdp.errors import PolicySchemaError
from graphpdp.policy_model import (
    MAX_ALTERNATIVES,
    MAX_JOINED_MATCHES,
    ConstraintSet,
    Designator,
    MatchConstraint,
    load_policy_dir,
    parse_policy,
    validate_policy,
)
from test_cli import PERMIT_XML, eval_args, http_call, serving

DEMO_POLICY = "pm_user_to_data_object.xml"
RULE = '<xacml:Rule Effect="Permit" RuleId="user_access_dataObj">'
META_END = "</xacml4g:Meta>"
MATCH = '<xacml:Match MatchId="urn:oasis:names:tc:xacml:1.0:function:string-equal">'
VALUE = "<xacml:AttributeValue>pmUser</xacml:AttributeValue>"
TASKS = '<xacml4g:Vertex Label="tasks" Category="xacml4g:1.0:path-category:vertex"/>'
VARLEN = '<xacml4g:Edge MaxLength="2" Category="xacml4g:1.0:path-category:edge"/>'
DESIGNATOR = (
    '<xacml:AttributeDesignator AttributeId="typeKind"\n'
    '                                     Category="xacml4g:1.0:path-category:edge"\n'
    '                                     EdgeId="e"/>'
)
OR = '<xacml:Apply FunctionId="xacml4g:1.0:function:or">'
RULE_PATH = "Policy/Rule[user_access_dataObj]"
SUBJECT_MATCH = f"{RULE_PATH}/Pattern/Path/Vertex[0]/AnyOf/AllOf[0]"


def element(text: str, tag: str) -> str:
    """The first ``tag`` element of ``text``, from its start tag to its end tag."""
    start = text.index(f"<{tag}")
    end = text.index(f"</{tag}>", start) + len(f"</{tag}>")
    return text[start:end]


def any_of(attribute: str, category: str, *values: str) -> str:
    """One AnyOf holding one AllOf per value, each matching the attribute
    to that value."""
    return "<xacml:AnyOf>" + "".join(
        f'<xacml:AllOf><xacml:Match MatchId="{uris.MATCH_STRING_EQUAL}">'
        f"<xacml:AttributeValue>{value}</xacml:AttributeValue>"
        f'<xacml:AttributeDesignator AttributeId="{attribute}"'
        f' Category="{category}"/></xacml:Match></xacml:AllOf>'
        for value in values
    ) + "</xacml:AnyOf>"


def type_codes(count: int) -> str:
    """An AnyOf of ``count`` subject type codes."""
    return any_of("typeCode", uris.CAT_PATH_VERTEX, *(f"t{i}" for i in range(count)))


# name -> (text to change, its replacement, the one violation); a callable
# change is given the demo text and gives the changed text
POLICY_FAULTS = {
    "two policy Targets": (
        META_END, META_END + "<xacml:Target/><xacml:Target/>", "Policy: more than one Target"),
    "two Metas": (
        lambda text: text.replace(META_END, META_END + element(text, "xacml4g:Meta")),
        None, "Policy: more than one Meta"),
    "two rule Targets": (
        RULE, RULE + "<xacml:Target/><xacml:Target/>", f"{RULE_PATH}: more than one Target"),
    "two Patterns": (
        lambda text: text.replace(
            "</xacml4g:Pattern>", "</xacml4g:Pattern>" + element(text, "xacml4g:Pattern")),
        None, f"{RULE_PATH}: more than one Pattern"),
    "two PatternConditions": (
        lambda text: text.replace(
            "</xacml4g:PatternCondition>",
            "</xacml4g:PatternCondition>" + element(text, "xacml4g:PatternCondition")),
        None, f"{RULE_PATH}: more than one PatternCondition"),
    "two AttributeValues": (
        VALUE, VALUE + VALUE, f"{SUBJECT_MATCH}: Match has more than one AttributeValue"),
    "two AttributeDesignators": (
        VALUE, VALUE + '<xacml:AttributeDesignator AttributeId="a" Category="c"/>',
        f"{SUBJECT_MATCH}: Match has more than one AttributeDesignator"),
    "element in Meta": (
        "<xacml4g:Vertices>", "<xacml4g:Extra/><xacml4g:Vertices>",
        "Policy/Meta: unexpected element 'Extra' in Meta"),
    "element in Vertices": (
        "<xacml4g:VertexEntity>tasks", "<xacml4g:Extra/><xacml4g:VertexEntity>tasks",
        "Policy/Meta: unexpected element 'Extra' in Vertices"),
    "element in Edges": (
        "<xacml4g:EdgeEntity>accessRelations",
        "<xacml4g:Extra/><xacml4g:EdgeEntity>accessRelations",
        "Policy/Meta: unexpected element 'Extra' in Edges"),
    "element instead of AnyOf": (
        "<xacml:AnyOf>", "<xacml:AllOf/><xacml:AnyOf>",
        f"{RULE_PATH}/Pattern/Path/Vertex[0]: unexpected element 'AllOf', expected AnyOf"),
    "element in AnyOf": (
        "<xacml:AllOf>", "<xacml:Match/><xacml:AllOf>",
        f"{RULE_PATH}/Pattern/Path/Vertex[0]: unexpected element 'Match' in AnyOf"),
    "empty AnyOf": (
        "<xacml:AnyOf>", "<xacml:AnyOf/><xacml:AnyOf>",
        f"{RULE_PATH}/Pattern/Path/Vertex[0]: empty AnyOf"),
    "empty AllOf": ("<xacml:AllOf>", "<xacml:AllOf/><xacml:AllOf>", f"{SUBJECT_MATCH}: empty AllOf"),
    "AnyOfs past the alternatives bound": (
        "</xacml:AnyOf>", "</xacml:AnyOf>" + type_codes(MAX_ALTERNATIVES + 1),
        f"{RULE_PATH}/Pattern/Path/Vertex[0]: AnyOfs join to more than"
        f" {MAX_ALTERNATIVES} alternatives"),
    # 9 two-way AnyOfs then 2,000 one-way ones: 512 alternatives of 2,010
    # Matches each, refused at the tenth one-way AnyOf
    "AnyOfs past the Matches bound": (
        "</xacml:AnyOf>", "</xacml:AnyOf>" + type_codes(2) * 9 + type_codes(1) * 2000,
        f"{RULE_PATH}/Pattern/Path/Vertex[0]: AnyOfs join to more than"
        f" {MAX_JOINED_MATCHES} Matches"),
    "element in AllOf": (
        MATCH, "<xacml:AnyOf/>" + MATCH,
        f"{SUBJECT_MATCH}: unexpected element 'AnyOf', expected Match"),
    "element in Match": (
        VALUE, VALUE + "<xacml:Apply/>", f"{SUBJECT_MATCH}: unexpected element 'Apply' in Match"),
    "Match without AttributeValue": (
        VALUE, "", f"{SUBJECT_MATCH}: Match needs an AttributeValue and an AttributeDesignator"),
    "element in Path": (
        TASKS, "<xacml4g:Step/>" + TASKS,
        f"{RULE_PATH}/Pattern/Path/Path[2]: unexpected element 'Step' in Path"),
    "element in Apply": (
        lambda text: text.replace(DESIGNATOR, DESIGNATOR + "<xacml:Function/>", 1), None,
        f"{RULE_PATH}/PatternCondition/Apply/Apply[0]: unexpected element 'Function' in Apply"),
    "missing attribute": (
        ' PatternId="userToDataObjectAccess"', "",
        f"{RULE_PATH}/Pattern: missing required attribute 'PatternId'"),
    "non-integer length": (
        'MaxLength="2"', 'MaxLength="two"',
        f"{RULE_PATH}/Pattern/Path/Path[2]/Edge[1]: attribute MaxLength='two' is not an integer"),
    "wrong root": (
        "xacml:Policy", "xacml:PolicySet",
        f"Policy: root element is '{{{uris.XACML3_NS}}}PolicySet', expected Policy"),
    "empty Path": (
        TASKS, "<xacml4g:Path/>" + TASKS,
        f"{RULE_PATH}/Pattern/Path/Path[2]/Path[0]: empty Path"),
    "Pattern without one Path": (
        "</xacml4g:Pattern>", "<xacml4g:Path/></xacml4g:Pattern>",
        f"{RULE_PATH}/Pattern: Pattern must contain exactly one Path"),
    "missing RuleId": (
        ' RuleId="user_access_dataObj"', "",
        "Policy/Rule[rule[0]]: missing required attribute 'RuleId'"),
    "xacml4g element in Rule": (
        RULE, RULE + "<xacml4g:Extra/>", f"{RULE_PATH}: unexpected xacml4g element 'Extra'"),
    "vertex category": (
        TASKS, TASKS.replace("path-category:vertex", "path-category:edge"),
        f"{RULE_PATH}/Pattern/step[2]: invalid vertex category 'xacml4g:1.0:path-category:edge'"),
    "edge category": (
        VARLEN, VARLEN.replace("path-category:edge", "path-category:vertex"),
        f"{RULE_PATH}/Pattern/step[3]: invalid edge category 'xacml4g:1.0:path-category:vertex'"),
    "direction": (
        'Direction="from"', 'Direction="both"',
        f"{RULE_PATH}/Pattern/step[1]: invalid direction 'both'"),
    "designator category": (
        lambda text: text.replace(DESIGNATOR, DESIGNATOR.replace(
            uris.CAT_PATH_EDGE, uris.CAT_RESOURCE), 1), None,
        f"{RULE_PATH}/PatternCondition: condition reads 'e' with category"
        f" '{uris.CAT_RESOURCE}', not '{uris.CAT_PATH_EDGE}'"),
    "designator with a VertexId": (
        lambda text: text.replace(DESIGNATOR, DESIGNATOR.replace('EdgeId="e"', 'VertexId="e"'), 1),
        None,
        f"{RULE_PATH}/PatternCondition/Apply/Apply[0]/AttributeDesignator[0]: designator with"
        f" category '{uris.CAT_PATH_EDGE}' needs exactly an EdgeId"),
    "designator with both references": (
        lambda text: text.replace(DESIGNATOR, DESIGNATOR.replace(
            uris.CAT_PATH_EDGE, uris.CAT_RESOURCE).replace('EdgeId="e"', 'EdgeId="e" VertexId="s"'),
            1), None,
        f"{RULE_PATH}/PatternCondition/Apply/Apply[0]/AttributeDesignator[0]: designator with"
        f" category '{uris.CAT_RESOURCE}' needs exactly a VertexId or an EdgeId"),
    "empty Meta entity": (
        "<xacml4g:VertexEntity>tasks</xacml4g:VertexEntity>",
        "<xacml4g:VertexEntity>tasks</xacml4g:VertexEntity><xacml4g:VertexEntity/>",
        "Policy/Meta: empty entity name in Meta"),
    "zero minimum length": (
        'MaxLength="2"', 'MinLength="0" MaxLength="2"',
        f"{RULE_PATH}/Pattern/step[3]: minimum length must be >= 1"),
    "zero-argument or": (
        lambda text: text.replace(
            element(text, "xacml4g:PatternCondition"),
            f"<xacml4g:PatternCondition>{OR}</xacml:Apply></xacml4g:PatternCondition>"),
        None, f"{RULE_PATH}/PatternCondition: xacml4g:1.0:function:or applied to zero arguments"),
}


def changed_policy_dir(tmp_path, demo_policy_dir, change, replacement=None):
    """A directory holding the demo policy with ``change`` made: a text
    and its ``replacement``, or a function of the whole text."""
    text = (demo_policy_dir / DEMO_POLICY).read_text(encoding="utf-8")
    if callable(change):
        changed = change(text)
    else:
        assert change in text
        changed = text.replace(change, replacement)
    assert changed != text
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    (policy_dir / DEMO_POLICY).write_text(changed, encoding="utf-8")
    return policy_dir


@pytest.mark.parametrize("fault", POLICY_FAULTS)
def test_a_policy_fault_is_its_one_violation_for_validate_and_eval(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, fault
):
    change, replacement, violation = POLICY_FAULTS[fault]
    policy_dir = changed_policy_dir(tmp_path, demo_policy_dir, change, replacement)
    assert run(["validate", "--policies", str(policy_dir)]) == 1
    assert capsys.readouterr() == (
        f"{DEMO_POLICY}: {violation}\n1 policies checked, 1 violations\n", "")
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 2
    assert capsys.readouterr() == ("", f"error: {DEMO_POLICY}: {violation}\n")


def test_description_children_are_skipped_and_unknown_core_elements_warned(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    def described(text):
        return text.replace(
            META_END, META_END + "<xacml:Description>policy</xacml:Description>"
        ).replace(RULE, RULE + "<xacml:Description>rule</xacml:Description><xacml:Obligation/>")

    policy_dir = changed_policy_dir(tmp_path, demo_policy_dir, described)
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert capsys.readouterr().out == (
        f"{DEMO_POLICY}: OK\n"
        f"{DEMO_POLICY}: warning: {RULE_PATH}: ignored unknown element 'Obligation'\n"
        "1 policies checked, 0 violations\n"
    )
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 0
    assert capsys.readouterr().out == PERMIT_XML


NOT_APPLICABLE_XML = """\
<Response xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17">
  <Result>
    <Decision>NotApplicable</Decision>
    <Status>
      <StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok"/>
    </Status>
  </Result>
</Response>
"""


def action_target(*any_ofs: tuple[str, ...]) -> str:
    """A Target of one AnyOf per tuple of actions."""
    return "<xacml:Target>" + "".join(
        any_of(uris.ATTR_ACTION_ID, uris.CAT_ACTION, *actions) for actions in any_ofs
    ) + "</xacml:Target>"


@pytest.mark.parametrize("action, code, response", [
    ("access-do", 0, PERMIT_XML),
    ("delete-do", 3, NOT_APPLICABLE_XML),
])
def test_a_policy_target_gates_the_whole_policy(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, action, code, response
):
    policy_dir = changed_policy_dir(
        tmp_path, demo_policy_dir, META_END, META_END + action_target((action,))
    )
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert capsys.readouterr().out == f"{DEMO_POLICY}: OK\n1 policies checked, 0 violations\n"
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == code
    assert capsys.readouterr() == (response, "")


@pytest.mark.parametrize("holds, code, response", [
    (False, 3, NOT_APPLICABLE_XML),
    (True, 0, PERMIT_XML),
], ids=["none holds", "one holds"])
@pytest.mark.parametrize("place", ["policy Target", "rule Target", "vertex step"])
def test_every_anyof_must_hold(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file,
    place, holds, code, response
):
    # a second AnyOf next to one the demo request holds: when none of its
    # AllOfs holds the element does not match, and any one of them will do
    if place == "vertex step":
        values = ("admin", "pmUser") if holds else ("admin",)
        change = "</xacml:AnyOf>"
        replacement = change + any_of("typeCode", uris.CAT_PATH_VERTEX, *values)
    else:
        actions = ("delete-everything", "access-do") if holds else ("delete-everything",)
        change = META_END if place == "policy Target" else RULE
        replacement = change + action_target(("access-do",), actions)
    policy_dir = changed_policy_dir(tmp_path, demo_policy_dir, change, replacement)
    assert run(["validate", "--policies", str(policy_dir)]) == 0
    assert capsys.readouterr().out == f"{DEMO_POLICY}: OK\n1 policies checked, 0 violations\n"
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == code
    assert capsys.readouterr() == (response, "")


def test_anyofs_may_join_to_exactly_the_alternatives_bound(demo_policy_dir):
    # the subject's AnyOf, one of 10 and one of MAX_ALTERNATIVES / 10
    text = (demo_policy_dir / DEMO_POLICY).read_text(encoding="utf-8")
    policy = parse_policy(text.replace(
        "</xacml:AnyOf>", "</xacml:AnyOf>" + type_codes(10) + type_codes(MAX_ALTERNATIVES // 10)
    ))
    alternatives = policy.rules[0].pattern.steps[0].constraints.any_of
    assert len(alternatives) == MAX_ALTERNATIVES
    # one AllOf of each AnyOf, in document order
    assert [[match.literal for match in alternative] for alternative in alternatives[:2]] == [
        ["pmUser", "t0", "t0"], ["pmUser", "t0", "t1"]
    ]


def test_anyofs_may_join_to_exactly_the_matches_bound(demo_policy_dir):
    # the subject's AnyOf, one of 10, one of 100 and 7 of one: 1,000
    # alternatives of 10 Matches
    text = (demo_policy_dir / DEMO_POLICY).read_text(encoding="utf-8")
    any_ofs = type_codes(10) + type_codes(100) + type_codes(1) * 7
    policy = parse_policy(text.replace("</xacml:AnyOf>", "</xacml:AnyOf>" + any_ofs))
    alternatives = policy.rules[0].pattern.steps[0].constraints.any_of
    assert sum(map(len, alternatives)) == MAX_JOINED_MATCHES
    with pytest.raises(PolicySchemaError, match=f"more than {MAX_JOINED_MATCHES} Matches"):
        parse_policy(text.replace("</xacml:AnyOf>", "</xacml:AnyOf>" + any_ofs + type_codes(1)))


def test_a_designator_of_another_category_is_judged_by_validation_alone(
    demo_policy_dir, demo_policy
):
    # a resource designator naming the subject vertex: parsing its XML
    # refuses it with exactly what validation finds in the same policy
    # built in code
    text = (demo_policy_dir / DEMO_POLICY).read_text(encoding="utf-8")
    designator = DESIGNATOR.replace(uris.CAT_PATH_EDGE, uris.CAT_RESOURCE).replace(
        'EdgeId="e"', 'VertexId="s"')
    with pytest.raises(PolicySchemaError) as refused:
        parse_policy(text.replace(DESIGNATOR, designator, 1))
    (rule,) = demo_policy.rules
    first, second = rule.pattern_condition.args
    first = replace(first, args=(Designator("typeKind", uris.CAT_RESOURCE, "s"), first.args[1]))
    condition = replace(rule.pattern_condition, args=(first, second))
    built = replace(demo_policy, rules=(replace(rule, pattern_condition=condition),))
    assert validate_policy(built) != []
    assert refused.value.violations == validate_policy(built)


@pytest.mark.parametrize("level", ["rule", "policy"])
def test_an_unsupported_match_function_in_a_target_decides_indeterminate(
    demo_policy, demo_request, demo_graph, level
):
    # the reason names the first unsupported function in target order
    unsupported = "urn:oasis:names:tc:xacml:1.0:function:regexp-string-match"
    target = ConstraintSet(tuple(
        (MatchConstraint(function, "access-do", uris.ATTR_ACTION_ID, uris.CAT_ACTION),)
        for function in (uris.MATCH_STRING_EQUAL, unsupported, "urn:example:other-match")
    ))
    if level == "rule":
        rules = (replace(demo_policy.rules[0], target=target),)
        policy = replace(demo_policy, rules=rules)
        reason = f"rule 'user_access_dataObj': unsupported match function '{unsupported}'"
    else:
        policy = replace(demo_policy, target=target)
        reason = f"policy 'pmUserToDataObject': unsupported match function '{unsupported}'"
    response = render_response_xml(DecisionEngine([policy], demo_graph).decide(demo_request))
    assert response == PERMIT_XML.replace("Permit<", "Indeterminate<").replace(
        f'<StatusCode Value="{uris.STATUS_OK}"/>\n',
        f'<StatusCode Value="{uris.STATUS_PROCESSING_ERROR}"/>\n'
        f"      <StatusMessage>{reason}</StatusMessage>\n",
    )


SUBJECT_GROUP = '<Attributes Category="urn:oasis:names:tc:xacml:1.0:subject-category:access-subject">'
SUBJECT_ATTRIBUTE = '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:subject:subject-id">'
VERTEX_GROUP = '<Attributes Category="xacml4g:1.0:path-category:vertex">'

# name -> (text to change, its replacement, the parse error)
REQUEST_FAULTS = {
    "edge group typed as vertex": (
        VERTEX_GROUP,
        f'<Attributes Category="{uris.CAT_PATH_EDGE}" Type="{uris.CAT_PATH_VERTEX}">',
        "path-category:edge group typed as vertex"),
    "element in PathAttributes": (
        SUBJECT_GROUP, "<Other/>" + SUBJECT_GROUP, "unexpected element 'Other' in PathAttributes"),
    "Attributes without Category": (
        SUBJECT_GROUP, "<Attributes>", "Attributes in PathAttributes without Category"),
    "element in Attributes": (
        SUBJECT_ATTRIBUTE, "<Other/>" + SUBJECT_ATTRIBUTE, "unexpected element 'Other' in Attributes"),
    "Attribute without AttributeId": (
        SUBJECT_ATTRIBUTE, "<Attribute>", "Attribute without AttributeId"),
}


def changed_request(demo_request_file, fault: str) -> str:
    change, replacement, _ = REQUEST_FAULTS[fault]
    text = demo_request_file.read_text(encoding="utf-8")
    assert change in text
    return text.replace(change, replacement)


@pytest.mark.parametrize("fault", REQUEST_FAULTS)
def test_a_request_fault_exits_2_from_eval(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file, fault
):
    request = tmp_path / "request.xml"
    request.write_text(changed_request(demo_request_file, fault), encoding="utf-8")
    assert run(eval_args(demo_policy_dir, request, demo_graph_file)) == 2
    assert capsys.readouterr() == ("", f"error: {REQUEST_FAULTS[fault][2]}\n")


@pytest.fixture()
def server_address(demo_policy_dir, demo_graph_file):
    engine = DecisionEngine(load_policy_dir(demo_policy_dir), load_graph_path(demo_graph_file))
    with serving(engine) as server:
        yield server.server_address


@pytest.mark.parametrize("fault", REQUEST_FAULTS)
def test_a_request_fault_is_a_400_from_serve(server_address, demo_request_file, fault):
    body = changed_request(demo_request_file, fault)
    assert http_call(server_address, "POST", "/decision", body) == (
        400, f"bad request: {REQUEST_FAULTS[fault][2]}")


# A document type declaration whose internal entity stands for the demo
# subject's value: with entities expanded the request decides Permit.
SUBJECT_VALUE = "<AttributeValue>_key:1196741133</AttributeValue>"
DOCTYPE_REFUSED = "document type declarations are not allowed"


def with_doctype(text: str, root: str) -> str:
    declared = f'<!DOCTYPE {root} [<!ENTITY subj "_key:1196741133">]>\n'
    return text.replace(f"<{root}", declared + f"<{root}", 1)


@pytest.fixture()
def doctype_request(demo_request_file) -> str:
    text = demo_request_file.read_text(encoding="utf-8")
    assert SUBJECT_VALUE in text
    return with_doctype(text, "Request").replace(
        SUBJECT_VALUE, "<AttributeValue>&subj;</AttributeValue>")


def test_a_request_with_a_document_type_declaration_exits_2_from_eval(
    capsys, tmp_path, demo_policy_dir, demo_graph_file, doctype_request
):
    request = tmp_path / "request.xml"
    request.write_text(doctype_request, encoding="utf-8")
    assert run(eval_args(demo_policy_dir, request, demo_graph_file)) == 2
    assert capsys.readouterr() == ("", f"error: {DOCTYPE_REFUSED}\n")


def test_a_request_with_a_document_type_declaration_is_a_400_from_serve(
    server_address, doctype_request
):
    assert http_call(server_address, "POST", "/decision", doctype_request) == (
        400, f"bad request: {DOCTYPE_REFUSED}")


def test_a_policy_with_a_document_type_declaration_is_one_violation(
    capsys, tmp_path, demo_policy_dir, demo_request_file, demo_graph_file
):
    policy_dir = changed_policy_dir(
        tmp_path, demo_policy_dir, lambda text: with_doctype(text, "xacml:Policy"))
    assert run(["validate", "--policies", str(policy_dir)]) == 1
    assert capsys.readouterr() == (
        f"{DEMO_POLICY}: Policy: {DOCTYPE_REFUSED}\n1 policies checked, 1 violations\n", "")
    assert run(eval_args(policy_dir, demo_request_file, demo_graph_file)) == 2
    assert capsys.readouterr() == ("", f"error: {DEMO_POLICY}: Policy: {DOCTYPE_REFUSED}\n")
