import pytest

from graphpdp import uris
from graphpdp.errors import PolicySchemaError
from graphpdp.policy_model import (
    Apply,
    ConstraintSet,
    Designator,
    Literal,
    MatchConstraint,
    Meta,
    PathEdgeSpec,
    PathVertexSpec,
    Pattern,
    Policy,
    Rule,
    Violation,
    load_policy_dir,
    parse_policy,
    policy_files,
    validate_policy,
)

from policy_writer import serialize_policy

XMLNS = (
    'xmlns:xacml="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17" '
    'xmlns:xacml4g="xacml4g:1.0"'
)
FIRST_APPLICABLE = uris.ALG_FIRST_APPLICABLE

META = """
  <xacml4g:Meta>
    <xacml4g:Vertices><xacml4g:VertexEntity>dataObjects</xacml4g:VertexEntity></xacml4g:Vertices>
    <xacml4g:Edges><xacml4g:EdgeEntity>rel</xacml4g:EdgeEntity></xacml4g:Edges>
  </xacml4g:Meta>
"""

SUBJECT_V = (
    '<xacml4g:Vertex Category="urn:oasis:names:tc:xacml:1.0:subject-category:'
    'access-subject" VertexId="s"/>'
)
RESOURCE_V = (
    '<xacml4g:Vertex Category="urn:oasis:names:tc:xacml:3.0:attribute-category:'
    'resource"/>'
)


def policy_xml(body: str, alg: str = FIRST_APPLICABLE, pid: str = "p1") -> str:
    return (
        f'<xacml:Policy {XMLNS} PolicyId="{pid}" RuleCombiningAlgId="{alg}">'
        f"{body}</xacml:Policy>"
    )


def rule_xml(
    pattern_body: str, effect: str = "Permit", rid: str = "r1", condition: str = ""
) -> str:
    return (
        f'<xacml:Rule Effect="{effect}" RuleId="{rid}">'
        f'<xacml4g:Pattern PatternId="pat"><xacml4g:Path>{pattern_body}'
        f"</xacml4g:Path></xacml4g:Pattern>{condition}</xacml:Rule>"
    )


def violations_of(xml: str) -> list[str]:
    with pytest.raises(PolicySchemaError) as err:
        parse_policy(xml)
    return [str(v) for v in err.value.violations]


# -- happy path against the shipped demo policy -----------------------------


def test_parse_demo_policy(demo_policy):
    p = demo_policy
    assert p.policy_id == "pmUserToDataObject"
    assert p.rule_combining_alg == uris.ALG_FIRST_APPLICABLE
    assert p.meta == Meta(
        ("dataObjects", "tasks"),
        ("dataObjectRelations", "accessRelations", "taskDataRelations"),
    )
    assert [r.rule_id for r in p.rules] == ["user_access_dataObj"]
    rule = p.rules[0]
    assert rule.effect == "Permit"
    assert rule.target is None
    assert rule.pattern.pattern_id == "userToDataObjectAccess"


def test_demo_pattern_flattens_to_five_steps(demo_policy):
    steps = demo_policy.rules[0].pattern.steps
    assert len(steps) == 5
    subject, e1, middle, e2, resource = steps
    assert isinstance(subject, PathVertexSpec)
    assert subject.vertex_id == "s"
    assert subject.category == uris.CAT_SUBJECT
    assert subject.constraints.any_of[0][0] == MatchConstraint(
        uris.MATCH_STRING_EQUAL, "pmUser", "typeCode", uris.CAT_PATH_VERTEX
    )
    assert (e1.type, e1.direction, e1.edge_id) == ("accessRelations", "from", "e")
    assert (e1.min_len, e1.max_len) == (1, 1)
    assert middle.label == "tasks" and middle.vertex_id is None
    assert (e2.min_len, e2.max_len, e2.direction) == (1, 2, "any")
    assert resource.category == uris.CAT_RESOURCE


def test_demo_condition_tree(demo_policy):
    cond = demo_policy.rules[0].pattern_condition
    assert cond == Apply(
        uris.FN_OR,
        (
            Apply(
                uris.FN_EQUAL,
                (
                    Designator("typeKind", uris.CAT_PATH_EDGE, "e"),
                    Literal("worksOn"),
                ),
            ),
            Apply(
                uris.FN_EQUAL,
                (
                    Designator("typeKind", uris.CAT_PATH_EDGE, "e"),
                    Literal("allocates"),
                ),
            ),
        ),
    )


def test_nesting_does_not_change_the_flattened_sequence():
    """A trailing sub-Path and a flat element list mean the same pattern."""
    flat = policy_xml(
        META
        + rule_xml(
            SUBJECT_V
            + '<xacml4g:Edge Type="rel"/>'
            + '<xacml4g:Vertex Label="dataObjects"/>'
            + '<xacml4g:Edge MaxLength="2"/>'
            + RESOURCE_V
        )
    )
    nested = policy_xml(
        META
        + rule_xml(
            SUBJECT_V
            + '<xacml4g:Edge Type="rel"/>'
            + "<xacml4g:Path>"
            + '<xacml4g:Vertex Label="dataObjects"/>'
            + '<xacml4g:Edge MaxLength="2"/>'
            + RESOURCE_V
            + "</xacml4g:Path>"
        )
    )
    assert parse_policy(flat).rules[0].pattern == parse_policy(nested).rules[0].pattern


def test_length_attribute_mappings():
    def edge_of(attrs: str) -> PathEdgeSpec:
        xml = policy_xml(
            META + rule_xml(SUBJECT_V + f"<xacml4g:Edge {attrs}/>" + RESOURCE_V)
        )
        return parse_policy(xml).rules[0].pattern.steps[1]

    assert (edge_of("").min_len, edge_of("").max_len) == (1, 1)
    assert (edge_of('Length="2"').min_len, edge_of('Length="2"').max_len) == (2, 2)
    e = edge_of('MinLength="2"')
    assert (e.min_len, e.max_len) == (2, None)
    e = edge_of('MaxLength="3"')
    assert (e.min_len, e.max_len) == (1, 3)
    e = edge_of('MinLength="2" MaxLength="3"')
    assert (e.min_len, e.max_len) == (2, 3)


def test_length_cannot_mix_with_min_max():
    msgs = violations_of(
        policy_xml(
            META
            + rule_xml(SUBJECT_V + '<xacml4g:Edge Length="2" MaxLength="3"/>' + RESOURCE_V)
        )
    )
    assert any("Length" in m for m in msgs)


def test_vertex_category_defaults_to_path_vertex():
    xml = policy_xml(
        META
        + rule_xml(
            SUBJECT_V
            + '<xacml4g:Edge/>'
            + "<xacml4g:Vertex/>"
            + "<xacml4g:Edge/>"
            + RESOURCE_V
        )
    )
    middle = parse_policy(xml).rules[0].pattern.steps[2]
    assert middle.category == uris.CAT_PATH_VERTEX


# -- rejected documents -----------------------------------------------------


def test_unknown_combining_algorithm():
    msgs = violations_of(
        policy_xml(META + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V), alg="nope")
    )
    assert any("combining algorithm" in m for m in msgs)


def test_meta_needs_entities():
    empty_meta = (
        "<xacml4g:Meta><xacml4g:Vertices/><xacml4g:Edges/></xacml4g:Meta>"
    )
    msgs = violations_of(
        policy_xml(empty_meta + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V))
    )
    assert any("VertexEntity" in m for m in msgs)
    assert any("EdgeEntity" in m for m in msgs)


def test_duplicate_rule_ids():
    rule = rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V)
    msgs = violations_of(policy_xml(META + rule + rule))
    assert any("duplicate RuleId" in m for m in msgs)


def test_bad_effect():
    bad = rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V, effect="Maybe")
    assert any("effect" in m.lower() for m in violations_of(policy_xml(META + bad)))


def test_inverted_length_range():
    msgs = violations_of(
        policy_xml(
            META
            + rule_xml(
                SUBJECT_V + '<xacml4g:Edge MinLength="3" MaxLength="2"/>' + RESOURCE_V
            )
        )
    )
    assert any("inverted" in m for m in msgs)


def test_edge_id_on_variable_length_segment():
    msgs = violations_of(
        policy_xml(
            META
            + rule_xml(
                SUBJECT_V + '<xacml4g:Edge EdgeId="e" MaxLength="2"/>' + RESOURCE_V
            )
        )
    )
    assert any("EdgeId" in m for m in msgs)


def test_exactly_one_subject_and_resource():
    msgs = violations_of(
        policy_xml(
            META
            + rule_xml(
                '<xacml4g:Vertex/>'
                + "<xacml4g:Edge/>"
                + "<xacml4g:Vertex/>"
            )
        )
    )
    assert any("subject" in m for m in msgs)
    assert any("resource" in m for m in msgs)


def test_vertices_and_edges_share_one_namespace():
    msgs = violations_of(
        policy_xml(
            META
            + rule_xml(
                SUBJECT_V.replace('VertexId="s"', 'VertexId="x"')
                + '<xacml4g:Edge EdgeId="x"/>'
                + RESOURCE_V
            )
        )
    )
    assert any("duplicate binding name 'x'" in m for m in msgs)


def test_condition_requires_pattern():
    xml = policy_xml(
        META
        + '<xacml:Rule Effect="Permit" RuleId="r1">'
        + "<xacml4g:PatternCondition>"
        + '<xacml:Apply FunctionId="xacml4g:1.0:function:equal">'
        + "<xacml:AttributeValue>x</xacml:AttributeValue>"
        + "<xacml:AttributeValue>y</xacml:AttributeValue>"
        + "</xacml:Apply>"
        + "</xacml4g:PatternCondition></xacml:Rule>"
    )
    assert any("requires a Pattern" in m for m in violations_of(xml))


def test_condition_must_be_a_single_apply():
    xml = policy_xml(
        META
        + '<xacml:Rule Effect="Permit" RuleId="r1">'
        + "<xacml4g:PatternCondition>"
        + '<xacml:AttributeValue>x</xacml:AttributeValue>'
        + "</xacml4g:PatternCondition></xacml:Rule>"
    )
    assert any("exactly one Apply" in m for m in violations_of(xml))


def test_condition_designator_must_resolve():
    cond = (
        "<xacml4g:PatternCondition>"
        '<xacml:Apply FunctionId="xacml4g:1.0:function:equal">'
        '<xacml:AttributeDesignator AttributeId="k" '
        'Category="xacml4g:1.0:path-category:edge" EdgeId="ghost"/>'
        "<xacml:AttributeValue>v</xacml:AttributeValue>"
        "</xacml:Apply></xacml4g:PatternCondition>"
    )
    xml = policy_xml(
        META + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V, condition=cond)
    )
    assert any("undeclared binding 'ghost'" in m for m in violations_of(xml))


def test_condition_designator_kind_must_match():
    for designator, declared_as in (
        ('Category="xacml4g:1.0:path-category:edge" EdgeId="s"', "is a vertex,"),
        ('Category="xacml4g:1.0:path-category:vertex" VertexId="e"', "is an edge,"),
    ):
        cond = (
            "<xacml4g:PatternCondition>"
            '<xacml:Apply FunctionId="xacml4g:1.0:function:equal">'
            f'<xacml:AttributeDesignator AttributeId="k" {designator}/>'
            "<xacml:AttributeValue>v</xacml:AttributeValue>"
            "</xacml:Apply></xacml4g:PatternCondition>"
        )
        xml = policy_xml(
            META + rule_xml(SUBJECT_V + '<xacml4g:Edge EdgeId="e"/>' + RESOURCE_V,
                            condition=cond)
        )
        assert any(declared_as in m for m in violations_of(xml)), designator


def test_unknown_condition_function():
    cond = (
        "<xacml4g:PatternCondition>"
        '<xacml:Apply FunctionId="xacml4g:1.0:function:sorta-equal">'
        "<xacml:AttributeValue>a</xacml:AttributeValue>"
        "<xacml:AttributeValue>b</xacml:AttributeValue>"
        "</xacml:Apply></xacml4g:PatternCondition>"
    )
    xml = policy_xml(
        META + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V, condition=cond)
    )
    assert any("unknown function" in m for m in violations_of(xml))


def test_comparison_arity_is_checked():
    cond = (
        "<xacml4g:PatternCondition>"
        '<xacml:Apply FunctionId="xacml4g:1.0:function:equal">'
        "<xacml:AttributeValue>a</xacml:AttributeValue>"
        "</xacml:Apply></xacml4g:PatternCondition>"
    )
    xml = policy_xml(
        META + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V, condition=cond)
    )
    assert any("exactly two arguments" in m for m in violations_of(xml))


def test_core_condition_element_is_rejected():
    xml = policy_xml(
        META
        + '<xacml:Rule Effect="Permit" RuleId="r1">'
        + "<xacml:Condition/></xacml:Rule>"
    )
    with pytest.raises(PolicySchemaError) as err:
        parse_policy(xml)
    assert "Condition" in str(err.value)


def test_unknown_extension_element_is_rejected():
    xml = policy_xml(META + "<xacml4g:Shortcut/>")
    with pytest.raises(PolicySchemaError) as err:
        parse_policy(xml)
    assert "Shortcut" in str(err.value)


def test_unknown_core_content_is_warned_not_fatal():
    xml = policy_xml(
        META
        + "<xacml:ObligationExpressions/>"
        + rule_xml(SUBJECT_V + "<xacml4g:Edge/>" + RESOURCE_V)
    )
    policy = parse_policy(xml)
    assert any("ObligationExpressions" in w for w in policy.warnings)


def test_not_xml_at_all():
    with pytest.raises(PolicySchemaError):
        parse_policy("this is not xml")


# -- validate_policy on hand-built objects ----------------------------------


def test_validate_directly_constructed_policy():
    policy = Policy(
        policy_id="p",
        rule_combining_alg=uris.ALG_FIRST_APPLICABLE,
        rules=(
            Rule(
                rule_id="r",
                effect="Permit",
                pattern=Pattern(
                    "pat",
                    (
                        PathVertexSpec(vertex_id="a", category=uris.CAT_SUBJECT),
                        PathEdgeSpec(min_len=2, max_len=1),
                        PathVertexSpec(category=uris.CAT_RESOURCE),
                    ),
                ),
            ),
        ),
    )
    reasons = [v.reason for v in validate_policy(policy)]
    assert any("inverted" in r for r in reasons)


def test_violation_str():
    assert str(Violation("Policy/Rule[r]", "boom")) == "Policy/Rule[r]: boom"


# -- serialization round trip ----------------------------------------------


def test_serialize_then_parse_is_identity(demo_policy):
    text = serialize_policy(demo_policy)
    assert parse_policy(text) == demo_policy


def test_serialize_normalizes_nesting():
    nested = parse_policy(
        policy_xml(
            META
            + rule_xml(
                SUBJECT_V
                + '<xacml4g:Edge Type="rel"/>'
                + "<xacml4g:Path>"
                + '<xacml4g:Vertex Label="dataObjects"/>'
                + "<xacml4g:Edge/>"
                + RESOURCE_V
                + "</xacml4g:Path>"
            )
        )
    )
    text = serialize_policy(nested)
    assert "<xacml4g:Path>" in text
    # one flat path: the serializer does not re-nest
    assert text.count("<xacml4g:Path>") == 1
    assert parse_policy(text) == nested


def test_serializer_length_forms():
    cases = {
        (1, 1): "",
        (2, 2): 'Length="2"',
        (2, None): 'MinLength="2"',
        (1, 3): 'MaxLength="3"',
        (2, 3): 'MinLength="2" MaxLength="3"',
    }
    for (lo, hi), expect in cases.items():
        policy = Policy(
            policy_id="p",
            rule_combining_alg=uris.ALG_FIRST_APPLICABLE,
            rules=(
                Rule(
                    rule_id="r",
                    effect="Permit",
                    pattern=Pattern(
                        "pat",
                        (
                            PathVertexSpec(vertex_id="a", category=uris.CAT_SUBJECT),
                            PathEdgeSpec(min_len=lo, max_len=hi),
                            PathVertexSpec(category=uris.CAT_RESOURCE),
                        ),
                    ),
                ),
            ),
        )
        text = serialize_policy(policy)
        if expect:
            assert expect in text, (lo, hi)
        else:
            assert "Length" not in text, (lo, hi)
        assert parse_policy(text).rules[0].pattern.steps[1].min_len == lo
        assert parse_policy(text).rules[0].pattern.steps[1].max_len == hi


# -- directory loading ------------------------------------------------------


def test_policy_files_sorted(tmp_path):
    (tmp_path / "b.xml").write_text("x", encoding="utf-8")
    (tmp_path / "a.xml").write_text("x", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x", encoding="utf-8")
    assert [f.name for f in policy_files(tmp_path)] == ["a.xml", "b.xml"]


def test_load_policy_dir_prefixes_violations(tmp_path, demo_policy_dir):
    good = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    (tmp_path / "ok.xml").write_text(good, encoding="utf-8")
    (tmp_path / "broken.xml").write_text(
        policy_xml(META, alg="nonsense"), encoding="utf-8"
    )
    with pytest.raises(PolicySchemaError) as err:
        load_policy_dir(tmp_path)
    assert any(v.path.startswith("broken.xml") for v in err.value.violations)


def test_empty_constraint_set_helpers():
    empty = ConstraintSet()
    assert empty.is_empty
    assert list(empty.constraints()) == []
    one = ConstraintSet(
        ((MatchConstraint(uris.MATCH_STRING_EQUAL, "v", "k", uris.CAT_ACTION),),)
    )
    assert not one.is_empty
    assert len(list(one.constraints())) == 1
