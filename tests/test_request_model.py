import pytest

from graphpdp import uris
from graphpdp.errors import RequestParseError
from graphpdp.request_model import parse_request, split_attribute_value

XMLNS = (
    'xmlns="urn:oasis:names:tc:xacml:3.0:core:schema:wd-17" '
    'xmlns:xacml4g="xacml4g:1.0"'
)


def request_xml(path_groups: str, action: str | None = "access-do", extra="") -> str:
    action_part = ""
    if action is not None:
        action_part = (
            "<xacml4g:ActionAttributes>"
            f'<Attributes Category="{uris.CAT_ACTION}">'
            f'<Attribute AttributeId="{uris.ATTR_ACTION_ID}">'
            f"<AttributeValue>{action}</AttributeValue>"
            "</Attribute></Attributes></xacml4g:ActionAttributes>"
        )
    return (
        f"<Request {XMLNS} {extra}>"
        + action_part
        + f"<xacml4g:PathAttributes>{path_groups}</xacml4g:PathAttributes>"
        + "</Request>"
    )


def group(category: str, *values: str, attr_id: str = uris.ATTR_PATH_VERTEX_ID, type_attr: str | None = None) -> str:
    type_part = f' Type="{type_attr}"' if type_attr else ""
    values_part = "".join(f"<AttributeValue>{v}</AttributeValue>" for v in values)
    return (
        f'<Attributes Category="{category}"{type_part}>'
        f'<Attribute AttributeId="{attr_id}">{values_part}</Attribute>'
        "</Attributes>"
    )


SUBJECT = group(uris.CAT_SUBJECT, "_key:s1", attr_id=uris.ATTR_SUBJECT_ID)
RESOURCE = group(uris.CAT_RESOURCE, "_key:r1", attr_id=uris.ATTR_RESOURCE_ID)


# -- the colon convention ---------------------------------------------------


def test_split_at_first_colon_only():
    assert split_attribute_value("_key:1196741133") == ("_key", "1196741133")
    assert split_attribute_value("uri:urn:x:y") == ("uri", "urn:x:y")
    assert split_attribute_value("name:") == ("name", "")


def test_split_rejects_missing_colon():
    with pytest.raises(RequestParseError, match="no colon"):
        split_attribute_value("justavalue")


def test_split_rejects_empty_name():
    with pytest.raises(RequestParseError, match="empty property name"):
        split_attribute_value(":value")


# -- parsing ----------------------------------------------------------------


def test_parse_demo_request(demo_request):
    r = demo_request
    assert r.action_values(uris.ATTR_ACTION_ID) == ["access-do"]
    bindings = [
        (position, group.element_type, *split_attribute_value(raw))
        for position, group in enumerate(r.path_groups)
        for _, raw in group.attributes
    ]
    assert bindings == [
        (0, "vertex", "_key", "1196741133"),
        (1, "vertex", "_key", "1196741778"),
        (2, "vertex", "_key", "1196742142"),
    ]
    assert r.path_groups[0].category == uris.CAT_SUBJECT
    assert r.path_groups[-1].category == uris.CAT_RESOURCE


def test_return_policy_id_list_attribute_is_tolerated():
    xml = request_xml(SUBJECT + RESOURCE, extra='ReturnPolicyIdList="true"')
    assert parse_request(xml).path_groups[0].category == uris.CAT_SUBJECT


def test_multiple_values_on_one_attribute():
    xml = request_xml(
        SUBJECT + group(uris.CAT_PATH_VERTEX, "_key:a", "name:b") + RESOURCE
    )
    middle = parse_request(xml).path_groups[1]
    assert middle.attributes == (
        (uris.ATTR_PATH_VERTEX_ID, "_key:a"),
        (uris.ATTR_PATH_VERTEX_ID, "name:b"),
    )


def test_trailing_edge_group_via_type():
    xml = request_xml(
        SUBJECT + group(uris.CAT_RESOURCE, "name:link", type_attr=uris.CAT_PATH_EDGE)
    )
    r = parse_request(xml)
    assert r.path_groups[-1].element_type == "edge"
    assert [split_attribute_value(raw) for _, raw in r.path_groups[-1].attributes] == [
        ("name", "link")
    ]


def test_edge_category_implies_edge_kind():
    xml = request_xml(SUBJECT + RESOURCE)
    # replace the resource group's category with the edge path category
    edge_last = request_xml(SUBJECT + group(uris.CAT_PATH_EDGE, "k:v"))
    with pytest.raises(RequestParseError, match="resource group"):
        parse_request(edge_last)  # still needs a resource category
    assert parse_request(xml)  # sanity: the unmodified form parses


def test_bad_type_uri():
    xml = request_xml(
        SUBJECT + group(uris.CAT_RESOURCE, "k:v", type_attr="xacml4g:1.0:nonsense")
    )
    with pytest.raises(RequestParseError, match="Type"):
        parse_request(xml)


def test_edge_typed_group_in_the_middle():
    xml = request_xml(
        SUBJECT
        + group(uris.CAT_PATH_VERTEX, "k:v", type_attr=uris.CAT_PATH_EDGE)
        + RESOURCE
    )
    with pytest.raises(RequestParseError, match="trailing"):
        parse_request(xml)


def test_subject_must_come_first():
    xml = request_xml(group(uris.CAT_PATH_VERTEX, "k:v") + SUBJECT + RESOURCE)
    with pytest.raises(RequestParseError, match="subject group must come first"):
        parse_request(xml)


def test_exactly_one_subject():
    xml = request_xml(SUBJECT + SUBJECT + RESOURCE)
    with pytest.raises(RequestParseError, match="exactly one subject"):
        parse_request(xml)


def test_resource_must_come_last():
    xml = request_xml(SUBJECT + RESOURCE + group(uris.CAT_PATH_VERTEX, "k:v"))
    with pytest.raises(RequestParseError, match="come last"):
        parse_request(xml)


def test_colon_errors_surface_at_parse_time():
    xml = request_xml(SUBJECT + group(uris.CAT_PATH_VERTEX, "nocolonhere") + RESOURCE)
    with pytest.raises(RequestParseError, match="no colon"):
        parse_request(xml)


def test_action_group_with_wrong_category():
    xml = (
        f"<Request {XMLNS}>"
        "<xacml4g:ActionAttributes>"
        f'<Attributes Category="{uris.CAT_SUBJECT}">'
        f'<Attribute AttributeId="x"><AttributeValue>v</AttributeValue></Attribute>'
        "</Attributes></xacml4g:ActionAttributes>"
        f"<xacml4g:PathAttributes>{SUBJECT}{RESOURCE}</xacml4g:PathAttributes>"
        "</Request>"
    )
    with pytest.raises(RequestParseError, match="ActionAttributes"):
        parse_request(xml)


def test_unknown_path_category():
    xml = request_xml(SUBJECT + group("urn:something:else", "k:v") + RESOURCE)
    with pytest.raises(RequestParseError, match="category"):
        parse_request(xml)


def test_empty_attributes_element():
    xml = request_xml(
        SUBJECT + f'<Attributes Category="{uris.CAT_RESOURCE}"/>'
    )
    with pytest.raises(RequestParseError, match="empty Attributes"):
        parse_request(xml)


def test_attribute_without_value():
    xml = request_xml(
        SUBJECT
        + f'<Attributes Category="{uris.CAT_RESOURCE}">'
        f'<Attribute AttributeId="x"/></Attributes>'
    )
    with pytest.raises(RequestParseError, match="no AttributeValue"):
        parse_request(xml)


def test_unexpected_top_level_element():
    xml = (
        f"<Request {XMLNS}>"
        "<Attributes/>"
        "</Request>"
    )
    with pytest.raises(RequestParseError, match="unexpected element"):
        parse_request(xml)


def test_two_path_containers():
    xml = (
        f"<Request {XMLNS}>"
        f"<xacml4g:PathAttributes>{SUBJECT}{RESOURCE}</xacml4g:PathAttributes>"
        f"<xacml4g:PathAttributes>{SUBJECT}{RESOURCE}</xacml4g:PathAttributes>"
        "</Request>"
    )
    with pytest.raises(RequestParseError, match="more than one PathAttributes"):
        parse_request(xml)


def test_not_a_request_document():
    with pytest.raises(RequestParseError, match="expected Request"):
        parse_request(f"<Response {XMLNS}/>")
    with pytest.raises(RequestParseError):
        parse_request("garbage")


def test_request_without_action_still_parses():
    xml = request_xml(SUBJECT + RESOURCE, action=None)
    r = parse_request(xml)
    assert r.action_groups == ()
    assert r.action_values(uris.ATTR_ACTION_ID) == []
