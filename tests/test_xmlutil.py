from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xml.etree.ElementTree as ET

from graphpdp.errors import PolicySchemaError, RequestParseError
from graphpdp.policy_model import parse_policy
from graphpdp.request_model import parse_request
from graphpdp.uris import XACML3_NS, XACML4G_NS
from graphpdp.xmlutil import in_ext_ns, is_core, is_ext, local_name, xml_attr, xml_escape

# text rich in the characters either helper rewrites
MARKUP = st.text(alphabet=st.sampled_from("&<>\"'\n\r\t a;#") | st.characters())


@settings(max_examples=300, deadline=None)
@given(MARKUP)
def test_the_escape_helpers_render_as_the_standard_library_does(text):
    assert xml_escape(text) == escape(text)
    assert xml_attr(text) == quoteattr(text)


def test_attribute_quotes_follow_the_value():
    assert xml_attr("a") == '"a"'
    assert xml_attr('say "hi"') == "'say \"hi\"'"
    assert xml_attr("it's \"x\"\n") == '"it\'s &quot;x&quot;&#10;"'


def test_tags_are_told_apart_by_namespace_and_local_name():
    core, bare, ext, other = (
        ET.Element(tag)
        for tag in (f"{{{XACML3_NS}}}Rule", "Rule", f"{{{XACML4G_NS}}}Rule", "{urn:x}Rule")
    )
    assert [is_core(e, "Rule") for e in (core, bare, ext, other)] == [True, True, False, False]
    assert [is_ext(e, "Rule") for e in (core, bare, ext, other)] == [False, False, True, False]
    assert [in_ext_ns(e) for e in (core, bare, ext, other)] == [False, False, True, False]
    assert {local_name(e) for e in (core, bare, ext, other)} == {"Rule"}
    assert not is_core(core, "Rul") and not is_ext(ext, "Rules")


@pytest.mark.parametrize("parse, error", [
    (parse_request, RequestParseError), (parse_policy, PolicySchemaError),
])
def test_a_lone_surrogate_is_not_well_formed_xml(parse, error):
    # a str can hold one; the parser cannot encode it
    with pytest.raises(error, match="not well-formed XML: .*surrogates not allowed"):
        parse('<Request a="\ud800"/>')


@pytest.mark.parametrize("parse, error", [
    (parse_request, RequestParseError), (parse_policy, PolicySchemaError),
])
@pytest.mark.parametrize("declaration", [
    "<!DOCTYPE Request>",
    '<!DOCTYPE Request SYSTEM "file:///etc/passwd">',
    '<!DOCTYPE Request [<!ENTITY e "v">]>',
])
def test_every_document_type_declaration_is_refused(parse, error, declaration):
    # the declaration comes before the root, with or without an XML
    # declaration naming another encoding: a str is parsed as UTF-8
    for prolog in ("", '<?xml version="1.0" encoding="UTF-16"?>\n'):
        with pytest.raises(error, match="document type declarations are not allowed"):
            parse(prolog + declaration + "<Request/>")


def test_a_comment_naming_a_doctype_parses_as_without_it(demo_request_file, demo_policy_dir):
    # only a declaration is refused: "<!DOCTYPE" in a comment or in text is
    # no declaration, and the text parses as it does without it
    request = demo_request_file.read_text(encoding="utf-8")
    policy = (demo_policy_dir / "pm_user_to_data_object.xml").read_text(encoding="utf-8")
    for parse, text, root in ((parse_request, request, "<Request"),
                              (parse_policy, policy, "<xacml:Policy")):
        commented = text.replace(root, "<!-- <!DOCTYPE x [<!ENTITY e 'v'>]> -->\n" + root, 1)
        assert commented != text
        assert parse(commented) == parse(text)
    # in a CDATA section it is character data
    spelled = request.replace("access-do", "<![CDATA[<!DOCTYPE x>]]>access-do", 1)
    assert spelled != request
    assert "'<!DOCTYPE x>access-do'" in repr(parse_request(spelled))
