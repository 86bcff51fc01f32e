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
