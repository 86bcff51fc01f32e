from xml.sax.saxutils import escape, quoteattr

from hypothesis import given, settings
from hypothesis import strategies as st

from graphpdp.xmlutil import xml_attr, xml_escape

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
