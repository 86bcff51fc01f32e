"""Small helpers over xml.etree for namespace-aware parsing.

Core XACML elements are accepted either in the XACML 3.0 namespace or with
no namespace at all (requests in the wild frequently omit the default
xmlns); extension elements must be in the xacml4g namespace.  ElementTree
spells a tag in a namespace ``{namespace}local``, so each test compares
the whole tag against a ``{namespace}`` prefix built once, here.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .uris import XACML3_NS, XACML4G_NS

_CORE = "{" + XACML3_NS + "}"
_EXT = "{" + XACML4G_NS + "}"


def core_tags(local: str) -> frozenset[str]:
    """The tags of the core element ``local``, for a walk that tests many
    elements against one name."""
    return frozenset((local, _CORE + local))


def ext_tag(local: str) -> str:
    """The tag of the extension element ``local``."""
    return _EXT + local


def is_core(elem: ET.Element, local: str) -> bool:
    tag = elem.tag
    return tag == local or tag == _CORE + local


def is_ext(elem: ET.Element, local: str) -> bool:
    return elem.tag == _EXT + local


def in_ext_ns(elem: ET.Element) -> bool:
    return elem.tag.startswith(_EXT)


def local_name(elem: ET.Element) -> str:
    tag = elem.tag
    return tag.partition("}")[2] if tag.startswith("{") else tag


class _DoctypeRefused(Exception):
    pass


class _Builder(ET.TreeBuilder):
    """A tree builder that stops the parse at a document type declaration,
    before the parser reads an entity it declares: an internal entity
    expands about a hundredfold, and no request or policy needs one."""

    def doctype(self, name, pubid, system):
        raise _DoctypeRefused


def parse_xml(text: str, error_cls) -> ET.Element:
    """Parse ``text``, converting syntax errors to ``error_cls``; so is a
    lone surrogate, which the parser cannot encode, and so is a document
    type declaration.

    The parser reaches an exact ``ET.TreeBuilder`` without a Python call
    per element, so ``_Builder`` builds only a text that holds
    ``<!DOCTYPE``: expat spells a declaration only that way, and a ``str``
    is fed as UTF-8, whatever encoding its XML declaration names."""
    target = _Builder() if "<!DOCTYPE" in text else ET.TreeBuilder()
    parser = ET.XMLParser(target=target)
    try:
        parser.feed(text)
        return parser.close()
    except (ET.ParseError, UnicodeEncodeError) as exc:
        raise error_cls(f"not well-formed XML: {exc}") from exc
    except _DoctypeRefused:
        raise error_cls("document type declarations are not allowed") from None


def text_of(elem: ET.Element) -> str:
    """Element text with surrounding whitespace stripped; '' when empty."""
    return (elem.text or "").strip()


# Written out rather than imported from xml.sax.saxutils, whose import
# pulls in urllib.request and with it http.client and ssl.


def xml_escape(value: str) -> str:
    """``&``, ``<`` and ``>`` escaped for character data."""
    return value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def xml_attr(value: str) -> str:
    """Render an attribute value including the surrounding quotes: double
    quotes unless the value holds ``"`` and no ``'``, and newlines, carriage
    returns and tabs as character references."""
    value = xml_escape(value)
    value = value.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"%s"' % value.replace('"', "&quot;")
