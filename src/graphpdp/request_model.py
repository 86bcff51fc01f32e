"""Parse access requests carrying an ordered graph path.

Requests wrap standard XACML ``Attributes`` elements in two extension
containers: ``ActionAttributes`` for the action bag and ``PathAttributes``
for the ordered list of graph elements the requester claims to traverse.
Each path attribute value encodes a property as ``name:value``, split at
the first colon, so values may themselves contain colons.

The parsed :class:`Request` is what the engine reads, so no later layer
parses again: the action values form one flat bag of ``(attribute id,
value)`` pairs, and each path group holds its values split, as
``(attribute id, property name, value)``.  A value's colon fault is
reported only once the path order is known to hold, so of the two faults
the order is reported first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import uris
from .errors import RequestParseError
from .xmlutil import core_tags, ext_tag, local_name, parse_xml, text_of

KIND_VERTEX = "vertex"
KIND_EDGE = "edge"

_PATH_CATEGORIES = (uris.CAT_SUBJECT, uris.CAT_PATH_VERTEX, uris.CAT_PATH_EDGE, uris.CAT_RESOURCE)
_TYPE_TO_KIND = {uris.CAT_PATH_VERTEX: KIND_VERTEX, uris.CAT_PATH_EDGE: KIND_EDGE}

_REQUEST = core_tags("Request")
_ATTRIBUTES = core_tags("Attributes")
_ATTRIBUTE = core_tags("Attribute")
_ATTRIBUTE_VALUE = core_tags("AttributeValue")
_ACTION_ATTRIBUTES = ext_tag("ActionAttributes")
_PATH_ATTRIBUTES = ext_tag("PathAttributes")


def split_attribute_value(raw: str) -> tuple[str, str]:
    """Split ``name:value`` at the first colon ("a:b:c" -> ("a", "b:c"))."""
    name, sep, value = raw.partition(":")
    if not sep:
        raise RequestParseError(f"value {raw!r} has no colon separator")
    if not name:
        raise RequestParseError(f"value {raw!r} has an empty property name")
    return name, value


@dataclass(frozen=True)
class PathGroup:
    """One element of the request path: a vertex, or the trailing edge."""

    category: str
    element_type: str  # KIND_VERTEX or KIND_EDGE
    values: tuple[tuple[str, str, str], ...]  # (attribute id, property name, value)

    def __init__(self, category: str, element_type: str, values: tuple) -> None:
        # frozen: the fields are written to the instance at once
        self.__dict__.update(category=category, element_type=element_type, values=values)


@dataclass(frozen=True)
class Request:
    actions: tuple[tuple[str, str], ...]  # (attribute id, value)
    path_groups: tuple[PathGroup, ...]

    def __init__(self, actions: tuple, path_groups: tuple) -> None:
        self.__dict__.update(actions=actions, path_groups=path_groups)

    def action_values(self, attribute_id: str) -> list[str]:
        """Bag of action attribute values for one attribute id."""
        return [value for attr_id, value in self.actions if attr_id == attribute_id]


def parse_request(xml_text: str) -> Request:
    """Parse request XML into the :class:`Request` the engine reads, in
    one walk over the tree; raises :class:`RequestParseError` when the
    document is malformed or the path groups break the subject-first /
    resource-last ordering.

    Faults are reported in document order, but for two kinds the walk
    holds back: the path order is checked when the walk ends, and then a
    path value that is not ``name:value``, the first in path order, is
    reported as :func:`split_attribute_value` reports it.
    """
    root = parse_xml(xml_text, RequestParseError)
    if root.tag not in _REQUEST:
        raise RequestParseError(f"root element is {root.tag!r}, expected Request")
    actions: list[tuple[str, str]] = []
    groups: list[PathGroup] = []
    unsplit = None  # the first path value split_attribute_value refuses
    saw_paths = False
    for child in root:
        tag = child.tag
        if tag == _ACTION_ATTRIBUTES:
            for elem in child:
                category = _category(elem, "ActionAttributes")
                if category != uris.CAT_ACTION:
                    raise RequestParseError(f"unexpected category {category!r} in ActionAttributes")
                actions += _attributes(elem, category)
        elif tag == _PATH_ATTRIBUTES:
            if saw_paths:
                raise RequestParseError("more than one PathAttributes element")
            saw_paths = True
            for elem in child:
                category = _category(elem, "PathAttributes")
                if category not in _PATH_CATEGORIES:
                    raise RequestParseError(f"unexpected path group category {category!r}")
                type_attr = elem.get("Type")
                if type_attr is None:
                    kind = KIND_EDGE if category == uris.CAT_PATH_EDGE else KIND_VERTEX
                elif type_attr in _TYPE_TO_KIND:
                    kind = _TYPE_TO_KIND[type_attr]
                else:
                    raise RequestParseError(f"invalid path group Type {type_attr!r}")
                if category == uris.CAT_PATH_EDGE and kind != KIND_EDGE:
                    raise RequestParseError("path-category:edge group typed as vertex")
                values = []
                for attr_id, raw in _attributes(elem, category):
                    name, colon, value = raw.partition(":")
                    if not (colon and name) and unsplit is None:
                        unsplit = raw
                    values.append((attr_id, name, value))
                groups.append(PathGroup(category, kind, tuple(values)))
        else:
            raise RequestParseError(f"unexpected element {local_name(child)!r} in Request")

    _check_path_order(groups)
    if unsplit is not None:
        split_attribute_value(unsplit)  # raises
    return Request(tuple(actions), tuple(groups))


def _category(elem, container: str) -> str:
    if elem.tag not in _ATTRIBUTES:
        raise RequestParseError(f"unexpected element {local_name(elem)!r} in {container}")
    category = elem.get("Category")
    if not category:
        raise RequestParseError(f"Attributes in {container} without Category")
    return category


def _attributes(elem, category: str) -> list[tuple[str, str]]:
    """(attribute id, value text) of each AttributeValue, in document order."""
    attributes: list[tuple[str, str]] = []
    for attr in elem:
        if attr.tag not in _ATTRIBUTE:
            raise RequestParseError(f"unexpected element {local_name(attr)!r} in Attributes")
        attr_id = attr.get("AttributeId")
        if not attr_id:
            raise RequestParseError("Attribute without AttributeId")
        count = len(attributes)
        for value in attr:
            if value.tag in _ATTRIBUTE_VALUE:
                attributes.append((attr_id, text_of(value)))
        if len(attributes) == count:
            raise RequestParseError(f"attribute {attr_id!r} has no AttributeValue")
    if not attributes:
        raise RequestParseError(f"empty Attributes element (category {category!r})")
    return attributes


def _check_path_order(groups: list[PathGroup]) -> None:
    categories = [group.category for group in groups]
    for category, name in ((uris.CAT_SUBJECT, "subject"), (uris.CAT_RESOURCE, "resource")):
        found = categories.count(category)
        if found != 1:
            raise RequestParseError(f"request path needs exactly one {name} group, found {found}")
    if categories[0] != uris.CAT_SUBJECT:
        raise RequestParseError("the subject group must come first in the path")
    if categories[-1] != uris.CAT_RESOURCE:
        raise RequestParseError("the resource group must come last in the path")
    if any(group.element_type == KIND_EDGE for group in groups[:-1]):
        raise RequestParseError("an edge group is only allowed as the trailing resource element")
