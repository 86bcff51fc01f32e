"""Parse access requests carrying an ordered graph path.

Requests wrap standard XACML ``Attributes`` elements in two extension
containers: ``ActionAttributes`` for the action bag and ``PathAttributes``
for the ordered list of graph elements the requester claims to traverse.
Each path attribute value encodes a property as ``name:value``, split at
the first colon, so values may themselves contain colons.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import uris
from .errors import RequestParseError
from .xmlutil import is_core, is_ext, local_name, parse_xml, text_of

KIND_VERTEX = "vertex"
KIND_EDGE = "edge"

_PATH_CATEGORIES = (
    uris.CAT_SUBJECT,
    uris.CAT_PATH_VERTEX,
    uris.CAT_PATH_EDGE,
    uris.CAT_RESOURCE,
)

_TYPE_TO_KIND = {
    uris.CAT_PATH_VERTEX: KIND_VERTEX,
    uris.CAT_PATH_EDGE: KIND_EDGE,
}


def split_attribute_value(raw: str) -> tuple[str, str]:
    """Split ``name:value`` at the first colon ("a:b:c" -> ("a", "b:c"))."""
    name, sep, value = raw.partition(":")
    if not sep:
        raise RequestParseError(f"value {raw!r} has no colon separator")
    if not name:
        raise RequestParseError(f"value {raw!r} has an empty property name")
    return name, value


@dataclass(frozen=True)
class AttributeGroup:
    category: str
    element_type: str | None  # vertex/edge for path groups, None for action
    attributes: tuple[tuple[str, str], ...]  # (attribute id, raw value)


@dataclass(frozen=True)
class Request:
    action_groups: tuple[AttributeGroup, ...]
    path_groups: tuple[AttributeGroup, ...]

    def action_values(self, attribute_id: str) -> list[str]:
        """Bag of action attribute values for one attribute id."""
        values = []
        for group in self.action_groups:
            for attr_id, raw in group.attributes:
                if attr_id == attribute_id:
                    values.append(raw)
        return values


def parse_request(xml_text: str) -> Request:
    """Parse request XML; raises :class:`RequestParseError` when the
    document is malformed or the path groups break the subject-first /
    resource-last ordering."""
    root = parse_xml(xml_text, RequestParseError)
    if not is_core(root, "Request"):
        raise RequestParseError(
            f"root element is {root.tag!r}, expected Request"
        )
    action_groups: list[AttributeGroup] = []
    path_groups: list[AttributeGroup] = []
    saw_paths = False
    for child in root:
        if is_ext(child, "ActionAttributes"):
            action_groups.extend(
                _parse_group(g, "ActionAttributes") for g in child
            )
        elif is_ext(child, "PathAttributes"):
            if saw_paths:
                raise RequestParseError("more than one PathAttributes element")
            saw_paths = True
            path_groups.extend(_parse_group(g, "PathAttributes") for g in child)
        else:
            raise RequestParseError(
                f"unexpected element {local_name(child)!r} in Request"
            )

    _check_path_order(path_groups)
    # colon-format errors surface at parse time, the first in path order
    for group in path_groups:
        for _, raw in group.attributes:
            split_attribute_value(raw)
    return Request(tuple(action_groups), tuple(path_groups))


def _parse_group(elem, container: str) -> AttributeGroup:
    if not is_core(elem, "Attributes"):
        raise RequestParseError(
            f"unexpected element {local_name(elem)!r} in {container}"
        )
    category = elem.get("Category")
    if not category:
        raise RequestParseError(f"Attributes in {container} without Category")

    element_type: str | None = None
    if container == "ActionAttributes":
        if category != uris.CAT_ACTION:
            raise RequestParseError(
                f"unexpected category {category!r} in ActionAttributes"
            )
    else:
        if category not in _PATH_CATEGORIES:
            raise RequestParseError(
                f"unexpected path group category {category!r}"
            )
        type_attr = elem.get("Type")
        if type_attr is not None:
            if type_attr not in _TYPE_TO_KIND:
                raise RequestParseError(
                    f"invalid path group Type {type_attr!r}"
                )
            element_type = _TYPE_TO_KIND[type_attr]
        elif category == uris.CAT_PATH_EDGE:
            element_type = KIND_EDGE
        else:
            element_type = KIND_VERTEX
        if category == uris.CAT_PATH_EDGE and element_type != KIND_EDGE:
            raise RequestParseError(
                "path-category:edge group typed as vertex"
            )

    attributes: list[tuple[str, str]] = []
    for attr in elem:
        if not is_core(attr, "Attribute"):
            raise RequestParseError(
                f"unexpected element {local_name(attr)!r} in Attributes"
            )
        attr_id = attr.get("AttributeId")
        if not attr_id:
            raise RequestParseError("Attribute without AttributeId")
        values = [v for v in attr if is_core(v, "AttributeValue")]
        if not values:
            raise RequestParseError(
                f"attribute {attr_id!r} has no AttributeValue"
            )
        for value in values:
            attributes.append((attr_id, text_of(value)))
    if not attributes:
        raise RequestParseError(
            f"empty Attributes element (category {category!r})"
        )
    return AttributeGroup(
        category=category,
        element_type=element_type,
        attributes=tuple(attributes),
    )


def _check_path_order(groups: list[AttributeGroup]) -> None:
    subjects = [i for i, g in enumerate(groups) if g.category == uris.CAT_SUBJECT]
    resources = [i for i, g in enumerate(groups) if g.category == uris.CAT_RESOURCE]
    if len(subjects) != 1:
        raise RequestParseError(
            f"request path needs exactly one subject group, found {len(subjects)}"
        )
    if len(resources) != 1:
        raise RequestParseError(
            f"request path needs exactly one resource group, found {len(resources)}"
        )
    if subjects[0] != 0:
        raise RequestParseError("the subject group must come first in the path")
    if resources[0] != len(groups) - 1:
        raise RequestParseError("the resource group must come last in the path")
    for i, group in enumerate(groups):
        if group.element_type == KIND_EDGE and i != len(groups) - 1:
            raise RequestParseError(
                "an edge group is only allowed as the trailing resource element"
            )
