"""Golden digest of the request front end on seeded mutations of the demo
request.

Each of 400 cases starts from the shipped demo request (one action and
a subject, vertex and resource path group) and applies ``random.Random``
mutations drawn from its seed: path values and categories replaced,
groups deleted, duplicated, reordered or emptied, an ``AttributeValue``
missing, values with no colon or an empty property name, numeric text
in other spellings, a trailing edge group, stray elements, and a broken
or differently spelled document.  The digest hashes each case's outcome:
the parsed :class:`~graphpdp.request_model.Request`, or the
:class:`~graphpdp.errors.RequestParseError` message; and for each parsed
request, the steps of its ``compile_request_path`` plan, the result of
every step's check on every demo graph record, and the request pattern
as Cypher prints it (or the error that refuses it).  A change to what
the front end accepts, refuses, says or builds changes the digest.
"""

import hashlib
import random

from graphpdp import uris
from graphpdp.errors import EngineError, RequestParseError
from graphpdp.graph_store import load_graph_path
from graphpdp.pattern_compiler import compile_request_path, render_pattern
from graphpdp.request_model import parse_request

CASES = 400
GOLDEN = "37b25deed34c1ad9c68dc431f5dc54e4c4e1719593e49d880954108dbd9c0ba4"

XMLNS = f'xmlns="{uris.XACML3_NS}" xmlns:xacml4g="{uris.XACML4G_NS}"'

VALUES = (
    "_key:1196741133", "_key:1196741400", "_key:1196741778", "_key:1196741800",
    "_key:1196742142", "_key:1196742600", "_key:1196741133.0", "_key:+1196741778",
    "_key:1.196742142e9", "_key:١١٩٦٧٤١١٣٣",
    "_key:1196741133 ", "  _key:1196741400", "_key:0x1", "_key:", "_key:1_196_741_133",
    "typeCode:pmUser", "typeCode:designDoc", "typeCode:PMUSER", "name:architecture design",
    "name:a:b:c", "nocolon", ":empty-name", "typeKind:worksOn", "typeKind:produces",
    "typeKind:observes", "ghost:1", "_key:²",
)
EDGE_VALUES = ("typeKind:worksOn", "typeKind:produces", "typeKind:1", "nocolon", "id:td-1")
CATEGORIES = (
    uris.CAT_SUBJECT, uris.CAT_PATH_VERTEX, uris.CAT_PATH_EDGE, uris.CAT_RESOURCE,
    uris.CAT_ACTION, "urn:example:other", "", None,
)
TYPES = (uris.CAT_PATH_VERTEX, uris.CAT_PATH_EDGE, "urn:example:bogus")


def demo_groups() -> list:
    """The demo request's path groups: ``[category, Type, [(attribute id,
    [values])]]`` each, in the order the fixture holds them."""
    return [
        [uris.CAT_SUBJECT, None, [(uris.ATTR_SUBJECT_ID, ["_key:1196741133"])]],
        [uris.CAT_PATH_VERTEX, None, [(uris.ATTR_PATH_VERTEX_ID, ["_key:1196741778"])]],
        [uris.CAT_RESOURCE, None, [(uris.ATTR_RESOURCE_ID, ["_key:1196742142"])]],
    ]


def render_group(group, core: str) -> str:
    category, type_attr, attributes = group
    head = f"<{core}Attributes"
    if category is not None:
        head += f' Category="{category}"'
    if type_attr is not None:
        head += f' Type="{type_attr}"'
    parts = [head + ">"]
    for attr_id, values in attributes:
        parts.append(f"<{core}Attribute" + (f' AttributeId="{attr_id}">' if attr_id else ">"))
        parts.extend(f"<{core}AttributeValue>{v}</{core}AttributeValue>" for v in values)
        parts.append(f"</{core}Attribute>")
    parts.append(f"</{core}Attributes>")
    return "".join(parts)


def mutate_group(rng: random.Random, group) -> None:
    roll = rng.random()
    attributes = group[2]
    if roll < 0.3 and attributes:
        attr_id, values = attributes[rng.randrange(len(attributes))]
        if values:
            values[rng.randrange(len(values))] = rng.choice(VALUES)
    elif roll < 0.4:
        group[0] = rng.choice(CATEGORIES)
    elif roll < 0.5:
        group[1] = rng.choice(TYPES)
    elif roll < 0.6 and attributes:
        attributes[rng.randrange(len(attributes))][1].append(rng.choice(VALUES))
    elif roll < 0.7:
        attributes.append((rng.choice((uris.ATTR_PATH_VERTEX_ID, "urn:example:attr")),
                           [rng.choice(VALUES)]))
    elif roll < 0.74 and attributes:
        attributes[rng.randrange(len(attributes))][1].clear()  # no AttributeValue
    elif roll < 0.78:
        attributes.append((uris.ATTR_PATH_VERTEX_ID, []))  # no AttributeValue, last
    elif roll < 0.84:
        attributes.clear()  # an empty Attributes element
    elif roll < 0.9 and attributes:
        attr_id, values = attributes[0]
        attributes[0] = ("", values)  # no AttributeId


def mutate_path(rng: random.Random, groups: list) -> None:
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.4 and groups:
            mutate_group(rng, rng.choice(groups))
        elif roll < 0.48 and groups:
            del groups[rng.randrange(len(groups))]
        elif roll < 0.56 and groups:
            copy = rng.choice(groups)
            groups.insert(rng.randrange(len(groups) + 1),
                          [copy[0], copy[1], [(a, list(v)) for a, v in copy[2]]])
        elif roll < 0.62 and len(groups) > 1:
            i, j = rng.sample(range(len(groups)), 2)
            groups[i], groups[j] = groups[j], groups[i]
        elif roll < 0.74:
            vertex = [uris.CAT_PATH_VERTEX, None,
                      [(uris.ATTR_PATH_VERTEX_ID, [rng.choice(VALUES)])]]
            groups.insert(rng.randint(1, max(1, len(groups) - 1)), vertex)
        else:
            # a trailing edge group: the resource typed as an edge, or an
            # edge group after the resource
            edge = [uris.CAT_RESOURCE, uris.CAT_PATH_EDGE,
                    [(uris.ATTR_RESOURCE_ID,
                      [rng.choice(EDGE_VALUES) for _ in range(rng.randint(1, 2))])]]
            if rng.random() < 0.3:
                edge[0], edge[1] = uris.CAT_PATH_EDGE, rng.choice((None, uris.CAT_PATH_EDGE))
            if groups and rng.random() < 0.6:
                groups[-1] = edge
            else:
                groups.append(edge)


def request_text(rng: random.Random) -> str:
    groups = demo_groups()
    mutate_path(rng, groups)
    actions = [[uris.CAT_ACTION, None, [(uris.ATTR_ACTION_ID, ["access-do"])]]]
    roll = rng.random()
    if roll < 0.05:
        actions[0][0] = rng.choice(CATEGORIES)
    elif roll < 0.1:
        actions[0][2][0][1].append("read")
    elif roll < 0.13:
        actions = []
    elif roll < 0.16:
        actions.append([uris.CAT_ACTION, None, [(uris.ATTR_ACTION_ID, [""])]])
    # no namespace on the core elements now and then; they are accepted so
    no_ns = rng.random() < 0.1
    core = "" if no_ns else rng.choice(("", "", "", "x:"))
    xmlns = f'xmlns:xacml4g="{uris.XACML4G_NS}"' if no_ns else XMLNS
    if core == "x:":
        xmlns += f' xmlns:x="{uris.XACML3_NS}"'
    path = "".join(render_group(g, core) for g in groups)
    if rng.random() < 0.04:
        path += f"<{core}Attribute/>"  # not an Attributes element
    body = ("<xacml4g:ActionAttributes>"
            + "".join(render_group(g, core) for g in actions)
            + "</xacml4g:ActionAttributes>")
    body += f"<xacml4g:PathAttributes>{path}</xacml4g:PathAttributes>"
    roll = rng.random()
    if roll < 0.03:
        body += "<xacml4g:PathAttributes/>"
    elif roll < 0.05:
        body += "<xacml4g:Extra/>"
    root = rng.choice((f"{core}Request",) * 30 + (f"{core}Response",))
    text = f'<{root} {xmlns} ReturnPolicyIdList="true">{body}</{root}>'
    if rng.random() < 0.02:
        text = text[: rng.randrange(len(text))]  # not well-formed
    return text


def _check_results(check, records) -> str:
    if check is None:
        return "-"
    return "".join("1" if check(record) else "0" for record in records)


def request_outcome(text: str, records) -> str:
    try:
        request = parse_request(text)
    except RequestParseError as error:
        return f"RequestParseError: {error}"
    plan = compile_request_path(request.path_groups)
    parts = [repr(request), repr(plan.steps), repr(plan.filter)]
    parts.extend(_check_results(check, records) for check in plan.checks)
    try:
        parts.append(render_pattern(plan, path="Request"))
    except EngineError as error:
        parts.append(f"EngineError: {error}")
    return "\n".join(parts)


def golden_digest(graph_file, cases: int = CASES) -> str:
    graph = load_graph_path(graph_file)
    records = sorted(graph.vertices(), key=lambda r: r.id)
    records += sorted(graph.edges(), key=lambda r: r.id)
    out = hashlib.sha256()
    for seed in range(cases):
        out.update(request_outcome(request_text(random.Random(seed)), records).encode())
        out.update(b"|")
    return out.hexdigest()


def test_request_front_end_equals_the_golden_digest(demo_graph_file):
    assert golden_digest(demo_graph_file) == GOLDEN
