"""Fuzzing of the file inputs through the command line, in process.

The demo policy XML, the demo request XML and a small CSV graph are
mutated: an attribute value changed, an element deleted or duplicated,
``Path``, ``Apply`` or request elements nested past the caps, a document
type declaration added, or the text cut short.  ``validate`` and
``eval`` must give each a defined outcome: per-file lines or one
``error:`` line, a decision or one ``error:`` line, and never an
exception out of :func:`graphpdp.cli.run`.
"""

import io
import shutil
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphpdp import uris
from graphpdp.cli import DECISION_EXIT_CODES, EXIT_USAGE, run
from graphpdp.policy_model import MAX_APPLY_DEPTH, MAX_PATH_DEPTH

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
POLICY_NAME = "pm_user_to_data_object.xml"
POLICY_TEXT = (FIXTURES / "policies" / POLICY_NAME).read_text(encoding="utf-8")
REQUEST_TEXT = (FIXTURES / "requests" / "access_data_object.xml").read_text(encoding="utf-8")
CSV_DIR = FIXTURES / "graphs" / "demo_csv"
CSV_NAMES = ("vertices.csv", "edges.csv")

# values an attribute may be changed to: every category, direction,
# Match and condition function the engine knows and some it does not,
# names a condition may or may not read, and lengths in and out of range
ATTRIBUTE_VALUES = st.sampled_from([
    uris.CAT_SUBJECT, uris.CAT_RESOURCE, uris.CAT_ACTION, uris.CAT_PATH_VERTEX,
    uris.CAT_PATH_EDGE, "urn:example:category",
    "from", "to", "any", "both", "",
    *uris.MATCH_FUNCTIONS, "urn:oasis:names:tc:xacml:1.0:function:regexp-string-match",
    *uris.CONDITION_FUNCTIONS, "urn:example:function",
    "s", "e", "_v0", "_v2", "_v4", "my user", "p1", "x",
    "0", "1", "2", "-1", "two", str(10**30), "9" * 5000,
])


def _nest(parent: ET.Element, child: ET.Element, depth: int) -> None:
    """Put ``child`` inside ``depth`` copies of its own tag and
    attributes, in its place in ``parent``."""
    index = list(parent).index(child)
    outer = inner = ET.Element(child.tag, child.attrib)
    for _ in range(depth - 1):
        inner = ET.SubElement(inner, child.tag, child.attrib)
    parent.remove(child)
    inner.append(child)
    parent.insert(index, outer)


@st.composite
def mutated_xml(draw, text: str, root_name: str) -> str:
    """``text`` with one or two elements changed, then sometimes a
    document type declaration added or the text cut short."""
    root = ET.fromstring(text)
    for _ in range(draw(st.integers(1, 2))):
        parent_of = {child: parent for parent in root.iter() for child in parent}
        element = draw(st.sampled_from(list(root.iter())))
        action = draw(st.sampled_from(["attribute", "delete", "duplicate", "nest"]))
        parent = parent_of.get(element)
        if action == "attribute" or parent is None:
            names = sorted(element.attrib) or ["VertexId"]
            element.set(draw(st.sampled_from(names)), draw(ATTRIBUTE_VALUES))
        elif action == "delete":
            parent.remove(element)
        elif action == "duplicate":
            parent.insert(list(parent).index(element), ET.fromstring(ET.tostring(element)))
        else:
            depth = draw(st.sampled_from([2, MAX_APPLY_DEPTH + 1, MAX_PATH_DEPTH + 1]))
            _nest(parent, element, depth)
    changed = ET.tostring(root, encoding="unicode")
    if draw(st.booleans()):
        declaration = f'<!DOCTYPE {root_name} [<!ENTITY e "v">]>\n'
        changed = declaration + changed
    if draw(st.integers(0, 4)) == 0:
        changed = changed[:draw(st.integers(0, len(changed)))]
    return changed


def nested_policy(tag: str, depth: int) -> str:
    """The demo policy with its first ``tag`` element inside ``depth``
    copies of itself: the condition's Apply is one level deep and the
    inner Path two, so 98 copies keep both within the caps and 101 do not."""
    root = ET.fromstring(POLICY_TEXT)
    parent_of = {child: parent for parent in root.iter() for child in parent}
    element = next(root.iter(tag))
    _nest(parent_of[element], element, depth)
    return ET.tostring(root, encoding="unicode")


@st.composite
def mutated_csv(draw, text: str) -> str:
    """``text`` with a line deleted or duplicated, or a cell changed,
    then sometimes cut short."""
    lines = text.splitlines(keepends=True)
    index = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["delete", "duplicate", "cell"]))
    if action == "delete":
        del lines[index]
    elif action == "duplicate":
        lines.insert(index, lines[index])
    else:
        cells = lines[index].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            ATTRIBUTE_VALUES | st.sampled_from(["1196741133", "accessRelations", '"', "a,b"]))
        lines[index] = ",".join(cells) + "\n"
    changed = "".join(lines)
    if draw(st.integers(0, 4)) == 0:
        changed = changed[:draw(st.integers(0, len(changed)))]
    return changed


@st.composite
def mutated_inputs(draw) -> tuple[str, str, dict[str, str]]:
    """The policy, the request and the CSV files, one of them mutated."""
    policy, request = POLICY_TEXT, REQUEST_TEXT
    graph = {name: (CSV_DIR / name).read_text(encoding="utf-8") for name in CSV_NAMES}
    which = draw(st.sampled_from(["policy", "nested policy", "request", "graph"]))
    if which == "policy":
        policy = draw(mutated_xml(POLICY_TEXT, "xacml:Policy"))
    elif which == "nested policy":
        tag = draw(st.sampled_from([f"{{{uris.XACML3_NS}}}Apply", f"{{{uris.XACML4G_NS}}}Path"]))
        policy = nested_policy(tag, draw(st.sampled_from([98, 101])))
    elif which == "request":
        request = draw(mutated_xml(REQUEST_TEXT, "Request"))
    else:
        name = draw(st.sampled_from(CSV_NAMES))
        graph[name] = draw(mutated_csv(graph[name]))
    return policy, request, graph


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(inputs=mutated_inputs())
def test_validate_and_eval_give_any_file_input_a_defined_outcome(tmp_path, inputs):
    policy, request, graph = inputs
    policy_dir, graph_dir = tmp_path / "policies", tmp_path / "graph"
    shutil.rmtree(policy_dir, ignore_errors=True)
    shutil.rmtree(graph_dir, ignore_errors=True)
    policy_dir.mkdir()
    graph_dir.mkdir()
    (policy_dir / POLICY_NAME).write_text(policy, encoding="utf-8")
    request_file = tmp_path / "request.xml"
    request_file.write_text(request, encoding="utf-8")
    for name, text in graph.items():
        (graph_dir / name).write_text(text, encoding="utf-8")

    code, out, err = _run(["validate", "--policies", str(policy_dir)])
    violations = []
    if code == EXIT_USAGE:
        assert out == "" and _one_error_line(err), err
    else:
        *lines, summary = out.splitlines()
        assert lines and all(line.startswith(f"{POLICY_NAME}: ") for line in lines), out
        violations = [line for line in lines if line != f"{POLICY_NAME}: OK"
                      and not line.startswith(f"{POLICY_NAME}: warning: ")]
        assert summary == f"1 policies checked, {len(violations)} violations", out
        assert (code, err) == (1 if violations else 0, "")

    code, out, err = _run([
        "eval", "--policies", str(policy_dir), "--request", str(request_file),
        "--graph", str(graph_dir), "--format", "csv",
    ])
    if code == EXIT_USAGE:
        assert out == "" and _one_error_line(err), err
    else:
        assert code in DECISION_EXIT_CODES.values() and err == "", (code, err)
        assert out.startswith("<Response ") and "<Decision>" in out, out
    if violations:
        # policies load first, so a policy fault is eval's one error line:
        # validate's violations, the first first, joined by "; "
        assert (code, err) == (EXIT_USAGE, f"error: {'; '.join(violations)}\n")
