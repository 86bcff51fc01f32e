"""Seeded workload generators for the decision benchmark.

Each generator writes a policy directory, a graph file and one request
XML file per operation into a work directory, and returns a
:class:`Workload` manifest.  Every request carries the response its class
implies, so outcomes are checked by construction; the graph is built so
that the implied outcome is the only possible one (see each generator).
Nothing here imports ``graphpdp``: the package only ever sees the files.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"

NS = "urn:oasis:names:tc:xacml:3.0:core:schema:wd-17"
CAT_SUBJECT = "urn:oasis:names:tc:xacml:1.0:subject-category:access-subject"
CAT_RESOURCE = "urn:oasis:names:tc:xacml:3.0:attribute-category:resource"
CAT_VERTEX = "xacml4g:1.0:path-category:vertex"
CAT_EDGE = "xacml4g:1.0:path-category:edge"
FIRST_APPLICABLE = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable"

NOT_APPLICABLE_XML = f"""\
<Response xmlns="{NS}">
  <Result>
    <Decision>NotApplicable</Decision>
    <Status>
      <StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok"/>
    </Status>
  </Result>
</Response>
"""


def pinned_permit_xml() -> str:
    """The demo Permit response exactly as the acceptance tests pin it.

    Read from the test module's source rather than imported, so the
    benchmark stays stdlib-only and cannot drift from the pinned bytes.
    """
    tree = ast.parse(ACCEPTANCE_TESTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "PERMIT_XML" for t in node.targets)
            and isinstance(node.value, ast.Constant)
        ):
            return node.value.value
    raise LookupError(f"PERMIT_XML not found in {ACCEPTANCE_TESTS}")


@dataclass
class Op:
    """One decision request: its class, XML file and expected response."""

    cls: str
    request_file: str
    expected: str


@dataclass
class Workload:
    name: str
    policy_dir: str
    graph_file: str
    # graph_file is a source graph to be filtered through the policy Meta
    from_source: bool
    # one request cycle; runs repeat it whole, so medians and counts are
    # the same whatever the number of cycles a run fits in
    ops: list[Op]
    shares: dict[str, int]
    # a source graph whose Meta filtering is timed as a layer probe only,
    # for workloads whose set-up does not filter
    probe_source: str | None = None
    inputs_digest: str = ""
    sizes: dict[str, int] = field(default_factory=dict)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=1), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Workload":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["ops"] = [Op(**op) for op in doc["ops"]]
        return cls(**doc)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# -- XML writers ------------------------------------------------------------


def _path_group(category: str, attribute_id: str, key: str) -> str:
    return (
        f'    <Attributes Category="{category}">\n'
        f'      <Attribute AttributeId="{attribute_id}">\n'
        f"        <AttributeValue>_key:{key}</AttributeValue>\n"
        "      </Attribute>\n"
        "    </Attributes>\n"
    )


def request_xml(keys: list[str]) -> str:
    """Request in the fixture's layout: subject, inner vertices, resource."""
    groups = [_path_group(CAT_SUBJECT, "urn:oasis:names:tc:xacml:1.0:subject:subject-id", keys[0])]
    for key in keys[1:-1]:
        groups.append(_path_group(CAT_VERTEX, "xacml4g:1.0:path:vertex-id", key))
    groups.append(
        _path_group(CAT_RESOURCE, "urn:oasis:names:tc:xacml:1.0:resource:resource-id", keys[-1])
    )
    return (
        f'<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<Request xmlns="{NS}"\n'
        '         xmlns:xacml4g="xacml4g:1.0"\n'
        '         ReturnPolicyIdList="true">\n'
        "  <xacml4g:ActionAttributes>\n"
        '    <Attributes Category="urn:oasis:names:tc:xacml:3.0:attribute-category:action">\n'
        '      <Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:action:action-id">\n'
        "        <AttributeValue>access-do</AttributeValue>\n"
        "      </Attribute>\n"
        "    </Attributes>\n"
        "  </xacml4g:ActionAttributes>\n"
        "  <xacml4g:PathAttributes>\n"
        + "".join(groups)
        + "  </xacml4g:PathAttributes>\n"
        "</Request>\n"
    )


def _graph_json(vertices, edges) -> str:
    doc = {
        "vertices": [
            {"id": vid, "label": label, "properties": props}
            for vid, label, props in vertices
        ],
        "edges": [
            {"id": eid, "type": etype, "from": a, "to": b, "properties": props}
            for eid, etype, a, b, props in edges
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    (path / "policies").mkdir(parents=True)
    (path / "requests").mkdir()
    return path


def _write_ops(work: Path, requests: list[tuple[str, list[str], str]]) -> list[Op]:
    ops = []
    for i, (cls, keys, expected) in enumerate(requests):
        file = work / "requests" / f"{i:03d}-{cls}.xml"
        file.write_text(request_xml(keys), encoding="utf-8")
        ops.append(Op(cls, str(file), expected))
    return ops


def _finish(workload: Workload, work: Path) -> Workload:
    files = [p for p in work.rglob("*") if p.is_file() and p.suffix in (".xml", ".json")]
    workload.inputs_digest = digest_files(
        files + [Path(workload.graph_file)] + list(Path(workload.policy_dir).glob("*.xml"))
    )
    return workload


def _keys(rng: random.Random, n: int) -> list[str]:
    """Distinct ten-digit ids, like the fixture's; equal length keeps
    string order equal to numeric order."""
    return [str(k) for k in rng.sample(range(10**9, 10**10), n)]


# -- demo -------------------------------------------------------------------


def demo(work: Path, seed: int) -> Workload:
    """The shipped fixture, unchanged: one request, expected Permit.

    The seed has nothing to vary here; it is accepted for a uniform CLI.
    """
    del seed
    _fresh_dir(work)
    request = FIXTURES / "requests" / "access_data_object.xml"
    workload = Workload(
        name="demo",
        policy_dir=str(FIXTURES / "policies"),
        graph_file=str(FIXTURES / "graphs" / "demo_graph.json"),
        from_source=False,
        ops=[Op("permit", str(request), pinned_permit_xml())],
        shares={"permit": 1},
        probe_source=str(FIXTURES / "graphs" / "demo_source.json"),
    )
    workload.inputs_digest = digest_files(
        [request, Path(workload.graph_file), Path(workload.probe_source)]
        + list(Path(workload.policy_dir).glob("*.xml"))
    )
    return workload


# -- project_graph ----------------------------------------------------------


def project_graph(
    work: Path,
    seed: int,
    n_pm: int = 200,
    n_ext: int = 200,
    n_task: int = 1600,
    n_doc: int = 4400,
    per_class: int = 2,
) -> Workload:
    """The fixture policy on a seeded project graph, read through Meta.

    Every policy-visible vertex has out-degree 2: users have two
    ``accessRelations`` to distinct tasks, tasks two ``taskDataRelations``
    to distinct documents, documents two ``dataObjectRelations`` to other
    documents.  The source graph also holds ``comments`` vertices and
    ``annotates``/``supersedes`` edges that the Meta drops.

    Request classes, in a fixed cyclic order, ``per_class`` of each:

    * ``permit``: pmUser -(worksOn|allocates)-> task -> document.  Only
      the rule match anchored at that pmUser contains the path (no two
      edges join the same pair of user and task, or task and document),
      so the search stops there, after every pmUser sorting earlier.
      Subjects sit at evenly spaced ranks within the middle fifth of the
      pmUser order, so the class costs about half an exhaustive search
      and its median, which is the workload's p50, is steady.
    * ``exhaustive``: the same shape from an extUser.  No rule match
      anchors there, so every match and its filter is enumerated.
    * ``absent``: pmUser -> task -> a document the task has no edge to.
      The request has no match, so rule enumeration never starts.
    """
    rng = random.Random(seed)
    _fresh_dir(work)
    shutil.copy(FIXTURES / "policies" / "pm_user_to_data_object.xml", work / "policies")

    ids = _keys(rng, n_pm + n_ext + n_task + n_doc + n_doc // 2)
    pm, rest = ids[:n_pm], ids[n_pm:]
    ext, rest = rest[:n_ext], rest[n_ext:]
    tasks, rest = rest[:n_task], rest[n_task:]
    docs, comments = rest[:n_doc], rest[n_doc:]

    vertices = []
    for vid in pm:
        vertices.append((vid, "dataObjects", {"_key": vid, "typeCode": "pmUser"}))
    for vid in ext:
        vertices.append((vid, "dataObjects", {"_key": vid, "typeCode": "extUser"}))
    for vid in tasks:
        vertices.append((vid, "tasks", {"_key": vid}))
    for vid in docs:
        vertices.append((vid, "dataObjects", {"_key": vid, "typeCode": "designDoc"}))
    for vid in comments:
        vertices.append((vid, "comments", {"_key": vid}))
    rng.shuffle(vertices)

    edges = []
    access: dict[str, list[str]] = {}
    produces: dict[str, list[str]] = {}

    def add(etype, a, b, kind):
        edges.append((f"{etype[0]}{len(edges):06d}", etype, a, b, {"typeKind": kind}))

    pm_users = set(pm)
    for user in pm + ext:
        access[user] = rng.sample(tasks, 2)
        if user in pm_users:
            kinds = [rng.choice(("worksOn", "allocates")),
                     rng.choice(("worksOn", "allocates", "observes"))]
        else:
            kinds = [rng.choice(("worksOn", "allocates", "observes")) for _ in range(2)]
        for task, kind in zip(access[user], kinds):
            add("accessRelations", user, task, kind)
    for task in tasks:
        produces[task] = rng.sample(docs, 2)
        for doc in produces[task]:
            add("taskDataRelations", task, doc, "produces")
    for doc in docs:
        for other in [d for d in rng.sample(docs, 3) if d != doc][:2]:
            add("dataObjectRelations", doc, other, "references")
    for comment in comments:
        add("annotates", comment, rng.choice(docs), "comment")
    for doc in rng.sample(docs, n_doc // 2):
        add("supersedes", doc, rng.choice(docs), "revision")
    rng.shuffle(edges)

    source = work / "source.json"
    source.write_text(_graph_json(vertices, edges), encoding="utf-8")

    permit_xml = pinned_permit_xml()
    ranked_pm = sorted(pm)
    requests = []
    for k in range(per_class):
        user = ranked_pm[(4 * per_class + 2 * k + 1) * n_pm // (10 * per_class)]
        task = access[user][0]
        requests.append(("permit", [user, task, produces[task][0]], permit_xml))

        user = ext[k]
        task = access[user][0]
        requests.append(("exhaustive", [user, task, produces[task][0]], NOT_APPLICABLE_XML))

        user = pm[k]
        task = access[user][0]
        missing = next(d for d in docs if d not in produces[task])
        requests.append(("absent", [user, task, missing], NOT_APPLICABLE_XML))

    workload = Workload(
        name="project_graph",
        policy_dir=str(work / "policies"),
        graph_file=str(source),
        from_source=True,
        ops=_write_ops(work, requests),
        shares={"permit": 1, "exhaustive": 1, "absent": 1},
        sizes={"visible_vertices": n_pm + n_ext + n_task + n_doc,
               "visible_edges": 2 * (n_pm + n_ext + n_task + n_doc)},
    )
    return _finish(workload, work)


# -- deep_varlen ------------------------------------------------------------

DEEP_VARLEN_POLICY = f"""\
<?xml version="1.0" encoding="UTF-8"?>
<Policy xmlns="{NS}"
        xmlns:xacml4g="xacml4g:1.0"
        PolicyId="deepVarlenReach"
        RuleCombiningAlgId="{FIRST_APPLICABLE}">
  <xacml4g:Meta>
    <xacml4g:Vertices>
      <xacml4g:VertexEntity>nodes</xacml4g:VertexEntity>
    </xacml4g:Vertices>
    <xacml4g:Edges>
      <xacml4g:EdgeEntity>links</xacml4g:EdgeEntity>
    </xacml4g:Edges>
  </xacml4g:Meta>
  <Rule RuleId="reachFromAnchor" Effect="Permit">
    <xacml4g:Pattern PatternId="unboundedReach">
      <xacml4g:Path>
        <xacml4g:Vertex Category="{CAT_SUBJECT}" VertexId="s">
          <AnyOf>
            <AllOf>
              <Match MatchId="urn:oasis:names:tc:xacml:1.0:function:string-equal">
                <AttributeValue>{{anchor}}</AttributeValue>
                <AttributeDesignator AttributeId="_key" Category="{CAT_VERTEX}"/>
              </Match>
            </AllOf>
          </AnyOf>
        </xacml4g:Vertex>
        <xacml4g:Edge MinLength="1" Category="{CAT_EDGE}"/>
        <xacml4g:Vertex Category="{CAT_RESOURCE}" VertexId="r"/>
      </xacml4g:Path>
    </xacml4g:Pattern>
    <xacml4g:PatternCondition>
      <Apply FunctionId="xacml4g:1.0:function:equal">
        <AttributeDesignator AttributeId="zone" Category="{CAT_VERTEX}" VertexId="r"/>
        <AttributeValue>core</AttributeValue>
      </Apply>
    </xacml4g:PatternCondition>
  </Rule>
</Policy>
"""


def deep_varlen(
    work: Path, seed: int, core: int = 120, islands: int = 1, dropped: int = 60
) -> Workload:
    """One ``MinLength="1"`` step with no ``MaxLength`` from a ``_key`` anchor.

    The core is the union of two random derangements, so every core vertex
    has out-degree 2 and in-degree 2 and no edge repeats a (from, to)
    pair.  Uniform degree keeps the anchor's trail count, which sets the
    cost, within a few percent across seeds; a plain random out-degree-2
    graph varies it by a quarter.  Each request claims the edge of a
    two-vertex island the anchor cannot reach, so the decision is
    NotApplicable only after every trail of up to ``varlen_cap`` hops has
    been enumerated.  The rule's condition holds on every core vertex, so
    each trail also pays one filter evaluation.
    """
    rng = random.Random(seed)
    _fresh_dir(work)
    ids = _keys(rng, core + 2 * islands + dropped)
    core_ids, island_ids, log_ids = ids[:core], ids[core:core + 2 * islands], ids[core + 2 * islands:]
    anchor = rng.choice(core_ids)
    (work / "policies" / "deep_varlen.xml").write_text(
        DEEP_VARLEN_POLICY.replace("{anchor}", anchor), encoding="utf-8"
    )

    vertices = [(v, "nodes", {"_key": v, "zone": "core"}) for v in core_ids]
    vertices += [(v, "nodes", {"_key": v, "zone": "island"}) for v in island_ids]
    vertices += [(v, "logs", {"_key": v}) for v in log_ids]
    rng.shuffle(vertices)

    pairs: set[tuple[str, str]] = set()
    for _ in range(2):
        while True:
            target = core_ids[:]
            rng.shuffle(target)
            if all(a != b and (a, b) not in pairs for a, b in zip(core_ids, target)):
                break
        pairs.update(zip(core_ids, target))
    links = sorted(pairs)
    links += [(island_ids[2 * i], island_ids[2 * i + 1]) for i in range(islands)]
    edges = [(f"l{i:05d}", "links", a, b, {}) for i, (a, b) in enumerate(links)]
    edges += [(f"a{i:05d}", "audit", v, rng.choice(core_ids), {}) for i, v in enumerate(log_ids)]
    rng.shuffle(edges)

    source = work / "source.json"
    source.write_text(_graph_json(vertices, edges), encoding="utf-8")
    requests = [
        ("unreachable", [island_ids[2 * i], island_ids[2 * i + 1]], NOT_APPLICABLE_XML)
        for i in range(islands)
    ]
    workload = Workload(
        name="deep_varlen",
        policy_dir=str(work / "policies"),
        graph_file=str(source),
        from_source=True,
        ops=_write_ops(work, requests),
        shares={"unreachable": 1},
        sizes={"core_vertices": core, "islands": islands},
    )
    return _finish(workload, work)


GENERATORS = {"demo": demo, "project_graph": project_graph, "deep_varlen": deep_varlen}
