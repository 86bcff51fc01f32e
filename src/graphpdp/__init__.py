"""Datastore-independent authorization engine for graph-structured data.

Policies extend XACML with path patterns over a property graph; requests
carry the path the subject claims to traverse.  A decision holds when some
request path lies inside a rule-pattern match (Cypher-style intersection),
evaluated either natively on the in-memory graph or by exporting the
equivalent Cypher query.
"""

from .errors import (
    EngineError,
    FilterEvalError,
    GraphError,
    GraphFormatError,
    PolicyError,
    PolicySchemaError,
    ReferentialError,
    RequestParseError,
    UnknownFunctionError,
)
from .graph_store import (
    EdgeRecord,
    PropertyGraph,
    VertexRecord,
    build_source_subset,
    load_graph_csv,
    load_graph_json,
    load_graph_path,
    serialize_graph,
)
from .path_matcher import check_intersection, match_names, match_plan
from .pattern_compiler import QueryPlan, compile_request_path, compile_rule_pattern, emit_cypher
from .pdp import Decision, DecisionEngine, Response, combine, match_target, render_response_xml
from .policy_model import Meta, Policy, Rule, load_policy_dir, parse_policy, validate_policy
from .request_model import Request, parse_request

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "DecisionEngine",
    "EdgeRecord",
    "EngineError",
    "FilterEvalError",
    "GraphError",
    "GraphFormatError",
    "Meta",
    "Policy",
    "PolicyError",
    "PolicySchemaError",
    "PropertyGraph",
    "QueryPlan",
    "ReferentialError",
    "Request",
    "RequestParseError",
    "Response",
    "Rule",
    "UnknownFunctionError",
    "VertexRecord",
    "build_source_subset",
    "check_intersection",
    "combine",
    "compile_request_path",
    "compile_rule_pattern",
    "emit_cypher",
    "load_graph_csv",
    "load_graph_json",
    "load_graph_path",
    "load_policy_dir",
    "match_names",
    "match_plan",
    "match_target",
    "parse_policy",
    "parse_request",
    "render_response_xml",
    "serialize_graph",
    "validate_policy",
]
