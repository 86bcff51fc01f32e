"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class GraphError(EngineError):
    """Base class for property-graph errors."""


class DuplicateIdError(GraphError):
    """A vertex or edge id is already present in the graph."""


class GraphFormatError(GraphError):
    """A graph file does not conform to the import format.

    ``line`` and ``column`` are 1-based when known, else None.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)
        self.line = line
        self.column = column


class ReferentialError(GraphError):
    """An edge names a vertex that the graph's records never define."""

    def __init__(self, edge_id, endpoint_id):
        super().__init__(
            f"edge {edge_id!r} references unknown vertex {endpoint_id!r}"
        )
        self.edge_id = edge_id
        self.endpoint_id = endpoint_id


class PolicyError(EngineError):
    """Base class for policy parsing/validation errors."""


class PolicySchemaError(PolicyError):
    """Policy XML violates the schema or a policy invariant.

    Carries the list of violations that made parsing fail.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.path}: {v.reason}" for v in self.violations)
        super().__init__(lines or "invalid policy")


class RequestParseError(EngineError):
    """Request XML violates the request format."""


class UnknownFunctionError(EngineError):
    """A function URI is not in the condition-function registry."""

    def __init__(self, uri):
        super().__init__(f"unknown function {uri!r}")
        self.uri = uri


class FilterEvalError(EngineError):
    """A pattern condition could not be evaluated against a path binding."""
