"""Command line front end: validate, build-graph, eval, emit-cypher, serve.

Exit codes for ``eval`` encode the decision so shell pipelines can branch
on it: 0 Permit, 1 Deny, 3 NotApplicable, 4 Indeterminate; 2 is reserved
for parse/configuration failures across all commands.
"""

from __future__ import annotations

import argparse
import logging
import queue
import sys
import threading
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

from .errors import EngineError, GraphError, PolicySchemaError, RequestParseError
from .graph_store import PropertyGraph, build_source_subset, load_graph_path, serialize_graph
from .pattern_compiler import compile_request_path, emit_cypher
from .pdp import DecisionEngine, compile_rule, render_response_xml
from .policy_model import Policy, load_policy_dir, parse_policy, policy_files
from .request_model import parse_request

log = logging.getLogger("graphpdp")

DECISION_EXIT_CODES = {
    "Permit": 0,
    "Deny": 1,
    "NotApplicable": 3,
    "Indeterminate": 4,
}
EXIT_USAGE = 2

# A decision request is a few kilobytes of XML; refuse longer bodies
# before reading them.
MAX_BODY_BYTES = 1 << 20
# Seconds a connection may stall on a read or write before it is dropped.
SOCKET_TIMEOUT_S = 10


@dataclass
class EngineConfig:
    policy_dir: Path
    graph_file: Path | None = None
    source_file: Path | None = None
    varlen_cap: int = 8
    format: str = "json"

    def check(self, need_graph: bool = True) -> None:
        if self.varlen_cap < 1:
            raise EngineError("--varlen-cap must be >= 1")
        if self.format not in ("json", "csv"):
            raise EngineError(f"unsupported graph format {self.format!r}")
        have = sum(p is not None for p in (self.graph_file, self.source_file))
        if need_graph and have != 1:
            raise EngineError("exactly one of --graph/--source is required")
        if not need_graph and have > 1:
            raise EngineError("--graph and --source are mutually exclusive")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read_text(path: Path) -> str:
    """The file's text; a file that is not UTF-8 is an error naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EngineError(f"{path}: not UTF-8: {exc}") from None


def _load_graph_file(path: Path, format: str) -> PropertyGraph:
    """:func:`load_graph_path`, its errors starting with the file, as a
    policy's start with the policy file."""
    try:
        return load_graph_path(path, format)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc


def _load_graph(config: EngineConfig, policies: list[Policy]) -> PropertyGraph | None:
    if config.graph_file is not None:
        return _load_graph_file(config.graph_file, config.format)
    if config.source_file is None:
        return None
    source = _load_graph_file(config.source_file, config.format)
    meta = next((p.meta for p in policies if p.meta is not None), None)
    if meta is None:
        raise EngineError(
            "--source given but no loaded policy carries a Meta element"
        )
    return build_source_subset(meta, source)


# -- commands --------------------------------------------------------------


def cmd_validate(args) -> int:
    policy_dir = Path(args.policies)
    try:
        files = policy_files(policy_dir)
    except OSError as exc:
        return _fail(str(exc))
    problems = 0
    # the first file to use each PolicyId and (PolicyId, RuleId) pair: the
    # engine decides duplicates as separate policies, legal but seldom meant
    first_use: dict[str, str] = {}
    for file in files:
        try:
            text = _read_text(file)
        except (EngineError, OSError) as exc:
            return _fail(str(exc))
        try:
            policy = parse_policy(text)
        except PolicySchemaError as exc:
            problems += len(exc.violations)
            for violation in exc.violations:
                print(f"{file.name}: {violation}")
            continue
        print(f"{file.name}: OK")
        for warning in policy.warnings:
            print(f"{file.name}: warning: {warning}")
        ids = [f"PolicyId {policy.policy_id!r}"] + [
            f"RuleId {rule.rule_id!r} of PolicyId {policy.policy_id!r}" for rule in policy.rules
        ]
        for name in ids:
            earlier = first_use.setdefault(name, file.name)
            if earlier != file.name:
                print(f"{file.name}: warning: {name} is already used in {earlier}")
    print(f"{len(files)} policies checked, {problems} violations")
    return 0 if problems == 0 else 1


def cmd_build_graph(args) -> int:
    try:
        policies = load_policy_dir(args.policies)
        meta = next((p.meta for p in policies if p.meta is not None), None)
        if meta is None:
            print("error: no loaded policy carries a Meta element", file=sys.stderr)
            return 1
        source = _load_graph_file(Path(args.source), args.format)
    except (EngineError, OSError) as exc:
        return _fail(str(exc))
    subset = build_source_subset(meta, source)
    try:
        Path(args.out).write_text(serialize_graph(subset), encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc))
    print(f"vertices={subset.vertex_count} edges={subset.edge_count}")
    return 0


def _build_engine(args, need_graph: bool = True) -> DecisionEngine:
    config = EngineConfig(
        policy_dir=Path(args.policies),
        graph_file=Path(args.graph) if args.graph else None,
        source_file=Path(args.source) if args.source else None,
        varlen_cap=args.varlen_cap,
        format=args.format,
    )
    config.check(need_graph=need_graph)
    policies = load_policy_dir(config.policy_dir)
    graph = _load_graph(config, policies)
    return DecisionEngine(policies, graph, varlen_cap=config.varlen_cap)


def cmd_eval(args) -> int:
    try:
        engine = _build_engine(args)
        request = parse_request(_read_text(Path(args.request)))
    except (EngineError, OSError) as exc:
        return _fail(str(exc))
    response = engine.decide(request)
    print(render_response_xml(response), end="")
    return DECISION_EXIT_CODES[response.decision.value]


def cmd_emit_cypher(args) -> int:
    try:
        policies = load_policy_dir(args.policies)
        request = parse_request(_read_text(Path(args.request)))
    except (EngineError, OSError) as exc:
        return _fail(str(exc))
    found = DecisionEngine(policies, None).find_rule(args.rule)
    if found is None:
        print(f"error: no rule with id {args.rule!r}", file=sys.stderr)
        return 1
    rule_plan = compile_rule(found[1])
    if rule_plan is None:
        print(f"error: rule {args.rule!r} has no pattern", file=sys.stderr)
        return 1
    request_plan = compile_request_path(request.path_groups)
    print(emit_cypher(rule_plan, request_plan), end="")
    return 0


# -- decision service ------------------------------------------------------


class DecisionHandler(BaseHTTPRequestHandler):
    engine: DecisionEngine  # injected by build_server
    timeout = SOCKET_TIMEOUT_S
    # A buffered wfile, flushed once per request by handle_one_request (or
    # finish), sends headers and body in one write; larger replies still
    # go out whole, in more writes.
    wbufsize = -1

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def handle_one_request(self):
        """Read and answer one request as the base class does, except that
        a request line or headers that stall past ``timeout`` are answered
        408, as a stalled body is; the base class drops the connection
        without a reply."""
        # what the 408 reply needs when the request line never completed;
        # parse_request sets both once it has the line
        self.requestline, self.request_version = "", self.protocol_version
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if not self.raw_requestline:
                self.close_connection = True
                return
            if len(self.raw_requestline) > 65536:
                self.request_version = self.command = ""
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
                return
            if not self.parse_request():
                return  # parse_request has sent the error reply
        except TimeoutError:
            self.close_connection = True
            self._send(408, "request timeout: request line or headers not received",
                       "text/plain")
            return
        method = getattr(self, "do_" + self.command, None)
        if method is None:
            self.send_error(HTTPStatus.NOT_IMPLEMENTED, f"Unsupported method ({self.command!r})")
            return
        try:
            method()
            self.wfile.flush()
        except TimeoutError as exc:
            self.log_error("reply timed out: %r", exc)
            self.close_connection = True

    def do_GET(self):
        if self.path == "/health":
            self._send(200, "ok", "text/plain")
        else:
            self._send(404, "not found", "text/plain")

    def do_POST(self):
        if self.path != "/decision":
            self._send(404, "not found", "text/plain")
            return
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            self._send(400, f"bad request: Content-Length {length!r}", "text/plain")
            return
        if int(length) > MAX_BODY_BYTES:
            self._send(
                413,
                f"request body too large: Content-Length {length} exceeds "
                f"{MAX_BODY_BYTES} bytes",
                "text/plain",
            )
            return
        try:
            body = self.rfile.read(int(length))
        except TimeoutError:
            self._send(408, "request timeout: body not received", "text/plain")
            return
        try:
            request = parse_request(body.decode("utf-8"))
        except (RequestParseError, UnicodeDecodeError) as exc:
            self._send(400, f"bad request: {exc}", "text/plain")
            return
        try:
            response_xml = render_response_xml(self.engine.decide(request))
        except Exception:
            # the service keeps running: answer this request, log the cause
            log.exception("decision failed")
            self._send(500, "internal error: the decision failed", "text/plain")
            return
        self._send(200, response_xml, "application/xml")

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s - %s", self.address_string(), format % args)


class DecisionServer(HTTPServer):
    """An :class:`HTTPServer` that answers each connection on a handler
    thread, as a thread per connection would, without starting one each
    time.

    A thread that has answered its connection waits, idle, for another; a
    new daemon thread starts only when no thread is idle.  So a stalled
    connection holds one thread until the handler's socket timeout, and
    every other connection still gets a thread.  :meth:`server_close`
    stops the idle threads; a thread busy at that moment exits once it has
    answered.
    """

    def __init__(self, server_address, handler_class):
        super().__init__(server_address, handler_class)
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # the inbox of each idle thread
        self._closed = False

    def process_request(self, request, client_address):
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._handler_thread, args=(inbox,), daemon=True).start()
        inbox.put((request, client_address))

    def _handler_thread(self, inbox: queue.SimpleQueue) -> None:
        while (connection := inbox.get()) is not None:
            request, client_address = connection
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # idle again before the client sees its connection close, so
                # that client's next connection finds this thread waiting
                with self._lock:
                    closed = self._closed
                    if not closed:
                        self._idle.append(inbox)
                self.shutdown_request(request)
            if closed:
                return

    def server_close(self):
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


def build_server(engine: DecisionEngine, port: int) -> DecisionServer:
    handler = type("BoundDecisionHandler", (DecisionHandler,), {"engine": engine})
    return DecisionServer(("127.0.0.1", port), handler)


def cmd_serve(args) -> int:
    try:
        engine = _build_engine(args, need_graph=False)
    except (EngineError, OSError) as exc:
        return _fail(str(exc))
    server = build_server(engine, args.port)
    host, port = server.server_address
    log.info("decision service on http://%s:%s", host, port)
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# -- argument wiring -------------------------------------------------------


def _add_graph_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="graph file (json) or directory (csv)")
    sub.add_argument("--source", help="source graph to filter through Meta")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="graph format"
    )
    sub.add_argument(
        "--varlen-cap",
        type=int,
        default=8,
        help="hop cap for unbounded variable-length steps (default 8)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpdp",
        description="Graph-pattern XACML decision engine",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check policies in a directory")
    validate.add_argument("--policies", required=True)
    validate.set_defaults(func=cmd_validate)

    build = commands.add_parser(
        "build-graph", help="filter a source graph through the policy Meta"
    )
    build.add_argument("--policies", required=True)
    build.add_argument("--source", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--format", choices=("json", "csv"), default="json")
    build.set_defaults(func=cmd_build_graph)

    evaluate = commands.add_parser("eval", help="decide one request")
    evaluate.add_argument("--policies", required=True)
    evaluate.add_argument("--request", required=True)
    _add_graph_options(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    emit = commands.add_parser(
        "emit-cypher", help="print the intersection query for one rule"
    )
    emit.add_argument("--policies", required=True)
    emit.add_argument("--request", required=True)
    emit.add_argument("--rule", required=True)
    emit.set_defaults(func=cmd_emit_cypher)

    serve = commands.add_parser("serve", help="run the HTTP decision service")
    serve.add_argument("--policies", required=True)
    serve.add_argument("--port", type=int, default=8080)
    _add_graph_options(serve)
    serve.set_defaults(func=cmd_serve)
    return parser


def run(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
