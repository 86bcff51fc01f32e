"""Command line front end: validate, build-graph, eval, emit-cypher, serve.

Exit codes for ``eval`` encode the decision so shell pipelines can branch
on it: 0 Permit, 1 Deny, 3 NotApplicable, 4 Indeterminate; 2 is reserved
for parse/configuration failures across all commands.

``serve`` answers HTTP/1.0 on a loopback port, one request per
connection: :class:`DecisionHandler` reads the request head with one
``recv`` loop, parses it itself and sends each reply with one
``sendall``; :class:`DecisionServer` hands each connection to an idle
handler thread.
"""

from __future__ import annotations

import argparse
import logging
import queue
import re
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path

from .errors import EngineError, GraphError, PolicySchemaError, RequestParseError
from .graph_store import PropertyGraph, build_source_subset, load_graph_path, serialize_graph
from .path_matcher import DEFAULT_VARLEN_CAP
from .pattern_compiler import compile_request_path, emit_cypher
from .pdp import DecisionEngine, compile_rule, render_response_xml
from .policy_model import Meta, load_policy_dir, parse_policy, policy_files
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
# Seconds a connection has to send its request head and body, counted from
# when a handler takes it, and that the reply's write may stall.
SOCKET_TIMEOUT_S = 10
# The longest request head (request line and header fields) read, and the
# most header fields it may hold.
MAX_HEAD_BYTES = 1 << 16
MAX_HEADER_FIELDS = 100
# The most bytes asked of one recv.
RECV_BYTES = 1 << 16
SERVE_HOST = "127.0.0.1"

# The end of a request head's last line and the blank line after it; a
# bare LF is taken for CRLF.
_HEAD_END = re.compile(rb"\n\r?\n")
_VERSION = re.compile(r"HTTP/([0-9]{1,9})\.([0-9]{1,9})")


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


def _one_meta(policy_dir, policies) -> Meta:
    """The one ``Meta`` the policies loaded from ``policy_dir`` declare;
    none, or several that keep different entities, is an error naming
    the files of each."""
    # the files that declare each distinct Meta, by the entities it keeps
    metas: dict[tuple[frozenset, frozenset], tuple[Meta, list[str]]] = {}
    for file, policy in zip(policy_files(policy_dir), policies):
        meta = policy.meta
        if meta is not None:
            kept = (frozenset(meta.vertex_entities), frozenset(meta.edge_entities))
            metas.setdefault(kept, (meta, []))[1].append(file.name)
    if not metas:
        raise EngineError("no loaded policy carries a Meta element")
    if len(metas) > 1:
        files = "; ".join(", ".join(names) for _, names in metas.values())
        raise EngineError(f"the policies declare {len(metas)} different Meta elements: {files}")
    [(meta, _)] = metas.values()
    return meta


def cmd_build_graph(args) -> int:
    try:
        meta = _one_meta(args.policies, load_policy_dir(args.policies))
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
    """The engine of ``--policies`` on the ``--graph`` file, or on the
    ``--source`` file cut down by the policies' one ``Meta``; ``serve``
    may go without a graph."""
    if args.varlen_cap < 1:
        raise EngineError("--varlen-cap must be >= 1")
    have = bool(args.graph) + bool(args.source)
    if need_graph and have != 1:
        raise EngineError("exactly one of --graph/--source is required")
    if have > 1:
        raise EngineError("--graph and --source are mutually exclusive")
    policies = load_policy_dir(Path(args.policies))
    graph = None
    if args.graph:
        graph = _load_graph_file(Path(args.graph), args.format)
    elif args.source:
        source = _load_graph_file(Path(args.source), args.format)
        graph = build_source_subset(_one_meta(args.policies, policies), source)
    return DecisionEngine(policies, graph, varlen_cap=args.varlen_cap)


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
    # the first rule with the id, in load order
    rule = next((r for p in policies for r in p.rules if r.rule_id == args.rule), None)
    if rule is None:
        print(f"error: no rule with id {args.rule!r}", file=sys.stderr)
        return 1
    rule_plan = compile_rule(rule)
    if rule_plan is None:
        print(f"error: rule {args.rule!r} has no pattern", file=sys.stderr)
        return 1
    try:
        query = emit_cypher(rule_plan, compile_request_path(request.path_groups))
    except EngineError as exc:
        print(f"error: rule {args.rule!r}: {exc}", file=sys.stderr)
        return 1
    print(query, end="")
    return 0


# -- decision service ------------------------------------------------------


class _Refused(Exception):
    """A request that gets an error reply before any handler method runs."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _refuse_long_head(received: bytes) -> None:
    """Refuse a head that runs past ``MAX_HEAD_BYTES``: 414 when its
    request line does too, 431 otherwise."""
    if received.find(b"\n", 0, MAX_HEAD_BYTES + 2) < 0:
        raise _Refused(414, f"request line longer than {MAX_HEAD_BYTES} bytes")
    raise _Refused(431, f"request head longer than {MAX_HEAD_BYTES} bytes")


class DecisionHandler(socketserver.BaseRequestHandler):
    """Answers one HTTP/1.0 request per connection.

    :meth:`handle` receives the request head into one buffer, splits the
    request line and header fields itself, and calls ``do_GET`` or
    ``do_POST``, which stage the reply; it then sends the status line,
    headers and body with one ``sendall``.  A request it cannot take gets
    a plain-text error reply: 400 for a malformed head, 408 when the head
    or the body has not arrived ``timeout`` seconds after the connection
    was taken, however the client spaces its bytes, 414 for a request line
    longer than ``MAX_HEAD_BYTES``, 431 for a longer head or more than
    ``MAX_HEADER_FIELDS`` fields, 501 for a method other than GET or
    POST, 505 for HTTP/2 or later.  A client that closes the connection
    before sending a byte gets no reply.
    """

    engine: DecisionEngine  # injected by build_server
    timeout = SOCKET_TIMEOUT_S

    def handle(self) -> None:
        self._deadline = time.monotonic() + self.timeout
        self.requestline = ""
        try:
            if not self._read_head():
                return  # closed before sending a byte: nothing to answer
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                raise _Refused(501, f"not implemented: method {self.command!r}")
            method()
        except _Refused as exc:
            self._send(exc.status, str(exc), "text/plain")
        except ConnectionError as exc:
            self.log_message("connection lost: %r", exc)
            return
        try:
            self.request.settimeout(self.timeout)
            self.request.sendall(self._reply)
        except (TimeoutError, ConnectionError) as exc:
            self.log_message("reply not sent: %r", exc)
            return
        self.log_message('"%s" %s %s', self.requestline, self._status, len(self._reply))

    def _read_head(self) -> bool:
        """Receive and parse the request head, keeping the bytes received
        after it as the start of the body; False if the connection closed
        before a byte arrived."""
        received = bytearray()
        searched = 0  # where the end can first be, given what was searched
        while (end := _HEAD_END.search(received, searched)) is None:
            if len(received) > MAX_HEAD_BYTES:
                _refuse_long_head(received)
            searched = max(len(received) - 2, 0)
            try:
                chunk = self._recv(RECV_BYTES)
            except TimeoutError:
                raise _Refused(
                    408, "request timeout: request line or headers not received"
                ) from None
            if not chunk:
                if not received:
                    return False
                raise _Refused(400, "bad request: connection closed inside the request head")
            received += chunk
        if end.start() > MAX_HEAD_BYTES:
            _refuse_long_head(received)
        received = bytes(received)
        self._body_start = received[end.end():]
        # each line may keep the CR of its CRLF: split() and strip() drop it
        request_line, *fields = received[: end.start()].split(b"\n")
        self.requestline = request_line.decode("latin-1")
        words = self.requestline.split()
        if len(words) != 3:
            raise _Refused(400, "bad request: request line is not METHOD TARGET HTTP/x.y")
        self.command, self.path, version = words
        if (numbers := _VERSION.fullmatch(version)) is None:
            raise _Refused(400, "bad request: malformed HTTP version")
        if int(numbers[1]) >= 2:
            raise _Refused(505, f"HTTP version not supported: {version}")
        if len(fields) > MAX_HEADER_FIELDS:
            raise _Refused(431, f"more than {MAX_HEADER_FIELDS} header fields")
        lengths = set()
        for field in fields:
            name, colon, value = field.partition(b":")
            if not colon:
                raise _Refused(400, "bad request: header field without a colon")
            if name.lower() == b"content-length":
                lengths.add(value.strip())
        if len(lengths) > 1:
            raise _Refused(400, "bad request: conflicting Content-Length values")
        self.content_length = lengths.pop().decode("latin-1") if lengths else None
        return True

    def _recv(self, size: int) -> bytes:
        """One ``recv`` given only the time left before the request's
        deadline; TimeoutError once it has passed."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self.request.settimeout(left)
        return self.request.recv(size)

    def _read_body(self, length: int) -> bytes:
        """The first ``length`` body bytes, or fewer if the connection
        closes first."""
        chunks = [self._body_start[:length]]
        missing = length - len(chunks[0])
        while missing > 0 and (chunk := self._recv(min(missing, RECV_BYTES))):
            chunks.append(chunk)
            missing -= len(chunk)
        return b"".join(chunks)

    def _send(self, status: int, body: str, content_type: str) -> None:
        """Stage the reply that :meth:`handle` sends."""
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        self._status = status
        self._reply = head.encode("ascii") + payload

    def do_GET(self):
        if self.path == "/health":
            self._send(200, "ok", "text/plain")
        else:
            self._send(404, "not found", "text/plain")

    def do_POST(self):
        if self.path != "/decision":
            self._send(404, "not found", "text/plain")
            return
        length = self.content_length or "0"
        if not length.isdecimal():
            self._send(400, f"bad request: Content-Length {length!r}", "text/plain")
            return
        # compared by its digits first: int() refuses a string of thousands
        digits = length.lstrip("0") or "0"
        size = int(digits) if len(digits) <= len(str(MAX_BODY_BYTES)) else MAX_BODY_BYTES + 1
        if size > MAX_BODY_BYTES:
            self._send(
                413,
                f"request body too large: Content-Length {length} exceeds "
                f"{MAX_BODY_BYTES} bytes",
                "text/plain",
            )
            return
        try:
            body = self._read_body(size)
        except TimeoutError:
            self._send(408, "request timeout: body not received", "text/plain")
            return
        if len(body) < size:
            self._send(400, "bad request: body shorter than its Content-Length", "text/plain")
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

    def log_message(self, format, *args):  # noqa: A002 - http.server handlers' signature
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s - %s", self.client_address[0], format % args)


class DecisionServer(socketserver.TCPServer):
    """A :class:`socketserver.TCPServer` that answers each connection on a
    handler thread, as a thread per connection would, without starting one
    each time.

    A thread that has answered its connection waits, idle, for another; a
    new daemon thread starts only when no thread is idle.  So a stalled
    connection holds one thread until the handler's deadline, and
    every other connection still gets a thread.  :meth:`server_close`
    stops the idle threads; a thread busy at that moment exits once it has
    answered.
    """

    allow_reuse_address = True

    def __init__(self, server_address, handler_class):
        # set before binding, since a failed bind calls server_close
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # the inbox of each idle thread
        self._closed = False
        super().__init__(server_address, handler_class)

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
    return DecisionServer((SERVE_HOST, port), handler)


def cmd_serve(args) -> int:
    try:
        engine = _build_engine(args, need_graph=False)
    except (EngineError, OSError) as exc:
        return _fail(str(exc))
    try:
        server = build_server(engine, args.port)
    except (OSError, OverflowError) as exc:  # OverflowError: a port outside 0-65535
        return _fail(f"cannot listen on {SERVE_HOST}:{args.port}: {exc}")
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
        default=DEFAULT_VARLEN_CAP,
        help=f"hop cap for unbounded variable-length steps (default {DEFAULT_VARLEN_CAP})",
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
