"""Run one generated workload against graphpdp in this process.

``run.py`` starts this as a child process, so a hang is stopped from
outside and the peak RSS it reports belongs to the workload alone.  It
prints JSON lines on stdout: ``{"planned": n}`` first, then
``{"progress": done, "failed": f}`` at most every half second, and last
``{"result": {...}}``.

Load is a closed loop with one caller, as a policy enforcement point
waits for each answer: the next request goes out only after the previous
response has been read and checked.  Through ``serve`` that is one client
thread here plus the server's thread.

Measurement alternates windows: one window of in-process decisions, then
one through ``serve`` (and, traced, one of traced decisions), and again,
so every kind of operation sees the same host conditions.  A window is a
run of whole request cycles lasting at least ``WINDOW_S``.  The host this
was tuned on switches between two speeds 1.7x apart, for tens of
milliseconds to tens of seconds at a time, so latency is summarised per
request as its lowest window median, and the percentiles are taken over
the request cycle (see ``summarize`` and ``METRICS.md``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_WINDOWS = 5
SETUP_SHARE = 0.2
TRACED_SETUP_RUNS = 3
WINDOW_S = 0.05
# cap on traced decisions, whose spans stay in memory until the end
TRACED_DECISIONS_CAP = 4000
PROGRESS_EVERY_S = 0.5


def emit(**line) -> None:
    print(json.dumps(line), flush=True)


def pin_to_one_cpu() -> int:
    """Run this process, and the threads it starts, on one CPU.

    Otherwise the HTTP round trip depends on whether the scheduler placed
    the client and the handler thread on the same CPU, and on the 2-vCPU
    host this was tuned on that placement stuck for a whole run and moved
    the round trip by 1.6x between runs.  The threads take turns on the
    interpreter lock anyway.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_package():
    """Import graphpdp from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from graphpdp import cli, graph_store, path_matcher, pdp, policy_model, request_model

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"graphpdp imported from {cli.__file__}, not {src}")
    return {
        "cli": cli, "graph_store": graph_store, "path_matcher": path_matcher,
        "pdp": pdp, "policy_model": policy_model, "request_model": request_model,
    }


@dataclass
class Phase:
    """One kind of operation, measured in windows of whole request cycles."""

    call: object
    tag: str | None = None  # decision-id prefix; set when traced
    # per window, latencies indexed [cycle][request]
    windows: list[list[list[float]]] = field(default_factory=list)
    responses: dict[int, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(cycles) * len(cycles[0]) for cycles in self.windows)


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(phase: Phase) -> dict:
    """Latency and rate of a phase, robust to the host's speed changes.

    Each request of the cycle gets its lowest window median.  p50 and p90
    are taken over those per-request values, so they follow the request
    mix (a tail class such as ``exhaustive`` sets p90); on a cycle of one
    request they coincide.  The rate is one closed-loop caller's at those
    latencies: requests in the cycle over the sum of their latencies.
    """
    n = len(phase.windows[0][0])
    floors = [
        min(statistics.median(cycle[i] for cycle in cycles) for cycles in phase.windows)
        for i in range(n)
    ]
    return {
        "p50": statistics.median(floors),
        "p90": percentile(floors, 90),
        "rate": n / sum(floors),
        "floors": floors,
    }


class Runner:
    def __init__(self, modules, workload: Workload):
        self.m = modules
        self.workload = workload
        self.requests = [Path(op.request_file).read_text(encoding="utf-8") for op in workload.ops]
        self.tracer: Tracer | None = None
        self.setup_times: list[float] = []
        # set-up times per window, for the untraced run's setup_s
        self.setup_windows: list[list[float]] = []
        self.done = 0
        self.failed = 0
        self.reported = 0.0

    # -- set-up -------------------------------------------------------------

    def set_up(self):
        """Policy directory and graph file on disk to a ready engine, the
        way ``graphpdp eval``/``serve`` build one."""
        m, w = self.m, self.workload
        policies = m["policy_model"].load_policy_dir(w.policy_dir)
        graph = m["graph_store"].load_graph_path(w.graph_file)
        if w.from_source:
            meta = next(p.meta for p in policies if p.meta is not None)
            graph = m["graph_store"].build_source_subset(meta, graph)
        if self.tracer is None:
            return m["pdp"].DecisionEngine(policies, graph)
        return self.tracer.call("pdp.engine_build", m["pdp"].DecisionEngine, policies, graph)

    def timed_setup(self):
        """One timed set-up; its time goes to ``setup_times``."""
        if self.tracer is not None:
            self.tracer.decision = f"setup-{len(self.setup_times)}"
        t0 = time.perf_counter()
        engine = self.set_up()
        self.setup_times.append(time.perf_counter() - t0)
        return engine

    def setup_window(self) -> None:
        """Set up again and again for at least ``WINDOW_S`` (at least once)."""
        first, started = len(self.setup_times), time.perf_counter()
        while len(self.setup_times) == first or time.perf_counter() - started < WINDOW_S:
            self.timed_setup()
        self.setup_windows.append(self.setup_times[first:])

    @contextmanager
    def tracing(self):
        self.tracer.install(self.m)
        try:
            yield
        finally:
            self.tracer.uninstall()

    # -- decisions ----------------------------------------------------------

    def decide(self, engine, xml: str) -> str:
        """Request XML text in, response XML text out."""
        m = self.m
        return m["pdp"].render_response_xml(engine.decide(m["request_model"].parse_request(xml)))

    def _window(self, phase: Phase) -> None:
        ops, tracer = self.workload.ops, self.tracer
        cycles, started = [], time.perf_counter()
        while True:
            latencies = []
            for i, (op, xml) in enumerate(zip(ops, self.requests)):
                if phase.tag is not None:
                    tracer.decision = f"{phase.tag}-{phase.ops + len(cycles) * len(ops) + i}"
                t0 = time.perf_counter()
                try:
                    out = phase.call(xml)
                    error = None
                except Exception as exc:  # an operation failing is a result to count
                    out, error = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                phase.responses.setdefault(i, out)
                if error is None and out != op.expected:
                    error = f"{op.cls} request {i}: unexpected response {out!r}"
                if error is None and phase.responses[i] != out:
                    error = f"request {i}: response differs between repeats"
                self.done += 1
                if error is not None:
                    self.failed += 1
                    if len(phase.failures) < 5:
                        phase.failures.append(error)
            cycles.append(latencies)
            now = time.perf_counter()
            if now - self.reported >= PROGRESS_EVERY_S:
                self.reported = now
                emit(progress=self.done, failed=self.failed)
            if now - started >= WINDOW_S:
                phase.windows.append(cycles)
                return

    def run_rounds(self, phases: list[Phase], budget: float, cap: int | None = None) -> None:
        """One window of each phase in turn, until ``budget`` seconds have
        passed (at least one round) or a traced phase holds ``cap``
        operations.  Untraced, windows of set-ups are spread over the
        rounds, taking ``SETUP_SHARE`` of the time, so they see the same
        host conditions."""
        started = time.perf_counter()
        while True:
            if cap is None and sum(self.setup_times) < SETUP_SHARE * (time.perf_counter() - started):
                self.setup_window()
            for phase in phases:
                with self.tracing() if phase.tag is not None else nullcontext():
                    self._window(phase)
            if time.perf_counter() - started >= budget:
                break
            if cap is not None and any(p.tag is not None and p.ops >= cap for p in phases):
                break
        emit(progress=self.done, failed=self.failed)

    def serve(self, engine):
        """Start ``serve``'s server on an ephemeral loopback port."""
        server = self.m["cli"].build_server(engine, 0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        port = server.server_address[1]

        def post(xml: str) -> str:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                conn.request("POST", "/decision", body=xml.encode("utf-8"),
                             headers={"Content-Type": "application/xml"})
                reply = conn.getresponse()
                body = reply.read().decode("utf-8")
            finally:
                conn.close()
            if reply.status != 200:
                raise RuntimeError(f"HTTP {reply.status}: {body[:200]}")
            return body

        def stop():
            server.shutdown()
            server.server_close()
            thread.join()

        return post, stop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(modules, workload: Workload, seconds: float) -> dict:
    runner = Runner(modules, workload)
    emit(planned=2 * len(workload.ops))
    engine = runner.set_up()
    runner.decide(engine, runner.requests[0])  # warm-up, outside any timing
    post, stop = runner.serve(engine)
    local = Phase(lambda xml: runner.decide(engine, xml))
    remote = Phase(post)
    try:
        runner.run_rounds([local, remote], seconds)
    finally:
        stop()
    while len(runner.setup_windows) < SETUP_MIN_WINDOWS:
        runner.setup_window()
    setups = runner.setup_windows
    decide, http = summarize(local), summarize(remote)
    return {
        "metrics": {
            "setup_s": (min(statistics.median(w) for w in setups), "s"),
            "decide_p50_us": (decide["p50"] * 1e6, "us"),
            "decide_p90_us": (decide["p90"] * 1e6, "us"),
            "decisions_per_s": (decide["rate"], "1/s"),
            "http_p50_us": (http["p50"] * 1e6, "us"),
            "http_p90_us": (http["p90"] * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "samples": {"setups": {"runs": len(runner.setup_times), "windows": len(setups)},
                    "decide": {"ops": local.ops, "windows": len(local.windows)},
                    "http": {"ops": remote.ops, "windows": len(remote.windows)}},
        "failures": local.failures + remote.failures,
        "done": runner.done,
        "failed": runner.failed,
    }


def traced_run(modules, workload: Workload, seconds: float, spans_file: Path) -> dict:
    runner = Runner(modules, workload)
    tracer = runner.tracer = Tracer()
    emit(planned=3 * len(workload.ops))

    with runner.tracing():
        for _ in range(TRACED_SETUP_RUNS):
            engine = runner.timed_setup()
        probes = []
        if workload.probe_source is not None:
            policies = modules["policy_model"].load_policy_dir(workload.policy_dir)
            meta = next(p.meta for p in policies if p.meta is not None)
            for i in range(TRACED_SETUP_RUNS):
                tracer.decision = f"probe-{i}"
                probes.append(tracer.decision)
                source = modules["graph_store"].load_graph_path(workload.probe_source)
                modules["graph_store"].build_source_subset(meta, source)

    # peak allocation of one snapshot, apart from the timed set-ups
    tracemalloc.start()
    engine.graph.snapshot()
    snapshot_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    decide = lambda xml: runner.decide(engine, xml)  # noqa: E731
    runner.decide(engine, runner.requests[0])
    post, stop = runner.serve(engine)
    plain = Phase(decide)
    traced = Phase(lambda xml: tracer.call("decide", decide, xml), tag="decide")
    remote = Phase(lambda xml: tracer.call("http", post, xml), tag="http")
    try:
        runner.run_rounds([plain, traced, remote], seconds, cap=TRACED_DECISIONS_CAP)
    finally:
        stop()

    failures = plain.failures + traced.failures + remote.failures
    if traced.responses != plain.responses:
        runner.failed += 1
        failures.append("traced responses differ from untraced ones")
    metrics = layer_metrics(
        tracer,
        decisions=[f"decide-{i}" for i in range(traced.ops)],
        http_decisions=[f"http-{i}" for i in range(remote.ops)],
        setups=[f"setup-{i}" for i in range(TRACED_SETUP_RUNS)],
        probes=probes,
    )
    metrics["graph_store.snapshot_peak_mb"] = (snapshot_peak, "MB")
    metrics["trace.overhead_ratio"] = (
        sum(summarize(traced)["floors"]) / sum(summarize(plain)["floors"]), "ratio")
    tracer.write(spans_file)
    return {
        "metrics": metrics,
        "samples": {"setups": TRACED_SETUP_RUNS, "untraced_decide": plain.ops,
                    "decide": traced.ops, "http": remote.ops},
        "failures": failures,
        "done": runner.done,
        "failed": runner.failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans", required=True, type=Path)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    modules = import_package()
    workload = Workload.load(args.manifest)
    if args.trace:
        result = traced_run(modules, workload, args.seconds, args.spans)
    else:
        result = untraced_run(modules, workload, args.seconds)
    emit(result=result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
