"""Memory that a graphpdp engine's set-up retains, phase by phase.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/memory_probe.py --policies fixtures/policies \\
        --graph fixtures/graphs/demo_graph.json
    PYTHONPATH=src python tests/memory_probe.py --policies fixtures/policies \\
        --source fixtures/graphs/demo_source.json

Builds an engine the way ``graphpdp eval`` does, under ``tracemalloc``:
the policy directory, then the graph file (or the ``--source`` file and
the subset that the first policy with a ``Meta`` declares, after which
the source is dropped), then ``DecisionEngine``.  For each phase it
prints the bytes the phase retains, the peak above what was held when
the phase began, and the retained bytes per record of the graph the
phase yields.  The ``engine holds`` line is everything still held once
the engine is built.  The ``second set-up`` line builds a second engine
the same way while the first is still held, as a reload does: its peak
above the first engine is what a long-running process adds to its own
peak.

It then builds ``TIMED_SET_UPS`` (10) more engines the same way,
untraced and one after another (only the newest is held), and prints a
second table: each phase's best wall time over those set-ups, and the
collector passes and collector time per set-up that ``gc.callbacks`` saw
in it.  A phase runs from its own start to the next one's, so a
collection that a phase's allocations leave due counts in that phase,
and ``set-up`` is the whole build.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from graphpdp.graph_store import build_source_subset, load_graph_path
from graphpdp.pdp import DecisionEngine
from graphpdp.policy_model import load_policy_dir

# untraced set-ups that the timing table takes the best of
TIMED_SET_UPS = 10


class Probe:
    """Phases measured one after another, each from what is held when it
    begins."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, int, int | None, int | None]] = []

    def phase(self, name: str, build, records=lambda result: None):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        self.rows.append((name, current - before, peak - before, records(result)))
        return result

    def hold(self, held: int, records: int) -> None:
        self.rows.append(("engine holds", held, None, records))

    def report(self) -> str:
        lines = [f"{'phase':<14}{'retained_B':>12}{'peak_B':>12}{'records':>9}{'B/record':>10}"]
        for name, retained, peak, count in self.rows:
            per = f"{retained / count:.0f}" if count else "-"
            lines.append(
                f"{name:<14}{retained:>12}{'-' if peak is None else peak:>12}"
                f"{'-' if count is None else count:>9}{per:>10}"
            )
        return "\n".join(lines)


class Timer:
    """Wall time and collector passes of each phase of repeated set-ups."""

    def __init__(self) -> None:
        self.passes = 0
        self.collector_s = 0.0
        self.collection_began = 0.0
        # per set-up, [phase, clock, passes, collector_s] at each phase start
        self.runs: list[list[list]] = []

    def collector(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook."""
        if phase == "start":
            self.collection_began = perf_counter()
        else:
            self.passes += 1
            self.collector_s += perf_counter() - self.collection_began

    def mark(self, name: str) -> None:
        # the new list is a container: a young collection that the phase
        # before left due runs here, before the clock is read
        entry = [name]
        entry += perf_counter(), self.passes, self.collector_s
        self.runs[-1].append(entry)

    def phase(self, name: str, build, records=None):
        self.mark(name)
        return build()

    def set_up(self, inputs) -> object:
        self.runs.append([])
        engine = set_up(*inputs, phase=self.phase)
        self.mark("end")
        return engine

    def report(self) -> str:
        # phase -> (wall s, collector passes, collector s) of each set-up
        rows: dict[str, list[tuple]] = {}
        for marks in self.runs:
            spans = [(name, start, end) for (name, *start), (_, *end) in zip(marks, marks[1:])]
            spans.append(("set-up", marks[0][1:], marks[-1][1:]))
            for name, start, end in spans:
                rows.setdefault(name, []).append(tuple(b - a for a, b in zip(start, end)))
        lines = [f"{'phase':<14}{'best_ms':>10}{'gc_passes':>11}{'gc_ms':>9}"]
        for name, runs in rows.items():
            lines.append(
                f"{name:<14}{min(r[0] for r in runs) * 1e3:>10.2f}"
                f"{sum(r[1] for r in runs) / len(runs):>11.1f}"
                f"{sum(r[2] for r in runs) / len(runs) * 1e3:>9.2f}"
            )
        return "\n".join(lines)


def timings(inputs) -> str:
    """The best-of-``TIMED_SET_UPS`` wall time and the mean collector
    passes and time per set-up of each phase, untraced."""
    timer = Timer()
    gc.callbacks.append(timer.collector)
    try:
        for _ in range(TIMED_SET_UPS):
            # the engine before is freed here, after its set-up's last mark
            engine = timer.set_up(inputs)  # noqa: F841
    finally:
        gc.callbacks.remove(timer.collector)
    return timer.report()


def graph_records(graph) -> int:
    return graph.vertex_count + graph.edge_count


def engine_records(engine) -> int:
    return graph_records(engine.graph)


def unmeasured(name: str, build, records=None):
    return build()


def set_up(policy_dir: Path, graph_file: Path, from_source: bool, format: str, phase=unmeasured):
    """An engine built as ``eval`` builds one, each step run through ``phase``."""
    policies = phase("policies", lambda: load_policy_dir(policy_dir))
    graph = phase("load", lambda: load_graph_path(graph_file, format), graph_records)
    if from_source:
        meta = next((p.meta for p in policies if p.meta is not None), None)
        if meta is None:
            raise SystemExit("error: --source given but no loaded policy carries a Meta")
        graph = phase("subset", lambda: build_source_subset(meta, graph), graph_records)
    # the source, if any, is no longer held
    return phase("engine build", lambda: DecisionEngine(policies, graph), engine_records)


def probe(policy_dir: Path, graph_file: Path, from_source: bool, format: str) -> str:
    inputs = (policy_dir, graph_file, from_source, format)
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        phases = Probe()
        engine = set_up(*inputs, phase=phases.phase)
        gc.collect()
        phases.hold(tracemalloc.get_traced_memory()[0] - start, engine_records(engine))
        phases.phase("second set-up", lambda: set_up(*inputs), engine_records)
        report = phases.report()
    finally:
        tracemalloc.stop()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policies", required=True, type=Path)
    graphs = parser.add_mutually_exclusive_group(required=True)
    graphs.add_argument("--graph", type=Path)
    graphs.add_argument("--source", type=Path)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)
    inputs = (args.policies, args.graph or args.source, args.source is not None, args.format)
    print(probe(*inputs))
    print()
    print(timings(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
