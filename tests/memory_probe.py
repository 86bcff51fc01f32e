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
peak.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

from graphpdp.graph_store import build_source_subset, load_graph_path
from graphpdp.pdp import DecisionEngine
from graphpdp.policy_model import load_policy_dir


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
    print(probe(args.policies, args.graph or args.source, args.source is not None, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
