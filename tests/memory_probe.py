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
the engine is built.  Standard library only.
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

    def report(self, held: int, records: int) -> str:
        lines = [f"{'phase':<14}{'retained_B':>12}{'peak_B':>12}{'records':>9}{'B/record':>10}"]
        rows = self.rows + [("engine holds", held, None, records)]
        for name, retained, peak, count in rows:
            per = f"{retained / count:.0f}" if count else "-"
            lines.append(
                f"{name:<14}{retained:>12}{'-' if peak is None else peak:>12}"
                f"{'-' if count is None else count:>9}{per:>10}"
            )
        return "\n".join(lines)


def graph_records(graph) -> int:
    return graph.vertex_count + graph.edge_count


def probe(policy_dir: Path, graph_file: Path, from_source: bool, format: str) -> str:
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        phases = Probe()
        policies = phases.phase("policies", lambda: load_policy_dir(policy_dir))
        graph = phases.phase("load", lambda: load_graph_path(graph_file, format), graph_records)
        if from_source:
            meta = next((p.meta for p in policies if p.meta is not None), None)
            if meta is None:
                raise SystemExit("error: --source given but no loaded policy carries a Meta")
            graph = phases.phase(
                "subset", lambda: build_source_subset(meta, graph), graph_records
            )
        # the source, if any, is no longer held
        engine = phases.phase(
            "engine build",
            lambda: DecisionEngine(policies, graph),
            lambda engine: graph_records(engine.graph),
        )
        del policies, graph
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
        report = phases.report(held, graph_records(engine.graph))
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
