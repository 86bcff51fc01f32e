#!/usr/bin/env python3
"""Decision benchmark for graphpdp: request XML in, response XML out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload demo --seed 1 --seconds 36 --trace 0

Generates the workload's inputs from the seed under ``.perfbench_work/``,
runs them against ``src/graphpdp`` in a child process guarded by a
wall-clock timeout, checks every response against the one its request
class implies, and prints a report line followed by the result line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (see ``perfbench/METRICS.md``).
Exits 0 only when every operation gave its expected response.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# a run must end within 180 s; keep the worker well inside that
RUN_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from workloads import GENERATORS  # noqa: E402


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for needed in ("src/graphpdp/__init__.py", "tests/test_acceptance.py",
                   "fixtures/policies/pm_user_to_data_object.xml"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: run from a graphpdp checkout"
    return None


def run_worker(manifest: Path, seconds: float, trace: int, spans: Path, limit: float):
    """Run the worker; returns (result or None, planned, done, failed, note)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    note = None
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        note = f"timed out after {limit:.0f} s"
    planned = done = failed = 0
    result = None
    for line in out.splitlines():
        doc = json.loads(line)
        planned = doc.get("planned", planned)
        done = doc.get("progress", done)
        failed = doc.get("failed", failed)
        result = doc.get("result", result)
    if result is None and note is None:
        note = f"worker exited with code {proc.returncode}: {err.strip()[-2000:]}"
    return result, planned, done, failed, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = WORK / args.workload
    workload = GENERATORS[args.workload](work, args.seed)
    manifest = work / "manifest.json"
    workload.save(manifest)
    spans = work / f"spans-seed{args.seed}.jsonl"
    limit = min(RUN_LIMIT_S - (time.monotonic() - started), 3 * args.seconds + 60)
    result, planned, done, failed, note = run_worker(
        manifest, args.seconds, args.trace, spans, limit)

    if result is not None:
        attempted, failed = result["done"], result["failed"]
    else:
        # unfinished operations count as failed, including the one in flight
        attempted = max(planned, done + 1)
        failed = attempted - (done - failed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": workload.inputs_digest,
        "class_shares": workload.shares,
        "sizes": workload.sizes,
        "cycle_ops": len(workload.ops),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "failed_share": failed / attempted,
        "samples": result["samples"] if result else {},
        "failures": (result["failures"] if result else []) + ([note] if note else []),
        "spans_file": str(spans.relative_to(ROOT)) if args.trace else None,
    }
    print("report " + json.dumps(report))
    metrics = result["metrics"] if result else {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.4f} {unit}")
    correct = result is not None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
