"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced on the same
inputs, prints the per-layer stage table, and reports every per-layer
metric (0 for a layer the workload never enters).  Every run is
appended, with an environment stamp, to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def env_stamp(seed: int) -> Dict[str, Any]:
    """Commit (or source hash outside git), machine and interpreter."""
    # The ceiling keeps git from searching (and reporting) an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        out = ""
    commit = out or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def stop_helpers() -> None:
    """Stop and reap every helper process the workload left behind.

    ``multiprocessing.shared_memory`` starts the stdlib resource tracker,
    which otherwise outlives this process and, once orphaned, can stay a
    zombie; forked workers are joined here too in case a run raised.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def workloads() -> Dict[str, Callable[[Any], Any]]:
    import ingest
    import serve_mixed
    import sharded

    return {
        "serve-mixed": serve_mixed.run,
        "ingest-hot": lambda ctx: ingest.run(ctx, ingest.HOT),
        "ingest-churn": lambda ctx: ingest.run(ctx, ingest.CHURN),
        "sharded-2w": sharded.run,
    }


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: no repro sources next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads(spec_path.read_text())
    from common import Context

    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace))
    started = time.time()
    try:
        outcome = table[args.workload](ctx)
    finally:
        stop_helpers()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value, got_unit = outcome.metrics.get(name, (0.0, unit))
        if not args.trace and name not in outcome.metrics:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, BENCHMARK.json says {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    for note in outcome.notes:
        print(f"note: {note}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    history = {
        "time": started,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_stamp(args.seed),
        **result,
    }
    with open(HERE / "history.jsonl", "a") as fh:
        fh.write(json.dumps(history, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
