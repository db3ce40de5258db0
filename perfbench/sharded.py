"""sharded-2w: ``ShardedPipeline(num_shards=4, max_workers=2)`` over shm.

One rep constructs the pipeline (``setup_s``) and calls
``run(stream, 100)``: partition, ring writes to two persistent workers,
restore, merge, ``top_k``; ``events_per_s`` is events over that call.
The pipeline answers only through ``run``, so the answer latency of a
rep is also every one of its events' freshness: ``visible_*`` and
``query_*`` are the run latency, pooled per event.  Each report must
equal the sequential ``MergingCoordinator`` report on the same shards,
with no worker crash.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

import spans as spanlib
from common import (
    BUCKET_WIDTH,
    NUM_BUCKETS,
    Context,
    Outcome,
    children_rss_mb,
    p50_p99,
    stage_table,
)
from stats import median, self_times

SHARDS = 4
WORKERS = 2
EVENTS = 2_000_000
SETUP_BUILDS = 20
WARMUP_RUNS = 2


def _stream(seed: int) -> Any:
    from repro.streams.synthetic import zipf_stream

    return zipf_stream(num_events=EVENTS, num_distinct=50_000, skew=1.0, num_periods=100, seed=seed)


def _config() -> Any:
    from repro.core.config import LTCConfig

    return LTCConfig(num_buckets=NUM_BUCKETS, bucket_width=BUCKET_WIDTH, kernel="auto")


def _pipeline(config: Any) -> Any:
    from repro.distributed.parallel import ShardedPipeline

    return ShardedPipeline(config, num_shards=SHARDS, max_workers=WORKERS, transport="shm")


def sequential(stream: Any, config: Any, seed_shard: int) -> Tuple[Any, float]:
    """The single-process report on the same shards, and its events/s."""
    from repro.distributed.coordinator import MergingCoordinator
    from repro.distributed.partition import partition_sharded

    shards = partition_sharded(stream, SHARDS, seed=seed_shard)
    start = time.perf_counter()
    report = MergingCoordinator(config).run(shards, 100)
    return report, len(stream.events) / (time.perf_counter() - start)


def _check(outcome: Outcome, report: Any, want: Any) -> None:
    outcome.op(report.worker_crashes == 0, f"{report.worker_crashes} worker crashes")
    outcome.op(report.top_k == want.top_k, "parallel top_k differs from sequential")
    outcome.op(report.communication_bytes == want.communication_bytes, "summary bytes differ from sequential")


def reps(ctx: Context, stream: Any, config: Any, want: Any, outcome: Outcome, seconds: float) -> Tuple[List[float], List[float], Any]:
    setup, runs = [], []
    report = None
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or not runs:
        if time.perf_counter() - begin > 4 * seconds:
            break  # every run failing: give up, the failures are counted
        t = time.perf_counter()
        pipeline = _pipeline(config)
        setup.append(time.perf_counter() - t)
        t = time.perf_counter()
        try:
            report = pipeline.run(stream, 100)
        except Exception as exc:  # a crashed run is a failed operation, not a hang
            outcome.op(False, f"run raised {exc!r}")
            continue
        runs.append(time.perf_counter() - t)
        _check(outcome, report, want)
    return setup, runs, report


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    stream = _stream(ctx.seed)
    config = _config()
    seed_shard = _pipeline(config).seed
    want, seq_eps = sequential(stream, config, seed_shard)
    # Warm-up reps, checked but not timed: the first runs after the input
    # and the sequential check are built are measurably slower.
    for _ in range(WARMUP_RUNS):
        _check(outcome, _pipeline(config).run(stream, 100), want)
    setup, runs, report = reps(ctx, stream, config, want, outcome, ctx.seconds)
    for _ in range(SETUP_BUILDS):
        t = time.perf_counter()
        _pipeline(config)
        setup.append(time.perf_counter() - t)
    n = len(stream.events)
    eps = median([n / r for r in runs])
    if not ctx.trace:
        # Every event of a rep waits the whole run for its answer; pool
        # every 1000th event of each rep (equal weight per event).
        per_event = [r * 1e3 for r in runs for _ in range(n // 1000)]
        p50, p99 = p50_p99(per_event)
        outcome.put("setup_s", median(setup), "s")
        outcome.put("events_per_s", eps, "events/s")
        outcome.put("query_p50_ms", p50, "ms")
        outcome.put("query_p99_ms", p99, "ms")
        outcome.put("visible_p50_ms", p50, "ms")
        outcome.put("visible_p99_ms", p99, "ms")
        outcome.put("rss_peak_mb", children_rss_mb(), "MB")
        outcome.notes.append(f"{len(runs)} runs of {n} events")
        return outcome
    print(traced(ctx, stream, config, want, seq_eps, eps, report, outcome))
    return outcome


def traced(ctx: Context, stream: Any, config: Any, want: Any, seq_eps: float, untraced_eps: float, report: Any, outcome: Outcome) -> str:
    from repro.distributed import parallel

    tracer = spanlib.Tracer()
    saved = {
        (parallel, "partition_sharded"): parallel.partition_sharded,
        (parallel, "from_bytes"): parallel.from_bytes,
        (parallel, "merge"): parallel.merge,
        (parallel.ParallelMergingCoordinator, "run"): parallel.ParallelMergingCoordinator.run,
    }
    tracer.install(parallel, "partition_sharded", "dist.partition")
    tracer.install(parallel, "from_bytes", "dist.restore")
    tracer.install(parallel, "merge", "dist.merge")
    tracer.install(parallel.ParallelMergingCoordinator, "run", "dist.coordinator")
    try:
        _, runs, _ = reps(ctx, stream, config, want, outcome, ctx.seconds)
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)
    records = tracer.records
    selfs = self_times(spanlib.as_spans(records))
    n_runs = len(runs)

    traced_eps = median([len(stream.events) / r for r in runs])
    spans = {"dist.partition": "dist.partition", "dist.workers": "dist.coordinator",
             "dist.restore": "dist.restore", "dist.merge": "dist.merge"}
    rows: List[Tuple[str, int, float, str]] = []
    for layer, span in spans.items():
        mine = [r for r in records if r[2] == span]
        self_s = sum(selfs[r[0]] for r in mine) / n_runs
        outcome.put(f"{layer}_ms", self_s * 1e3, "ms")
        counts = f"ipc_bytes={report.ingest_ipc_bytes} crashes={report.worker_crashes}" if layer == "dist.workers" else ""
        rows.append((layer, len(mine) // n_runs, self_s, counts))
    outcome.put("dist.ipc_bytes", report.ingest_ipc_bytes, "bytes")
    outcome.put("dist.communication_bytes", report.communication_bytes, "bytes")
    outcome.put("dist.worker_crashes", report.worker_crashes, "count")
    outcome.put("dist.sequential_eps", seq_eps, "events/s")
    outcome.put("dist.speedup", untraced_eps / seq_eps, "ratio")
    outcome.put("trace.overhead", untraced_eps / traced_eps, "ratio")
    wall = sum(runs) / n_runs
    unattributed = 1.0 - sum(row[2] for row in rows) / wall
    outcome.put("trace.unattributed_share", unattributed, "share")
    return "\n".join([
        stage_table(f"sharded-2w (mean run of {n_runs})", wall, rows),
        f"dist.speedup {untraced_eps / seq_eps:.3f} = {untraced_eps:.0f} / {seq_eps:.0f} ev/s "
        "(untraced parallel / one sequential MergingCoordinator run, same shards)",
        f"trace.overhead {untraced_eps / traced_eps:.3f}  trace.unattributed_share {unattributed:.3f}",
    ])
