"""ingest-hot and ingest-churn: in-process ``build_ltc`` batch ingest.

One rep builds a fresh table with ``kernel="auto"``, feeds every period
as a Python int list through ``insert_many`` plus ``end_period``, then
``finalize`` and ``top_k(100)``; that span is what ``events_per_s``
times.  Reads follow, timed one by one: point ``query`` on stream keys,
with every 50th read a ``top_k``.
Reps repeat on the same input until ``--seconds`` have passed and every
percentile has the samples it needs.  The first rep's report and
``to_bytes`` checkpoint must equal a ``kernel="reference"`` replay of
the same input; every later rep must reproduce the first byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from common import (
    BUCKET_WIDTH,
    NUM_BUCKETS,
    Context,
    Outcome,
    p50_p99,
    self_rss_mb,
    stage_table,
)
from stats import median, samples_needed, self_times
import spans as spanlib

READS_PER_REP = 200
#: Every TOPK_EVERY-th read is top_k(k) rather than a point query, so the
#: read mix is 2% top_k and p99 lands inside the top_k reads.
TOPK_EVERY = 50
TOPK_KS = (10, 50, 100, 100)
EXTRA_BUILDS = 20  # table constructions timed for setup_s besides one per rep
MAX_SECONDS_FACTOR = 4  # reps may run past --seconds only to reach sample counts


@dataclass(frozen=True)
class Spec:
    name: str
    make: Callable[[int], Any]  # seed -> PeriodicStream


def _hot(seed: int) -> Any:
    from repro.streams.synthetic import zipf_stream

    return zipf_stream(num_events=500_000, num_distinct=5_000, skew=1.0, num_periods=100, seed=seed)


def _churn(seed: int) -> Any:
    from repro.streams.datasets import network_like

    return network_like(num_events=200_000, num_distinct=200_000, num_periods=100, seed=seed)


HOT = Spec("ingest-hot", _hot)
CHURN = Spec("ingest-churn", _churn)


def _config(stream: Any, kernel: str) -> Any:
    from repro.core.config import LTCConfig

    return LTCConfig(
        num_buckets=NUM_BUCKETS,
        bucket_width=BUCKET_WIDTH,
        items_per_period=stream.period_length,
        kernel=kernel,
    )


def _report(ltc: Any) -> List[Tuple[int, float, int, int]]:
    return [(int(r.item), float(r.significance), int(r.frequency), int(r.persistency)) for r in ltc.top_k(100)]


def reference(ctx: Context, spec: Spec, stream: Any, batches: List[List[int]]) -> Dict[str, Any]:
    """The ``kernel="reference"`` answer for this seed (cached on disk)."""
    from repro.core.kernels import build_ltc
    from repro.core.serialize import to_bytes

    path = ctx.cache / f"{spec.name}-{ctx.seed}.json"
    if path.exists():
        return json.loads(path.read_text())
    ltc = build_ltc(_config(stream, "reference"))
    for batch in batches:
        ltc.insert_many(batch)
        ltc.end_period()
    ltc.finalize()
    answer = {"report": _report(ltc), "sha256": hashlib.sha256(to_bytes(ltc)).hexdigest()}
    path.write_text(json.dumps(answer))
    return json.loads(path.read_text())


@dataclass
class Rep:
    seconds: float
    batch_latency: List[float]
    reads: List[float]
    report: List[Tuple[int, float, int, int]]
    digest: str
    window: Tuple[float, float]


def one_rep(config: Any, batches: List[List[int]], read_keys: List[int], ltc: Any = None) -> Rep:
    from repro.core.kernels import build_ltc
    from repro.core.serialize import to_bytes

    clock = time.perf_counter
    if ltc is None:
        ltc = build_ltc(config)
    lat = []
    start = clock()
    for batch in batches:
        t = clock()
        ltc.insert_many(batch)
        ltc.end_period()
        lat.append(clock() - t)
    ltc.finalize()
    top = ltc.top_k(100)
    end = clock()
    del top
    reads = []
    for i, key in enumerate(read_keys):
        if i % TOPK_EVERY == TOPK_EVERY - 1:
            k = TOPK_KS[i // TOPK_EVERY % len(TOPK_KS)]
            t = clock()
            ltc.top_k(k)
        else:
            t = clock()
            ltc.query(key)
        reads.append(clock() - t)
    report = _report(ltc)
    digest = hashlib.sha256(to_bytes(ltc)).hexdigest()
    return Rep(end - start, lat, reads, report, digest, (start, end))


def _check(outcome: Outcome, rep: Rep, want: Dict[str, Any]) -> None:
    outcome.check(json.dumps(rep.report).encode(), json.dumps(want["report"]).encode(), "top_k(100) vs reference")
    outcome.check(rep.digest.encode(), want["sha256"].encode(), "to_bytes vs reference")


def measure(ctx: Context, config: Any, batches: List[List[int]], keys: List[int], want: Dict[str, Any], outcome: Outcome) -> Tuple[List[Rep], List[float]]:
    """Reps until --seconds pass and p99 sample counts are reached."""
    from repro.core.kernels import build_ltc

    setup = []
    for _ in range(EXTRA_BUILDS):
        t = time.perf_counter()
        build_ltc(config)
        setup.append(time.perf_counter() - t)
    reps: List[Rep] = []
    need = samples_needed(0.99)
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        enough = sum(len(r.batch_latency) for r in reps) >= need and sum(len(r.reads) for r in reps) >= need
        if reps and ((elapsed >= ctx.seconds and enough) or elapsed >= MAX_SECONDS_FACTOR * ctx.seconds):
            break
        t = time.perf_counter()
        ltc = build_ltc(config)
        setup.append(time.perf_counter() - t)
        rep = one_rep(config, batches, keys, ltc)
        reps.append(rep)
        outcome.attempted += len(batches) + len(keys)
        _check(outcome, rep, want)
    return reps, setup


def run(ctx: Context, spec: Spec) -> Outcome:
    outcome = Outcome()
    stream = spec.make(ctx.seed)
    batches = stream.period_batches()
    events = sum(len(b) for b in batches)
    rng = random.Random(ctx.seed ^ 0x1EAD)
    keys = [rng.choice(stream.events) for _ in range(READS_PER_REP)]
    want = reference(ctx, spec, stream, batches)
    config = _config(stream, "auto")
    reps, setup = measure(ctx, config, batches, keys, want, outcome)
    eps = median([events / r.seconds for r in reps])
    if not ctx.trace:
        q50, q99 = p50_p99([x * 1e3 for r in reps for x in r.reads])
        v50, v99 = p50_p99([x * 1e3 for r in reps for x in r.batch_latency])
        outcome.put("setup_s", median(setup), "s")
        outcome.put("events_per_s", eps, "events/s")
        outcome.put("query_p50_ms", q50, "ms")
        outcome.put("query_p99_ms", q99, "ms")
        outcome.put("visible_p50_ms", v50, "ms")
        outcome.put("visible_p99_ms", v99, "ms")
        outcome.put("rss_peak_mb", self_rss_mb(), "MB")
        outcome.notes.append(f"{len(reps)} reps of {events} events")
        return outcome
    print(traced(ctx, spec, config, batches, want, eps, outcome))
    return outcome


def traced(ctx: Context, spec: Spec, config: Any, batches: List[List[int]], want: Dict[str, Any], untraced_eps: float, outcome: Outcome) -> str:
    """Same reps with spans on every kernel entry point and repro.obs on."""
    from repro import obs
    from repro.core.kernels import build_ltc
    from serve_launcher import instrument_ltc

    events = sum(len(b) for b in batches)
    layers = ("core.insert_many", "core.end_period", "core.finalize_top_k")
    registry = obs.enable()
    per_rep: List[Dict[str, float]] = []
    columnar_calls = calls = 0
    unattributed = []
    begin = time.perf_counter()
    try:
        while not per_rep or time.perf_counter() - begin < ctx.seconds:
            tracer = spanlib.Tracer()
            ltc = instrument_ltc(tracer, build_ltc(config))
            tracer.install(ltc, "finalize", "core.finalize_top_k")
            tracer.install(ltc, "top_k", "core.finalize_top_k")
            rep = one_rep(config, batches, [], ltc)
            _check(outcome, rep, want)
            # The check's own top_k runs after the timed region; leave it out.
            timed = [r for r in tracer.records if r[4] <= rep.window[1]]
            selfs = self_times(spanlib.as_spans(timed))
            sums = {layer: sum(selfs[r[0]] for r in timed if r[2] == layer) for layer in layers}
            sums["seconds"] = rep.seconds
            per_rep.append(sums)
            inserts = [r for r in timed if r[2] == "core.insert_many"]
            calls += len(inserts)
            columnar_calls += sum(1 for r in inserts if r[6]["kernel"] == "columnar")
            busy = sum(r[4] - r[3] for r in timed if r[1] is None)
            unattributed.append(1.0 - busy / rep.seconds)
        counts = {m.name: m.value for m in registry.metrics() if m.kind == "counter"}
    finally:
        obs.disable()
    insert_s = median([s["core.insert_many"] for s in per_rep])
    traced_eps = median([events / s["seconds"] for s in per_rep])
    outcome.put("core.insert_many_ms", insert_s * 1e3, "ms")
    outcome.put("core.insert_many_eps", events / insert_s, "events/s")
    outcome.put("core.end_period_ms", median([s["core.end_period"] for s in per_rep]) * 1e3, "ms")
    outcome.put("core.finalize_top_k_ms", median([s["core.finalize_top_k"] for s in per_rep]) * 1e3, "ms")
    outcome.put("core.columnar_share", columnar_calls / calls, "share")
    inserted = counts["ltc_inserts_total"]
    shares = []
    for metric, counter in (
        ("core.decrement_share", "ltc_significance_decrements_total"),
        ("core.eviction_share", "ltc_evictions_total"),
        ("core.longtail_share", "ltc_longtail_replacements_total"),
    ):
        outcome.put(metric, counts.get(counter, 0.0) / inserted, "share")
        shares.append(f"{metric} {outcome.metrics[metric][0]:.6f}")
    outcome.put("trace.overhead", untraced_eps / traced_eps, "ratio")
    outcome.put("trace.unattributed_share", median(unattributed), "share")
    rows = [
        (layer, 2 if layer == "core.finalize_top_k" else len(batches),
         median([s[layer] for s in per_rep]), f"events={events}" if layer == "core.insert_many" else "")
        for layer in layers
    ]
    table = stage_table(f"{spec.name} (median rep of {len(per_rep)})", median([s["seconds"] for s in per_rep]), rows)
    return "\n".join([
        table,
        f"trace.overhead {untraced_eps / traced_eps:.3f}  trace.unattributed_share {median(unattributed):.3f}",
        f"core.columnar_share {columnar_calls / calls:.3f}  " + "  ".join(shares),
    ])
