"""serve-mixed: the ``repro-ltc serve`` CLI in its own process, over loopback.

Phase ``ingest`` POSTs pre-encoded 4,096-event batches in a closed loop
(backlog held under ``BACKLOG_BOUND``) and gives sustained HTTP ingest
capacity.  Phase ``mixed`` runs an open loop: ingest at ``MIXED_RATE``
events/s on one connection, queries at ``QUERY_RATE``/s on a second
one.  After the drain, the served answers are compared byte for byte
with :mod:`repro.serve.oracle` on a structure rebuilt from the
acknowledged events.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import spans as spanlib
from common import (
    BUCKET_WIDTH,
    NUM_BUCKETS,
    Context,
    Outcome,
    children_rss_mb,
    maybe_percentile,
    p50_p99,
    stage_table,
)
from loadgen import Lane, RequestFailed, Sent, open_loop
from stats import covered, fifo_waits, lateness, median, self_times, visibility

ITEMS_PER_PERIOD = 4096  # the serve default
BASE_EVENTS = 1 << 19  # generated once, cycled for as long as the phases run
DISTINCT = 20_000
INGEST_BATCH = 4096
MIXED_BATCH = 2048
#: Open-loop rates: ingest well under the HTTP ingest capacity, and a
#: query rate the one sequential query connection sustains without a
#: growing backlog (connection-per-request costs ~4 ms a round trip).
MIXED_RATE = 200_000  # events/s
QUERY_RATE = 120  # requests/s
BACKLOG_BOUND = 8 * INGEST_BATCH
THRESHOLD = 2000.0
#: The ingest phase sends a fixed number of events (this share of
#: --seconds at NOMINAL_CAPACITY), so every seed's mixed phase starts
#: from a table with the same history length; the rest is the mixed phase.
INGEST_SHARE = 0.25
NOMINAL_CAPACITY = 1_200_000  # events/s
SETUP_SPAWNS = 3  # extra server starts timed for setup_s
CHECK_IDS = 40
#: Every third query is /stats, the visibility probe, so probes are
#: evenly spaced; the others are drawn from (weight, route).
STATS_EVERY = 3
MIX = ((5, "query"), (2, "top_k"), (1, "significant"))
TIMEOUT = 5.0  # per request; a timed-out request counts as failed
DRAIN_TIMEOUT = 60.0


@dataclass
class Server:
    proc: "subprocess.Popen[bytes]"
    port: int
    startup: float
    workdir: Path


def _env(ctx: Context) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src"), str(ctx.root / "perfbench")]
    )
    return env


def spawn(ctx: Context, workdir: Path, spans_path: Optional[Path] = None) -> Server:
    """Start the CLI; return once it prints ``serving on HOST:PORT``."""
    workdir.mkdir(parents=True)
    serve = ["serve", "--port", "0", "--snapshot-dir", str(workdir / "snapshots")]
    if spans_path is None:
        cmd = [sys.executable, "-m", "repro", *serve]
    else:
        launcher = str(ctx.root / "perfbench" / "serve_launcher.py")
        cmd = [sys.executable, launcher, str(spans_path), *serve]
    started = time.perf_counter()
    with open(workdir / "stderr.log", "wb") as err:
        proc = subprocess.Popen(
            cmd, cwd=str(ctx.root), env=_env(ctx), stdout=subprocess.PIPE, stderr=err
        )
    assert proc.stdout is not None
    deadline = started + 60.0
    buf = b""
    while b"serving on " not in buf:
        left = deadline - time.perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], max(left, 0))
        chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            stop(Server(proc, 0, 0.0, workdir))
            raise RuntimeError(
                "server did not start: "
                + (workdir / "stderr.log").read_text(errors="replace")[-2000:]
            )
        buf += chunk
    startup = time.perf_counter() - started
    line = buf.split(b"serving on ", 1)[1].split(b"\n", 1)[0].decode()
    port = int(line.rsplit(":", 1)[1])
    return Server(proc, port, startup, workdir)


def stop(server: Server) -> int:
    """SIGTERM (drain + final snapshot), wait, and reap the process."""
    proc = server.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return code


# ------------------------------------------------------------------- input
@dataclass
class Inputs:
    events: List[int]
    ingest_bodies: List[bytes]
    mixed_bodies: List[bytes]
    query_plan: List[Tuple[str, str]]  # (route, target), cycled
    check_ids: List[int]


def make_inputs(seed: int) -> Inputs:
    from repro.streams.datasets import caida_like

    stream = caida_like(
        num_events=BASE_EVENTS,
        num_distinct=DISTINCT,
        num_periods=BASE_EVENTS // ITEMS_PER_PERIOD,
        seed=seed,
    )
    events = list(stream.events)

    def bodies(size: int) -> List[bytes]:
        return [
            json.dumps({"items": events[i : i + size]}, separators=(",", ":")).encode()
            for i in range(0, len(events), size)
        ]

    rng = random.Random(seed ^ 0x5E12E)
    present = set(events)
    keys = sorted(present)
    # Routes come in shuffled rounds of MIX, so every run of a given
    # length asks each route the same number of times.
    rounds: List[str] = []
    plan = []
    for i in range(4096):
        if i % STATS_EVERY == 0:
            route = "stats"
        else:
            if not rounds:
                rounds = [route for weight, route in MIX for _ in range(weight)]
                rng.shuffle(rounds)
            route = rounds.pop()
        if route == "query":
            target = f"/query/{rng.choice(events)}"
        elif route == "top_k":
            target = f"/top_k?k={rng.choice((10, 50, 100))}"
        elif route == "significant":
            target = f"/significant?threshold={THRESHOLD:g}"
        else:
            target = "/stats"
        plan.append((route, target))
    absent = [k + 1 for k in rng.sample(keys, 8) if k + 1 not in present][:4]
    check = rng.sample(keys, CHECK_IDS) + absent
    return Inputs(events, bodies(INGEST_BATCH), bodies(MIXED_BATCH), plan, check)


def acked_events(inputs: Inputs, rec: "Record") -> List[int]:
    """The event sequence the server acknowledged, in order."""
    base = inputs.events
    out = [base[i % len(base)] for i in range(rec.ingest_batches * INGEST_BATCH)]
    bodies = len(base) // MIXED_BATCH
    for i, sent in enumerate(rec.mixed_batches):
        if sent.ok:
            lo = (rec.mixed_first + i) % bodies * MIXED_BATCH
            out.extend(base[lo : lo + MIXED_BATCH])
    return out


# ------------------------------------------------------------------ phases
@dataclass
class Record:
    ingest_window: Tuple[float, float] = (0.0, 0.0)
    mixed_window: Tuple[float, float] = (0.0, 0.0)
    ingest_batches: int = 0
    ingest_events: int = 0
    ingest_eps: float = 0.0
    mixed_first: int = 0  # body index of the first mixed-phase batch
    mixed_batches: List[Sent] = field(default_factory=list)
    mixed_queries: List[Sent] = field(default_factory=list)
    probes: List[Tuple[float, int]] = field(default_factory=list)
    backlog_max: int = 0
    stats_seen: List[Dict[str, Any]] = field(default_factory=list)
    metrics_text: str = ""
    requests: int = 0


async def _stats(lane: Lane, rec: Record, outcome: Outcome) -> Optional[Dict[str, Any]]:
    """One ``GET /stats`` (counted as an operation); ``None`` if it failed."""
    try:
        doc = json.loads(await lane.request("GET", "/stats"))
    except RequestFailed as exc:
        outcome.op(False, str(exc))
        return None
    outcome.op(True)
    rec.stats_seen.append(doc)
    return doc


async def _drain(lane: Lane, target: int, rec: Record, outcome: Outcome, poll: float) -> Optional[float]:
    """Poll ``/stats`` until ``target`` events are applied; the drain time, or None."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DRAIN_TIMEOUT
    while loop.time() < deadline:
        doc = await _stats(lane, rec, outcome)
        if doc is None:
            return None
        now = loop.time()
        rec.probes.append((now, int(doc["ingested"])))
        if doc["queued"] == 0 and doc["ingested"] >= target:
            return now
        await asyncio.sleep(poll)
    outcome.op(False, f"server did not apply {target} events within {DRAIN_TIMEOUT}s")
    return None


async def ingest_phase(
    port: int, inputs: Inputs, batches: int, rec: Record, outcome: Outcome
) -> None:
    """Closed loop: next POST once the previous is answered; bounded backlog."""
    loop = asyncio.get_running_loop()
    lane = Lane("127.0.0.1", port, TIMEOUT)
    bodies = inputs.ingest_bodies
    first = loop.time()
    sent = 0
    while sent < batches:
        try:
            doc = json.loads(await lane.request("POST", "/ingest", bodies[sent % len(bodies)]))
        except RequestFailed as exc:
            outcome.op(False, str(exc))
            break
        outcome.op(True)
        sent += 1
        pending = int(doc["pending"])
        while pending > BACKLOG_BOUND:
            await asyncio.sleep(0.002)
            stats = await _stats(lane, rec, outcome)
            pending = int(stats["queued"]) if stats is not None else 0
    drained = await _drain(lane, sent * INGEST_BATCH, rec, outcome, 0.001)
    rec.ingest_batches = sent
    rec.ingest_events = int(rec.stats_seen[-1]["ingested"]) if rec.stats_seen else 0
    if drained is not None:
        rec.ingest_window = (first, drained)
        rec.ingest_eps = rec.ingest_events / (drained - first)
    rec.requests += lane.requests
    lane.close()


async def mixed_phase(
    port: int, inputs: Inputs, seconds: float, rec: Record, outcome: Outcome
) -> None:
    """Open loop: ingest at MIXED_RATE on one connection, the query mix on another."""
    loop = asyncio.get_running_loop()
    ingest_lane = Lane("127.0.0.1", port, TIMEOUT)
    query_lane = Lane("127.0.0.1", port, TIMEOUT)
    start = loop.time() + 0.05
    batch_rate = MIXED_RATE / MIXED_BATCH
    bodies = inputs.mixed_bodies
    # Continue the input where the ingest phase stopped.
    first = rec.mixed_first = rec.ingest_batches * INGEST_BATCH % len(inputs.events) // MIXED_BATCH
    ingest_schedule = [
        (start + i / batch_rate, "POST", "/ingest", bodies[(first + i) % len(bodies)], "ingest")
        for i in range(int(seconds * batch_rate))
    ]
    plan = inputs.query_plan
    query_schedule = [
        (start + i / QUERY_RATE, "GET", plan[i % len(plan)][1], b"", plan[i % len(plan)][0])
        for i in range(int(seconds * QUERY_RATE))
    ]
    await asyncio.gather(
        open_loop(ingest_lane, ingest_schedule, rec.mixed_batches),
        open_loop(query_lane, query_schedule, rec.mixed_queries),
    )
    rec.mixed_window = (start, loop.time())
    for sent in rec.mixed_batches:
        outcome.op(sent.ok, "mixed ingest POST failed")
    for sent in rec.mixed_queries:
        outcome.op(sent.ok, f"mixed {sent.tag} failed")
        if sent.ok and sent.tag == "stats":
            doc = json.loads(sent.payload)
            rec.stats_seen.append(doc)
            rec.probes.append((sent.done, int(doc["ingested"])))
            rec.backlog_max = max(rec.backlog_max, int(doc["queued"]))
    # Keep probing until drained, so every batch gets a visibility time.
    acked = sum(1 for sent in rec.mixed_batches if sent.ok)
    await _drain(query_lane, rec.ingest_events + acked * MIXED_BATCH, rec, outcome, 0.005)
    for lane in (ingest_lane, query_lane):
        rec.requests += lane.requests
        lane.close()


async def check_phase(
    port: int, inputs: Inputs, rec: Record, outcome: Outcome, trace: bool
) -> Dict[str, bytes]:
    """Fetch the answers the output check compares (untimed)."""
    lane = Lane("127.0.0.1", port, 30.0)
    served: Dict[str, bytes] = {}
    targets = ["/top_k?k=100", f"/significant?threshold={THRESHOLD:g}"]
    targets += [f"/query/{item}" for item in inputs.check_ids]
    if trace:
        targets.append("/metrics")
    for target in targets:
        try:
            served[target] = await lane.request("GET", target)
        except RequestFailed as exc:
            outcome.op(False, str(exc))
    rec.metrics_text = served.pop("/metrics", b"").decode()
    await _stats(lane, rec, outcome)
    rec.requests += lane.requests
    lane.close()
    return served


def verify(inputs: Inputs, rec: Record, served: Dict[str, bytes], outcome: Outcome) -> None:
    """Served answers must equal the oracle on a replay of the acked events."""
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc
    from repro.serve.oracle import canonical_json, oracle_query, oracle_significant, oracle_top_k

    events = acked_events(inputs, rec)
    ltc = build_ltc(
        LTCConfig(
            num_buckets=NUM_BUCKETS,
            bucket_width=BUCKET_WIDTH,
            items_per_period=ITEMS_PER_PERIOD,
            kernel="columnar",
        )
    )
    for i in range(0, len(events), ITEMS_PER_PERIOD):
        chunk = events[i : i + ITEMS_PER_PERIOD]
        ltc.insert_many(chunk)
        if len(chunk) == ITEMS_PER_PERIOD:
            ltc.end_period()
    expected = {
        "/top_k?k=100": oracle_top_k(ltc, 100),
        f"/significant?threshold={THRESHOLD:g}": oracle_significant(ltc, THRESHOLD),
    }
    for item in inputs.check_ids:
        expected[f"/query/{item}"] = oracle_query(ltc, item)
    for target, payload in expected.items():
        if target in served:
            outcome.check(served[target], canonical_json(payload), target)
    final = rec.stats_seen[-1] if rec.stats_seen else {}
    outcome.op(final.get("ingested") == len(events), "served event count differs from acked")


# ------------------------------------------------------------------- run
@dataclass
class Pass:
    record: Record
    setup: List[float]
    rss_mb: float
    spans_path: Optional[Path]


def run_pass(ctx: Context, inputs: Inputs, outcome: Outcome, traced: bool, workdir: Path) -> Pass:
    setup = []
    if not traced:
        for i in range(SETUP_SPAWNS):
            probe = spawn(ctx, workdir / f"probe{i}")
            setup.append(probe.startup)
            outcome.op(stop(probe) == 0, "probe server exited non-zero")
    spans_path = workdir / "spans.json" if traced else None
    server = spawn(ctx, workdir / "main", spans_path)
    setup.append(server.startup)
    rec = Record()
    ingest_batches = round(ctx.seconds * INGEST_SHARE * NOMINAL_CAPACITY / INGEST_BATCH)
    mixed_s = ctx.seconds * (1 - INGEST_SHARE)
    try:
        async def drive() -> Dict[str, bytes]:
            await ingest_phase(server.port, inputs, ingest_batches, rec, outcome)
            await mixed_phase(server.port, inputs, mixed_s, rec, outcome)
            return await check_phase(server.port, inputs, rec, outcome, traced)

        served = asyncio.run(drive())
    finally:
        code = stop(server)
    outcome.op(code == 0, f"server exited with {code}")
    snaps = list((server.workdir / "snapshots").glob("snapshot-*.ltc"))
    outcome.op(len(snaps) == 1, "final snapshot missing")
    verify(inputs, rec, served, outcome)
    return Pass(rec, setup, children_rss_mb(), spans_path)


def end_to_end(p: Pass, outcome: Outcome) -> None:
    rec = p.record
    queries = [s.latency if s.ok else TIMEOUT for s in rec.mixed_queries]
    batches = [
        (s.due, rec.ingest_events + (i + 1) * MIXED_BATCH)
        for i, s in enumerate(s for s in rec.mixed_batches if s.ok)
    ]
    visible = visibility(batches, rec.probes)
    for _ in range(len(batches) - len(visible)):
        outcome.op(False, "batch never became visible")
    q50, q99 = p50_p99([q * 1e3 for q in queries])
    v50, v99 = p50_p99([v * 1e3 for v in visible])
    outcome.put("setup_s", median(p.setup), "s")
    outcome.put("events_per_s", rec.ingest_eps, "events/s")
    outcome.put("query_p50_ms", q50, "ms")
    outcome.put("query_p99_ms", q99, "ms")
    outcome.put("visible_p50_ms", v50, "ms")
    outcome.put("visible_p99_ms", v99, "ms")
    outcome.put("rss_peak_mb", p.rss_mb, "MB")
    outcome.notes.append(
        f"samples: {len(queries)} queries, {len(visible)} batches; "
        f"ingest {rec.ingest_events} events in {rec.ingest_window[1] - rec.ingest_window[0]:.2f}s"
    )


def obs_counter(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and (line[len(name)] in " {"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def per_layer(p: Pass, untraced_eps: float, outcome: Outcome) -> str:
    """Turn the server's spans plus the client's timings into layer metrics."""
    rec = p.record
    assert p.spans_path is not None
    records = spanlib.load(p.spans_path)
    spans = spanlib.as_spans(records)
    selfs = self_times(spans)
    by_id = {r[0]: r for r in records}
    kids: Dict[int, List[List[Any]]] = {}
    for r in records:
        if r[1] is not None:
            kids.setdefault(r[1], []).append(r)
    ms = 1e3
    mixed_lo, mixed_hi = rec.mixed_window
    ing_lo, ing_hi = rec.ingest_window

    def named(name: str) -> List[List[Any]]:
        return [r for r in records if r[2] == name]

    def in_window(r: List[Any], lo: float, hi: float) -> bool:
        return lo <= r[3] <= hi

    def dur(r: List[Any]) -> float:
        return r[4] - r[3]

    handles = named("serve.handle")
    responds = named("serve.respond")
    framing = [dur(h) - sum(dur(c) for c in kids.get(h[0], ()) if c[2] == "serve.respond") for h in handles]
    outcome.put("serve.framing_ms.p50", maybe_percentile([f * ms for f in framing], 0.5), "ms")
    outcome.put("serve.framing_ms.p99", maybe_percentile([f * ms for f in framing], 0.99), "ms")
    outcome.put("serve.connections_per_request", len(handles) / max(len(responds), 1), "conn/req")
    for route in ("query", "top_k", "significant", "stats"):
        vals = [dur(r) * ms for r in responds if r[6].get("route") == route and in_window(r, mixed_lo, mixed_hi)]
        outcome.put(f"serve.route_ms.{route}.p50", maybe_percentile(vals, 0.5), "ms")
        outcome.put(f"serve.route_ms.{route}.p90", maybe_percentile(vals, 0.9), "ms")
    decode, decode_events = [], 0
    for r in responds:
        if r[6].get("route") == "ingest" and in_window(r, ing_lo, ing_hi):
            children = kids.get(r[0], ())
            decode.append(dur(r) - sum(dur(c) for c in children if c[2] == "serve.encode"))
            decode_events += sum(c[6]["n"] for c in children if c[2] == "serve.submit")
    outcome.put("serve.ingest_decode_ms.p50", maybe_percentile([d * ms for d in decode], 0.5), "ms")
    outcome.put("serve.ingest_decode_eps", decode_events / sum(decode) if decode else 0.0, "events/s")
    submits = [(r[4], r[6]["n"]) for r in named("serve.submit")]
    inserts = named("core.insert_many")
    applies = [(r[3], r[6]["n"]) for r in inserts]
    waits = fifo_waits(submits, applies)
    mixed_waits = [w * ms for (done, _), w in zip(submits, waits) if mixed_lo <= done <= mixed_hi]
    outcome.put("serve.queue_wait_ms.p50", maybe_percentile(mixed_waits, 0.5), "ms")
    outcome.put("serve.queue_wait_ms.p99", maybe_percentile(mixed_waits, 0.99), "ms")
    outcome.put("serve.backlog_events.max", rec.backlog_max, "events")
    notifies = named("index.notify")
    ingest_notifies = [r for r in notifies if in_window(r, ing_lo, ing_hi)]
    outcome.put("index.notify_ms", sum(dur(r) for r in ingest_notifies) * ms, "ms")
    outcome.put("index.notified_slots", sum(r[6]["n"] for r in ingest_notifies), "slots")
    calls = [dur(r) * ms for r in named("index.call") if in_window(r, mixed_lo, mixed_hi)]
    outcome.put("index.call_ms.p50", maybe_percentile(calls, 0.5), "ms")
    outcome.put("index.call_ms.p99", maybe_percentile(calls, 0.99), "ms")
    final = rec.stats_seen[-1] if rec.stats_seen else {}
    outcome.put("index.repairs", final.get("repairs", 0), "count")
    outcome.put("index.heap_size.max", max((d.get("heap_size", 0) for d in rec.stats_seen), default=0), "entries")
    encodes = [r for r in named("serve.encode") if in_window(r, mixed_lo, mixed_hi)]
    outcome.put("serve.encode_ms.p50", maybe_percentile([dur(r) * ms for r in encodes], 0.5), "ms")
    outcome.put("serve.encode_ms.p99", maybe_percentile([dur(r) * ms for r in encodes], 0.99), "ms")
    outcome.put("serve.encode_bytes.p50", maybe_percentile([r[6]["bytes"] for r in encodes], 0.5), "bytes")
    snaps = named("serve.snapshot")
    outcome.put("serve.snapshot_ms", sum(dur(r) for r in snaps) * ms, "ms")
    outcome.put("serve.snapshot_bytes", sum(r[6]["bytes"] for r in snaps), "bytes")
    ingest_inserts = [r for r in inserts if in_window(r, ing_lo, ing_hi)]
    insert_self = sum(selfs[r[0]] for r in ingest_inserts)
    outcome.put("core.insert_many_ms", insert_self * ms, "ms")
    outcome.put("core.insert_many_eps", sum(r[6]["n"] for r in ingest_inserts) / insert_self if insert_self else 0.0, "events/s")
    ends = [r for r in named("core.end_period") if in_window(r, ing_lo, ing_hi)]
    outcome.put("core.end_period_ms", sum(selfs[r[0]] for r in ends) * ms, "ms")
    outcome.put("core.finalize_top_k_ms", 0.0, "ms")
    outcome.put("core.columnar_share", sum(1 for r in inserts if r[6]["kernel"] == "columnar") / max(len(inserts), 1), "share")
    inserted = obs_counter(rec.metrics_text, "ltc_inserts_total")
    for metric, counter in (
        ("core.decrement_share", "ltc_significance_decrements_total"),
        ("core.eviction_share", "ltc_evictions_total"),
        ("core.longtail_share", "ltc_longtail_replacements_total"),
    ):
        outcome.put(metric, obs_counter(rec.metrics_text, counter) / inserted if inserted else 0.0, "share")
    # Load generator: open-loop lateness over both mixed-phase lanes.
    late = lateness(
        [s.due for s in rec.mixed_queries + rec.mixed_batches],
        [s.sent for s in rec.mixed_queries + rec.mixed_batches],
    )
    outcome.put("loadgen.late_ms.p50", maybe_percentile([x * ms for x in late], 0.5), "ms")
    outcome.put("loadgen.late_ms.p99", maybe_percentile([x * ms for x in late], 0.99), "ms")
    outcome.put("trace.overhead", untraced_eps / rec.ingest_eps if rec.ingest_eps else 0.0, "ratio")
    # Unattributed: share of the closed-loop ingest window no server span covers.
    wall = ing_hi - ing_lo
    top = [(r[3], r[4]) for r in records if r[1] is None or r[1] not in by_id]
    busy = covered(top, ing_lo, ing_hi)
    outcome.put("trace.unattributed_share", 1.0 - busy / wall, "share")
    rows = []
    for layer in (
        "serve.handle", "serve.respond", "serve.submit", "serve.encode",
        "index.call", "index.notify", "core.insert_many", "core.end_period",
        "serve.snapshot",
    ):
        # The snapshot runs at shutdown, after the phases.
        sel = [r for r in named(layer) if layer == "serve.snapshot" or in_window(r, ing_lo, mixed_hi)]
        counts = ""
        if layer in ("core.insert_many", "serve.submit"):
            counts = f"events={sum(r[6]['n'] for r in sel)}"
        elif layer == "index.notify":
            counts = f"slots={sum(r[6]['n'] for r in sel)}"
        elif layer == "serve.encode":
            counts = f"bytes={sum(r[6]['bytes'] for r in sel)}"
        rows.append((layer, len(sel), sum(selfs[r[0]] for r in sel), counts))
    rows.append((
        "loadgen (client process)", rec.requests, 0.0,
        f"late p50={outcome.metrics['loadgen.late_ms.p50'][0]:.2f}ms "
        f"p99={outcome.metrics['loadgen.late_ms.p99'][0]:.2f}ms",
    ))
    return stage_table("serve-mixed (server spans, ingest+mixed phases)", mixed_hi - ing_lo, rows)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    inputs = make_inputs(ctx.seed)
    workdir = ctx.scratch / f"serve-{os.getpid()}"
    try:
        plain = run_pass(ctx, inputs, outcome, False, workdir / "plain")
        if not ctx.trace:
            end_to_end(plain, outcome)
            return outcome
        traced = run_pass(ctx, inputs, outcome, True, workdir / "traced")
        print(per_layer(traced, plain.record.ingest_eps, outcome))
        print(f"trace.overhead {outcome.metrics['trace.overhead'][0]:.3f}  "
              f"trace.unattributed_share {outcome.metrics['trace.unattributed_share'][0]:.3f}")
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
