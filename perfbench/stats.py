"""Benchmark arithmetic: percentiles, span self time, FIFO matching.

Everything here is pure and deterministic so ``test_stats.py`` can pin
it: the benchmark's numbers are only as good as this arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond quantile ``q``."""
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    # ceil() of a float product can overshoot by one ulp; round first.
    return math.ceil(round(MIN_BEYOND / (1.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation, ``0 <= q < 1``).

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie beyond the quantile, so a p99 needs 1,000 samples and a p50 20.
    """
    n = len(values)
    if n < samples_needed(q):
        raise TooFewSamples(
            f"p{q * 100:g} needs {samples_needed(q)} samples, got {n}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (no sample-size rule: a centre, not a tail)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def lateness(scheduled: Sequence[float], sent: Sequence[float]) -> List[float]:
    """Per-request open-loop lateness: send time minus scheduled time.

    A generator that sends early is a bug, not a negative lateness, so
    early sends raise instead of cancelling late ones in the percentiles.
    """
    if len(scheduled) != len(sent):
        raise ValueError("scheduled and sent differ in length")
    out = []
    for due, actual in zip(scheduled, sent):
        if actual < due:
            raise ValueError(f"request sent {due - actual:.6f}s before schedule")
        out.append(actual - due)
    return out


# ------------------------------------------------------------------ spans
#: A finished span: ``(span_id, parent_id, name, start, end)``.
Span = Tuple[int, Optional[int], str, float, float]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's self time: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once (the union), so self time is never
    negative and never double-subtracts concurrent children.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent is None or parent not in bounds:
            continue
        plo, phi = bounds[parent]
        lo, hi = max(start, plo), min(end, phi)
        if hi > lo:
            children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()))
        for sid, _, _, start, end in spans
    }


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = [(max(a, lo), min(b, hi)) for a, b in intervals]
    return _union_length((a, b) for a, b in clipped if b > a)


# ------------------------------------------------------------ FIFO queues
def fifo_waits(
    submits: Sequence[Tuple[float, int]], applies: Sequence[Tuple[float, int]]
) -> List[float]:
    """Queue wait per submitted batch, matched first-in first-out.

    ``submits`` are ``(time the submit returned, events)`` in queue
    order; ``applies`` are ``(start time, events)`` of each apply call in
    order.  A FIFO consumer applies batch ``i`` starting at event offset
    ``sum(events of batches < i)``, so its wait ends at the apply call
    whose event range contains that offset.  Batches never reached by an
    apply are left out.
    """
    starts: List[int] = []
    offset = 0
    for _, n in applies:
        starts.append(offset)
        offset += n
    applied_total = offset
    waits = []
    first = 0
    for done, n in submits:
        if n > 0 and first < applied_total:
            # Last apply call starting at or before this batch's first event.
            j = bisect_left(starts, first + 1) - 1
            waits.append(applies[j][0] - done)
        first += n
    return waits


def visibility(
    batches: Sequence[Tuple[float, int]], probes: Sequence[Tuple[float, int]]
) -> List[float]:
    """Freshness per batch: first probe showing it applied, minus its due time.

    ``batches`` are ``(scheduled time, cumulative events once applied)``;
    ``probes`` are ``(time the answer arrived, events applied)`` from the
    visibility probe.  Batches no probe ever covered are left out (the
    caller counts them as failed).
    """
    ordered = sorted(probes)
    out = []
    j = 0
    for due, needed in batches:
        while j < len(ordered) and (ordered[j][0] < due or ordered[j][1] < needed):
            # Probes only ever grow, so one that is too early or too low
            # for this batch is useless for every later batch too.
            j += 1
        if j == len(ordered):
            break
        out.append(ordered[j][0] - due)
    return out
