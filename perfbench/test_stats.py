"""Self-tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest -q perfbench/test_stats.py``.
"""

from __future__ import annotations

import statistics

import pytest

from stats import (
    TooFewSamples,
    covered,
    fifo_waits,
    lateness,
    median,
    percentile,
    samples_needed,
    self_times,
    visibility,
)


# ------------------------------------------------------------ percentiles
def test_samples_needed_leaves_ten_beyond() -> None:
    assert samples_needed(0.50) == 20
    assert samples_needed(0.90) == 100
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.0) == 10


def test_p99_refuses_999_samples_and_accepts_1000() -> None:
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == pytest.approx(989.01)


def test_p50_needs_twenty() -> None:
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 0.5)
    assert percentile([1.0] * 20, 0.5) == 1.0


def test_percentile_interpolates_like_statistics_inclusive() -> None:
    values = [float(x * x % 97) for x in range(200)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert percentile(values, 0.50) == pytest.approx(cuts[49])
    assert percentile(values, 0.90) == pytest.approx(cuts[89])


def test_percentile_ignores_input_order() -> None:
    values = [5.0, 1.0, 3.0] * 10
    assert percentile(values, 0.5) == percentile(sorted(values), 0.5) == 3.0


def test_median_of_even_sample() -> None:
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(TooFewSamples):
        median([])


# ------------------------------------------------------------- self time
def test_self_time_subtracts_children() -> None:
    spans = [
        (1, None, "handle", 0.0, 10.0),
        (2, 1, "respond", 2.0, 5.0),
        (3, 2, "encode", 3.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(7.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once() -> None:
    spans = [
        (1, None, "run", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),  # overlaps a on [3, 4]
    ]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_self_time_clips_children_to_parent() -> None:
    spans = [(1, None, "p", 0.0, 2.0), (2, 1, "c", 1.0, 5.0)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(4.0)


def test_covered_unions_and_clips() -> None:
    assert covered([(0, 2), (1, 3), (5, 6)], 1, 5.5) == pytest.approx(2.5)
    assert covered([], 0, 1) == 0.0


# -------------------------------------------------------------- queueing
def test_fifo_waits_match_first_apply_of_each_batch() -> None:
    # Batches of 3, 2 and 4 events; the consumer applies in chunks that
    # never span batches, and batch 2 is split in two chunks.
    submits = [(0.0, 3), (1.0, 2), (1.5, 4)]
    applies = [(0.5, 3), (2.0, 2), (4.0, 3), (4.5, 1)]
    assert fifo_waits(submits, applies) == pytest.approx([0.5, 1.0, 2.5])


def test_fifo_waits_skip_unapplied_batches() -> None:
    assert fifo_waits([(0.0, 2), (1.0, 2)], [(0.5, 2)]) == pytest.approx([0.5])


def test_lateness_is_send_minus_schedule() -> None:
    assert lateness([1.0, 2.0], [1.25, 2.0]) == pytest.approx([0.25, 0.0])


def test_lateness_rejects_early_sends() -> None:
    with pytest.raises(ValueError):
        lateness([1.0], [0.5])


def test_visibility_uses_first_covering_probe_after_due() -> None:
    batches = [(0.0, 10), (1.0, 20), (2.0, 30)]
    probes = [(0.5, 5), (0.8, 10), (1.1, 10), (1.6, 25), (3.5, 30)]
    assert visibility(batches, probes) == pytest.approx([0.8, 0.6, 1.5])


def test_visibility_drops_batches_no_probe_covered() -> None:
    assert visibility([(0.0, 10), (1.0, 20)], [(0.5, 10)]) == pytest.approx([0.5])
