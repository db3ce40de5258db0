"""Shared plumbing: run context, result accounting, RSS, stage tables."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import percentile

#: The production table every workload uses: the ``serve`` default.
NUM_BUCKETS = 1024
BUCKET_WIDTH = 8


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def scratch(self) -> Path:
        """Throwaway space inside the checkout (git-ignored)."""
        path = self.root / "perfbench" / ".tmp"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @property
    def cache(self) -> Path:
        path = self.root / "perfbench" / ".cache"
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclass
class Outcome:
    """Operations attempted and failed, plus the metrics of one run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def check(self, served: bytes, expected: bytes, what: str) -> bool:
        return self.op(served == expected, f"mismatch: {what}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def p50_p99(values: Sequence[float]) -> Tuple[float, float]:
    return percentile(values, 0.50), percentile(values, 0.99)


def maybe_percentile(values: Sequence[float], q: float) -> float:
    """Per-layer percentile: 0 for a layer the workload never enters."""
    if not values:
        return 0.0
    return percentile(values, q)


def children_rss_mb() -> float:
    """Peak RSS (VmHWM) of the largest child process waited for, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_table(
    title: str, wall: float, rows: Sequence[Tuple[str, int, float, str]]
) -> str:
    """Render ``(layer, calls, self seconds, counts)`` rows with wall share."""
    lines = [f"== {title}  (wall {wall * 1e3:.1f} ms)"]
    lines.append(f"{'layer':<34}{'calls':>9}{'self ms':>12}{'share':>8}  counts")
    for layer, calls, self_s, counts in rows:
        share = self_s / wall if wall > 0 else 0.0
        lines.append(
            f"{layer:<34}{calls:>9}{self_s * 1e3:>12.2f}{share:>8.1%}  {counts}"
        )
    return "\n".join(lines)
