"""Latency statistics for the concurrency/burst benches."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.bench.serialization import register_result_type


def percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of an already-sorted sample set."""
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q out of range: {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    value = ordered[low] * (1 - fraction) + ordered[high] * fraction
    # Clamp away 1-ULP interpolation wobble so percentiles stay monotone.
    return min(max(value, ordered[low]), ordered[high])


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    return percentile_sorted(sorted(samples), q)


@register_result_type
@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample set."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            raise ValueError("no latency samples")
        # One shared sort instead of one per percentile; the mean keeps
        # the original accumulation order so results are bit-identical
        # with the pre-batching implementation.
        ordered = sorted(samples)
        return cls(
            count=len(samples),
            mean_ms=sum(samples) / len(samples),
            p50_ms=percentile_sorted(ordered, 50),
            p95_ms=percentile_sorted(ordered, 95),
            p99_ms=percentile_sorted(ordered, 99),
            max_ms=ordered[-1],
        )

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"n={self.count} mean={self.mean_ms:.1f} "
                f"p50={self.p50_ms:.1f} p95={self.p95_ms:.1f} "
                f"p99={self.p99_ms:.1f} max={self.max_ms:.1f} (ms)")


def histogram(samples: Sequence[float], bucket_ms: float) -> List[tuple]:
    """(bucket_start_ms, count) pairs for non-empty buckets, sorted."""
    if bucket_ms <= 0:
        raise ValueError(f"bucket size must be positive, got {bucket_ms}")
    counts: dict = {}
    for sample in samples:
        bucket = math.floor(sample / bucket_ms) * bucket_ms
        counts[bucket] = counts.get(bucket, 0) + 1
    return sorted(counts.items())
