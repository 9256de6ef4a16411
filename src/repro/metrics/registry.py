"""Counters, timestamped series, histograms and percentile summaries."""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Timeline:
    """A timestamped numeric series (e.g. audit backlog over time)."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def record(self, at: float, value: float) -> None:
        self.points.append((at, value))

    def values(self) -> list[float]:
        return [value for _at, value in self.points]

    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None

    def max(self) -> float | None:
        return max(self.values()) if self.points else None

    def sparkline(self, width: int = 60) -> str:
        """ASCII sparkline of the series, resampled to ``width`` buckets.

        Used by the experiment reports to show shapes (e.g. the diurnal
        audit backlog of E5) inline in terminal output::

            ▁▂▅▇█▇▅▂▁▁▁▂▅▇█▇▅▂▁
        """
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if not self.points:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        t_start = self.points[0][0]
        t_end = self.points[-1][0]
        span = max(t_end - t_start, 1e-12)
        buckets = [0.0] * width
        for at, value in self.points:
            index = min(width - 1, int((at - t_start) / span * width))
            buckets[index] = max(buckets[index], value)
        peak = max(buckets)
        if peak == 0:
            return blocks[0] * width
        return "".join(
            blocks[min(len(blocks) - 1,
                       int(value / peak * (len(blocks) - 1) + 0.5))]
            for value in buckets)


#: Default latency buckets (seconds): 1 ms to ~66 s, doubling.  Wide
#: enough for both simulated protocol latencies (max_latency up to tens
#: of seconds) and wall-clock socket round-trips.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    0.001 * 2 ** i for i in range(17))


class Histogram:
    """Fixed-bucket histogram: O(1) memory however many values arrive.

    Buckets are cumulative-style upper bounds (ascending); values above
    the last bound land in an implicit overflow bucket.  Exact count,
    sum, min and max are tracked alongside, so ``mean`` is exact while
    percentiles are bucket-resolution (the reported percentile is the
    upper bound of the bucket containing that rank -- a conservative,
    Prometheus-compatible answer).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        chosen = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BUCKETS
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if list(chosen) != sorted(chosen):
            raise ValueError(f"bucket bounds must ascend, got {chosen}")
        self.bounds: tuple[float, ...] = chosen
        self.bucket_counts: list[int] = [0] * (len(chosen) + 1)
        self.count: int = 0
        self.total: float = 0.0
        self.min_value: float = math.inf
        self.max_value: float = -math.inf

    def observe(self, value: float) -> None:
        index = _bucket_index(self.bounds, value)
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile at bucket resolution.

        Returns the upper bound of the bucket holding the q-th ranked
        value; ranks falling in the overflow bucket return the exact
        observed maximum (the only sharp bound available there).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max_value
        return self.max_value  # pragma: no cover - ranks always <= count

    def summary(self) -> dict[str, float]:
        """Same shape as :func:`summarize`, from buckets."""
        if self.count == 0:
            nan = float("nan")
            return {"count": 0, "mean": nan, "p50": nan, "p90": nan,
                    "p99": nan, "min": nan, "max": nan}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "min": self.min_value,
            "max": self.max_value,
        }


def _bucket_index(bounds: tuple[float, ...], value: float) -> int:
    """Binary search: first bucket whose upper bound >= value."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class MetricsRegistry:
    """Named counters, samples and timelines for one run."""

    counters: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    #: One ``array('d')`` per name: 8 bytes a sample, no object per sample.
    samples: dict[str, array[float]] = field(
        default_factory=lambda: defaultdict(lambda: array("d")))
    timelines: dict[str, Timeline] = field(
        default_factory=lambda: defaultdict(Timeline))

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value``: a high-water mark."""
        if value > self.counters[name]:
            self.counters[name] = value

    def observe(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def record(self, name: str, at: float, value: float) -> None:
        self.timelines[name].record(at, value)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def summary(self, name: str) -> dict[str, float]:
        return summarize(self.samples.get(name, []))

    def snapshot(self) -> dict[str, float]:
        """Flat copy of all counters, for assertions and reports."""
        return dict(self.counters)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Count/mean/percentile summary of a sequence of samples.

    Percentiles use the nearest-rank method; an empty one yields NaNs so
    downstream table formatting stays uniform.
    """
    if not values:
        nan = float("nan")
        return {"count": 0, "mean": nan, "p50": nan, "p90": nan,
                "p99": nan, "min": nan, "max": nan}
    ordered = sorted(values)
    n = len(ordered)

    def pct(q: float) -> float:
        rank = max(1, math.ceil(q * n))
        return ordered[rank - 1]

    return {
        "count": n,
        "mean": sum(ordered) / n,
        "p50": pct(0.50),
        "p90": pct(0.90),
        "p99": pct(0.99),
        "min": ordered[0],
        "max": ordered[-1],
    }
