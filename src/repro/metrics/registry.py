"""Counters, timestamped series and percentile summaries."""

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
