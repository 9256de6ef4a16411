"""Unit tests for the metrics registry."""

from __future__ import annotations

import math

from repro.metrics import MetricsRegistry, Timeline, summarize


class TestCounters:
    def test_incr_default_and_amount(self):
        registry = MetricsRegistry()
        registry.incr("x")
        registry.incr("x", 2.5)
        assert registry.count("x") == 3.5

    def test_missing_counter_is_zero(self):
        assert MetricsRegistry().count("ghost") == 0.0

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.incr("x")
        snap = registry.snapshot()
        registry.incr("x")
        assert snap["x"] == 1.0


class TestSamples:
    def test_summary(self):
        registry = MetricsRegistry()
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            registry.observe("lat", v)
        summary = registry.summary("lat")
        assert summary["count"] == 10
        assert summary["mean"] == 5.5
        assert summary["p50"] == 5
        assert summary["p90"] == 9
        assert summary["min"] == 1 and summary["max"] == 10

    def test_empty_summary_is_nan(self):
        summary = MetricsRegistry().summary("ghost")
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])

    def test_summarize_single_value(self):
        summary = summarize([42.0])
        assert summary["p50"] == 42.0 == summary["p99"]


class TestTimeline:
    def test_record_and_stats(self):
        timeline = Timeline()
        timeline.record(0.0, 1.0)
        timeline.record(10.0, 3.0)
        assert timeline.last() == 3.0
        assert timeline.max() == 3.0
        assert timeline.values() == [1.0, 3.0]

    def test_empty_timeline(self):
        timeline = Timeline()
        assert timeline.last() is None
        assert timeline.max() is None

    def test_registry_timelines_autocreate(self):
        registry = MetricsRegistry()
        registry.record("backlog", 1.0, 5.0)
        assert registry.timelines["backlog"].last() == 5.0

