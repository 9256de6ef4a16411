"""Unit tests for the metrics registry."""

from __future__ import annotations

import math

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    Timeline,
    summarize,
)


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

    def test_time_weighted_mean(self):
        timeline = Timeline()
        timeline.record(0.0, 0.0)
        timeline.record(10.0, 100.0)  # value 0 held for all 10s
        assert timeline.time_weighted_mean() == 0.0
        timeline.record(20.0, 0.0)  # 100 held for 10s of 20s
        assert timeline.time_weighted_mean() == 50.0

    def test_empty_timeline(self):
        timeline = Timeline()
        assert timeline.last() is None
        assert timeline.max() is None
        assert timeline.time_weighted_mean() is None

    def test_registry_timelines_autocreate(self):
        registry = MetricsRegistry()
        registry.record("backlog", 1.0, 5.0)
        assert registry.timelines["backlog"].last() == 5.0

    def test_time_weighted_mean_until_credits_final_value(self):
        timeline = Timeline()
        timeline.record(0.0, 0.0)
        timeline.record(10.0, 100.0)
        # Without an end time the final value carries no weight; with
        # until=20 it holds for half the observed window.
        assert timeline.time_weighted_mean() == 0.0
        assert timeline.time_weighted_mean(until=20.0) == 50.0

    def test_time_weighted_mean_until_single_point(self):
        timeline = Timeline()
        timeline.record(5.0, 3.0)
        assert timeline.time_weighted_mean(until=15.0) == 3.0

    def test_time_weighted_mean_until_before_last_point(self):
        timeline = Timeline()
        timeline.record(0.0, 1.0)
        timeline.record(10.0, 2.0)
        with pytest.raises(ValueError, match="precedes"):
            timeline.time_weighted_mean(until=5.0)


class TestHistogram:
    def test_exact_mean_bucketed_percentiles(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(1.625)
        # Percentiles report the containing bucket's upper bound.
        assert histogram.percentile(0.25) == 1.0
        assert histogram.percentile(0.75) == 2.0
        assert histogram.percentile(1.0) == 4.0
        assert histogram.min_value == 0.5 and histogram.max_value == 3.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(50.0)
        assert histogram.percentile(0.99) == 50.0

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.001)
        assert list(DEFAULT_LATENCY_BUCKETS) == \
            sorted(DEFAULT_LATENCY_BUCKETS)
        histogram = Histogram()
        histogram.observe(0.01)
        assert histogram.summary()["count"] == 1

    def test_summary_matches_summarize_shape(self):
        histogram = Histogram()
        assert set(histogram.summary()) == set(summarize([1.0]))
        assert math.isnan(histogram.summary()["mean"])

    def test_validation(self):
        with pytest.raises(ValueError, match="ascend"):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())
        with pytest.raises(ValueError, match="q must be"):
            Histogram().percentile(0.0)
