"""Unit tests for the observability runtime (repro.obs).

Covers the span model and runtime (sampling, context activation,
parent resolution, always-recorded invariant spans), the bounded
per-node buffers, scheduler context propagation through the simulator,
and the analysis/export layers on synthetic span sets.
"""

from __future__ import annotations

import json

import pytest

from repro.metrics import MetricsRegistry, summarize
from repro.obs.analyze import (
    audit_lag_check,
    critical_path,
    detection_check,
    group_traces,
    latency_report,
    run_report,
)
from repro.obs.collect import SpanBuffer, SpanCollector
from repro.obs.context import TraceContext
from repro.obs.export import chrome_trace, prometheus_text, spans_jsonl
from repro.obs.spans import ObsRuntime, Span
from repro.sim.simulator import Simulator


def make_runtime(seed: int = 1, sample_rate: float = 1.0,
                 buffer_size: int = 4096) -> tuple[Simulator, ObsRuntime]:
    sim = Simulator(seed)
    obs = ObsRuntime(sim, seed=seed, sample_rate=sample_rate,
                     buffer_size=buffer_size)
    sim.obs = obs
    return sim, obs


class TestRuntime:
    def test_trace_records_root(self):
        _sim, obs = make_runtime()
        span = obs.trace("client-00", "client.read", request_id="r1")
        assert span is not None
        assert span.parent_id is None
        obs.end(span, status="accepted")
        (recorded,) = obs.collector.spans()
        assert recorded.op == "client.read"
        assert recorded.attrs == {"request_id": "r1", "status": "accepted"}
        assert recorded.end is not None

    def test_sample_rate_zero_skips_roots(self):
        _sim, obs = make_runtime(sample_rate=0.0)
        assert obs.trace("client-00", "client.read") is None
        obs.end(None)  # ending a skipped root is a no-op
        assert obs.collector.spans() == []

    def test_sampling_is_seed_deterministic(self):
        def decisions(seed: int) -> list[bool]:
            _sim, obs = make_runtime(seed=seed, sample_rate=0.5)
            return [obs.trace("c", "op") is not None for _ in range(64)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)
        assert any(decisions(7)) and not all(decisions(7))

    def test_bad_sample_rate_rejected(self):
        sim = Simulator(0)
        with pytest.raises(ValueError):
            ObsRuntime(sim, seed=0, sample_rate=1.5)

    def test_child_span_inactive_records_nothing(self):
        _sim, obs = make_runtime()
        with obs.child_span("slave-00-00", "slave.read") as span:
            assert span is None
        assert obs.collector.spans() == []

    def test_child_span_under_activation(self):
        _sim, obs = make_runtime()
        root = obs.trace("client-00", "client.read")
        with obs.activation(root):
            with obs.child_span("slave-00-00", "slave.read") as span:
                assert span is not None
                assert span.trace_id == root.trace_id
                assert span.parent_id == root.span_id
        obs.end(root)
        assert len(obs.collector.spans()) == 2

    def test_span_always_records_and_nests(self):
        _sim, obs = make_runtime(sample_rate=0.0)
        # Invariant spans record even when every sampled root is skipped.
        with obs.span("master-00", "master.commit", version=1) as outer:
            with obs.child_span("master-00", "inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = obs.collector.spans()
        assert {s.op for s in spans} == {"master.commit", "inner"}

    def test_event_is_zero_duration(self):
        sim, obs = make_runtime()
        sim.schedule(3.0, lambda: None)
        sim.run_until(3.0)
        span = obs.event("auditor-00", "auditor.advance", version=2)
        assert span.start == span.end == sim.now
        assert span.duration == 0.0

    def test_explicit_parent_overrides_current(self):
        _sim, obs = make_runtime()
        ctx = TraceContext("tX", "sX")
        span = obs.begin("n", "op", parent=ctx)
        assert span.trace_id == "tX" and span.parent_id == "sX"

    def test_activation_restores_previous_context(self):
        _sim, obs = make_runtime()
        root = obs.trace("c", "outer")
        obs.current = root.context
        other = obs.begin("c", "sibling")
        with obs.activation(other):
            assert obs.current == other.context
        assert obs.current == root.context

    def test_span_context_property(self):
        span = Span(trace_id="t1", span_id="s1", parent_id=None,
                    node="n", op="op", start=0.0)
        assert span.context == TraceContext("t1", "s1")
        assert span.duration is None


class TestSchedulerPropagation:
    def test_context_rides_simulator_events(self):
        sim, obs = make_runtime()
        seen: list[TraceContext | None] = []
        root = obs.trace("client-00", "client.read")
        with obs.activation(root):
            sim.schedule(1.0, lambda: seen.append(obs.current))
        sim.schedule(2.0, lambda: seen.append(obs.current))
        sim.run_until(5.0)
        assert seen == [root.context, None]

    def test_context_restored_after_event(self):
        sim, obs = make_runtime()
        root = obs.trace("client-00", "client.read")
        with obs.activation(root):
            sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        assert obs.current is None

    def test_no_wrapping_when_disabled(self):
        sim = Simulator(1)
        fired: list[int] = []
        sim.schedule(1.0, fired.append, 1)
        sim.run_until(2.0)
        assert fired == [1]


class TestBuffers:
    def test_buffer_bounded_with_drop_count(self):
        buf = SpanBuffer(capacity=3)
        for i in range(5):
            buf.add(Span(f"t{i}", f"s{i}", None, "n", "op", float(i)))
        assert len(buf) == 3
        assert buf.dropped == 2
        assert [s.trace_id for s in buf.snapshot()] == ["t2", "t3", "t4"]
        assert [s.trace_id for s in buf.snapshot(limit=2)] == ["t3", "t4"]

    def test_collector_segregates_by_node(self):
        coll = SpanCollector(capacity=8)
        coll.add(Span("t1", "s1", None, "a", "op", 0.0))
        coll.add(Span("t2", "s2", None, "b", "op", 1.0))
        assert {s.node for s in coll.spans()} == {"a", "b"}
        assert [s.node for s in coll.spans(node="a")] == ["a"]
        assert coll.nodes() == ["a", "b"]
        assert coll.dropped() == 0
        coll.clear()
        assert coll.spans() == []


def _span(trace: str, sid: str, parent: str | None, node: str, op: str,
          start: float, end: float, **attrs: object) -> Span:
    return Span(trace_id=trace, span_id=sid, parent_id=parent, node=node,
                op=op, start=start, end=end, attrs=dict(attrs))


class TestAnalyze:
    def test_group_and_critical_path(self):
        spans = [
            _span("t1", "root", None, "client", "client.read", 0.0, 5.0),
            _span("t1", "a", "root", "slave", "slave.read", 1.0, 2.0),
            _span("t1", "b", "root", "master", "master.double_check",
                  2.0, 6.0),
        ]
        traces = group_traces(spans)
        assert set(traces) == {"t1"}
        path = critical_path(traces["t1"])
        assert [s.span_id for s in path] == ["root", "b"]

    def test_audit_lag_ok(self):
        spans = [
            _span("ta", "c1", None, "master-00", "master.commit",
                  10.0, 10.0, version=1),
            _span("tb", "a1", None, "zz-auditor-00", "auditor.advance",
                  16.0, 16.0, version=1),
        ]
        result = audit_lag_check(spans, max_latency=5.0)
        assert result["ok"] is True
        assert result["versions_checked"] == 1
        assert result["min_lag"] == 6.0

    def test_audit_lag_violation(self):
        spans = [
            _span("ta", "c1", None, "master-00", "master.commit",
                  10.0, 10.0, version=1),
            _span("tb", "a1", None, "zz-auditor-00", "auditor.advance",
                  12.0, 12.0, version=1),
        ]
        result = audit_lag_check(spans, max_latency=5.0)
        assert result["ok"] is False
        assert result["violations"] and result["violations"][0]["version"] == 1

    def test_audit_lag_requires_overlap(self):
        # No shared versions between commits and advances: not ok.
        spans = [_span("ta", "c1", None, "m", "master.commit",
                       1.0, 1.0, version=1)]
        assert audit_lag_check(spans, max_latency=5.0)["ok"] is False

    def test_detection_check(self):
        spans = [
            _span("ta", "a0", None, "aud", "auditor.advance",
                  10.0, 10.0, version=1),
            _span("tb", "a1", None, "aud", "auditor.audit",
                  11.0, 11.0, version=1, detection=True, lag=3.5),
        ]
        result = detection_check(spans)
        assert result["ok"] is True and result["count"] == 1
        bad = [
            _span("ta", "a0", None, "aud", "auditor.advance",
                  10.0, 10.0, version=1),
            # Detection recorded *before* the advance: not a delayed
            # discovery, so the check must flag it.
            _span("tb", "a1", None, "aud", "auditor.audit",
                  9.0, 9.0, version=1, detection=True, lag=3.5),
        ]
        assert detection_check(bad)["ok"] is False

    def test_latency_report_and_run_report(self):
        spans = [
            _span("t1", "r1", None, "c", "client.read", 0.0, 2.0),
            _span("t2", "r2", None, "c", "client.read", 0.0, 4.0),
            _span("ta", "c1", None, "m", "master.commit",
                  10.0, 10.0, version=1),
            _span("tb", "a1", None, "aud", "auditor.advance",
                  16.0, 16.0, version=1),
        ]
        ops = latency_report(spans)
        assert ops["client.read"]["count"] == 2
        report = run_report(spans, max_latency=5.0)
        assert report["spans"] == 4
        assert report["ok"] is True

    def test_latency_report_is_summarize_of_each_ops_durations(self):
        # Durations no bucket boundary falls on: a bucketed summary
        # would quote an upper bound, not one of these.
        reads = [0.0031, 0.0173, 0.0029, 0.2417, 0.0058, 0.0094]
        spans = [_span("t", f"r{i}", None, "c", "client.read", 1.0,
                       1.0 + d) for i, d in enumerate(reads)]
        spans.append(_span("t", "w", None, "c", "client.write", 2.0, 2.37))
        spans.append(_span("t", "open", None, "c", "client.write", 3.0,
                           None))  # unfinished: no duration, not counted
        ops = latency_report(spans)
        assert list(ops) == ["client.read", "client.write"]
        assert ops["client.read"] == summarize(
            [s.duration for s in spans if s.op == "client.read"])
        assert ops["client.write"] == summarize([2.37 - 2.0])
        assert ops["client.read"]["p90"] == pytest.approx(0.2417)


class TestExport:
    def _spans(self) -> list[Span]:
        return [
            _span("t1", "r1", None, "client-00", "client.read", 0.0, 2.0,
                  status="accepted"),
            _span("t1", "s1", "r1", "slave-00-00", "slave.read", 0.5, 1.0),
        ]

    def test_spans_jsonl(self):
        lines = spans_jsonl(self._spans()).strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 2
        assert rows[0]["op"] == "client.read"
        assert rows[1]["parent_id"] == "r1"

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._spans())
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert events[0]["pid"] == "client-00"
        assert events[0]["dur"] == pytest.approx(2e6)
        assert events[1]["args"]["parent_id"] == "r1"

    def test_prometheus_text(self):
        metrics = MetricsRegistry()
        metrics.incr("reads_accepted", 3)
        metrics.incr("commits@master-00", 2)
        text = prometheus_text(metrics)
        assert "repro_reads_accepted 3" in text
        assert 'repro_commits{node="master-00"} 2' in text
        # Deterministic by default: no wall-clock stamp line.
        assert "exported_at" not in text
