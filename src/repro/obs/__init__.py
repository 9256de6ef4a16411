"""repro.obs -- causal tracing, metrics export and the admin plane.

A deterministic observability layer shared by the discrete-event
simulator and the real socket stack (``repro.net``):

* :mod:`repro.obs.context` -- the ``TraceContext`` that rides protocol
  operations, in-process via the scheduler and across TCP via the
  ``TraceCarrier`` codec extension;
* :mod:`repro.obs.spans` -- the span model and :class:`ObsRuntime`
  (seeded sampling, zero-cost-when-disabled guards);
* :mod:`repro.obs.collect` -- bounded per-node span buffers;
* :mod:`repro.obs.export` -- Prometheus text, JSONL and Chrome
  trace-event exporters;
* :mod:`repro.obs.admin` -- the ``ObsDump`` and ``Status`` pairs every
  listener answers over the existing frame transport, so clusters can
  scrape live nodes;
* :mod:`repro.obs.analyze` -- critical paths, per-op latency
  percentiles and the Section 3.4 / 3.5 invariant cross-checks.

See docs/OBSERVABILITY.md for the full tour.
"""

from repro.obs.admin import (
    ObsDumpReply,
    ObsDumpRequest,
    StatusReply,
    StatusRequest,
    span_from_wire,
    span_to_wire,
)
from repro.obs.analyze import (
    audit_lag_check,
    critical_path,
    detection_check,
    group_traces,
    latency_report,
    run_report,
)
from repro.obs.collect import SpanBuffer, SpanCollector
from repro.obs.context import TraceCarrier, TraceContext
from repro.obs.export import chrome_trace, prometheus_text, spans_jsonl
from repro.obs.spans import ObsRuntime, Span

__all__ = [
    "ObsDumpReply",
    "ObsDumpRequest",
    "ObsRuntime",
    "Span",
    "SpanBuffer",
    "SpanCollector",
    "StatusReply",
    "StatusRequest",
    "TraceCarrier",
    "TraceContext",
    "audit_lag_check",
    "chrome_trace",
    "critical_path",
    "detection_check",
    "group_traces",
    "latency_report",
    "prometheus_text",
    "run_report",
    "span_from_wire",
    "span_to_wire",
    "spans_jsonl",
]
