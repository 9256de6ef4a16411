"""Exporters: Prometheus text, JSONL spans, Chrome trace-event JSON.

Everything here renders *already collected* state; nothing mutates the
run.  This module is the one deliberate exception to protolint's PL001
determinism rule (see ``[tool.protolint.scope.PL001]`` in
``pyproject.toml``): a Prometheus scrape is a realtime artifact, so
:func:`prometheus_text` can stamp the wall-clock export time when asked
(``stamp=True``).  The stamp is presentation-only -- span timestamps
themselves always come from the owning scheduler's clock.
"""

from __future__ import annotations

import json
import re
import time
from typing import Iterable

from repro.metrics.registry import MetricsRegistry
from repro.obs.spans import Span

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def span_dict(span: Span) -> dict[str, object]:
    """Plain-JSON view of one span (the JSONL record shape)."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "node": span.node,
        "op": span.op,
        "start": span.start,
        "end": span.end,
        "attrs": dict(span.attrs),
    }


def spans_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line; trailing newline when non-empty."""
    lines = [json.dumps(span_dict(span), sort_keys=True)
             for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(spans: Iterable[Span]) -> dict[str, object]:
    """Chrome trace-event JSON: load in chrome://tracing or Perfetto.

    Complete (``"ph": "X"``) events, one track per node (pid) and trace
    (tid); times are microseconds relative to the scheduler clock's
    zero.
    """
    events: list[dict[str, object]] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        events.append({
            "name": span.op,
            "cat": "repro",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": span.node,
            "tid": span.trace_id,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                **dict(span.attrs),
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def prometheus_text(metrics: MetricsRegistry, namespace: str = "repro",
                    stamp: bool = False) -> str:
    """Prometheus text exposition of a :class:`MetricsRegistry`.

    Counters become ``counter`` families; per-node counters named
    ``base@node`` (the registry's convention, e.g. ``commits@master-00``)
    fold into one family with a ``node`` label.  Timelines export their
    latest value as a ``gauge``.
    """
    lines: list[str] = []
    if stamp:
        # Realtime scrape timestamp -- the PL001-exempt wall-clock read.
        lines.append(f"# exported_at {time.time():.3f}")

    families: dict[str, list[tuple[str | None, float]]] = {}
    for name in sorted(metrics.counters):
        base, _, node = name.partition("@")
        families.setdefault(base, []).append(
            (node or None, metrics.counters[name]))
    for base in sorted(families):
        metric = f"{namespace}_{_sanitize(base)}"
        lines.append(f"# TYPE {metric} counter")
        for node, value in families[base]:
            lines.append(f"{_with_label(metric, node)} {_num(value)}")

    for name in sorted(metrics.timelines):
        last = metrics.timelines[name].last()
        if last is None:
            continue
        metric = f"{namespace}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_num(last)}")

    return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _with_label(metric: str, node: str | None) -> str:
    if node is None:
        return metric
    return f'{metric}{{node="{node}"}}'


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.9g}"
