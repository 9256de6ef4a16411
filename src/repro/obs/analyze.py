"""Trace analysis: critical paths, latency percentiles, invariants.

The point of this module is that the paper's headline claims are
*temporal* and can be re-derived from spans alone, with no access to
protocol internals:

* **Section 3.4 (audit lag)** -- every ``auditor.advance`` to version v
  must start at least ``max_latency`` after the first ``master.commit``
  of v, otherwise the auditor could overtake live pledges;
* **Section 3.5 (detection timeline)** -- every audit detection is a
  *delayed* discovery: its span starts only after the auditor advanced
  to the lied-about version, and it carries the pledge-age lag that the
  corrective-action analysis quotes.

``run_report`` bundles those checks with per-op latency summaries and
critical-path extraction; the ``repro-sim obs`` CLI prints it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.metrics.registry import summarize
from repro.obs.spans import Span

#: Tolerance for float comparisons on scheduler timestamps.
_EPS = 1e-6


def group_traces(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Spans per trace id, each list ordered by start time."""
    traces: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        traces[span.trace_id].append(span)
    for members in traces.values():
        members.sort(key=lambda s: (s.start, s.span_id))
    return dict(traces)


def critical_path(trace_spans: Sequence[Span]) -> list[Span]:
    """Root-to-leaf chain ending at the latest-finishing span.

    The "critical path" of an event-driven operation is the ancestor
    chain of whichever span completed last: the work that bounded the
    operation's latency.  Returns ``[]`` for an empty trace.
    """
    if not trace_spans:
        return []
    by_id = {span.span_id: span for span in trace_spans}

    def finish(span: Span) -> float:
        return span.end if span.end is not None else span.start

    leaf = max(trace_spans, key=lambda s: (finish(s), s.span_id))
    path = [leaf]
    seen = {leaf.span_id}
    cursor = leaf
    while cursor.parent_id is not None:
        parent = by_id.get(cursor.parent_id)
        if parent is None or parent.span_id in seen:
            break  # parent buffered out, or a malformed cycle
        path.append(parent)
        seen.add(parent.span_id)
        cursor = parent
    path.reverse()
    return path


def critical_path_summary(
        spans: Iterable[Span]) -> dict[str, dict[str, object]]:
    """Per root-op: how many traces, which op chains bound latency."""
    summary: dict[str, dict[str, object]] = {}
    for trace_spans in group_traces(spans).values():
        roots = [s for s in trace_spans if s.parent_id is None]
        if not roots:
            continue
        root = roots[0]
        path = critical_path(trace_spans)
        chain = " > ".join(span.op for span in path)
        entry = summary.setdefault(
            root.op, {"traces": 0, "max_depth": 0, "paths": {}})
        entry["traces"] = int(entry["traces"]) + 1
        entry["max_depth"] = max(int(entry["max_depth"]), len(path))
        paths = entry["paths"]
        assert isinstance(paths, dict)
        paths[chain] = paths.get(chain, 0) + 1
    return summary


def latency_report(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """:func:`~repro.metrics.summarize` of each op's finished-span
    durations: exact nearest-rank percentiles."""
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span.duration is not None:
            durations[span.op].append(span.duration)
    return {op: summarize(values) for op, values in sorted(durations.items())}


def audit_lag_check(spans: Iterable[Span],
                    max_latency: float) -> dict[str, object]:
    """Section 3.4 from spans: advance(v) >= first commit(v) + L.

    Uses the *first* ``master.commit`` per version (commits of one
    version at different masters differ only by broadcast skew, which
    ``audit_grace`` absorbs) against the *first* ``auditor.advance``.
    Versions seen on only one side are reported but not judged.
    """
    commit_at: dict[int, float] = {}
    advance_at: dict[int, float] = {}
    for span in spans:
        version = span.attrs.get("version")
        if not isinstance(version, int):
            continue
        if span.op == "master.commit":
            commit_at[version] = min(
                commit_at.get(version, span.start), span.start)
        elif span.op == "auditor.advance":
            advance_at[version] = min(
                advance_at.get(version, span.start), span.start)
    shared = sorted(set(commit_at) & set(advance_at))
    lags = {v: advance_at[v] - commit_at[v] for v in shared}
    violations = [
        {"version": v, "lag": lags[v], "required": max_latency}
        for v in shared if lags[v] < max_latency - _EPS
    ]
    return {
        "versions_checked": len(shared),
        "commits_seen": len(commit_at),
        "advances_seen": len(advance_at),
        "min_lag": min(lags.values()) if lags else None,
        "required_lag": max_latency,
        "violations": violations,
        "ok": not violations and bool(shared),
    }


def detection_check(spans: Iterable[Span]) -> dict[str, object]:
    """Section 3.5 from spans: detections are delayed discoveries.

    Every ``auditor.audit`` span flagged ``detection`` must (a) start at
    or after the auditor advanced to the lied-about version -- the lie
    was only discoverable once the audit window for that version closed
    -- and (b) carry a non-negative pledge-age ``lag``.
    """
    advance_at: dict[int, float] = {}
    detections: list[dict[str, object]] = []
    for span in spans:
        if span.op == "auditor.advance":
            version = span.attrs.get("version")
            if isinstance(version, int):
                advance_at[version] = min(
                    advance_at.get(version, span.start), span.start)
    for span in spans:
        if span.op != "auditor.audit" or not span.attrs.get("detection"):
            continue
        version = span.attrs.get("version")
        lag = span.attrs.get("lag")
        advanced = advance_at.get(version) if isinstance(version, int) \
            else None
        after_advance = advanced is None or \
            span.start >= advanced - _EPS
        detections.append({
            "node": span.node,
            "version": version,
            "at": span.start,
            "lag": lag,
            "after_advance": after_advance,
            "ok": after_advance and isinstance(lag, float) and lag >= 0.0,
        })
    return {
        "detections": detections,
        "count": len(detections),
        "ok": all(bool(d["ok"]) for d in detections),
    }


def run_report(spans: Sequence[Span],
               max_latency: float) -> dict[str, object]:
    """The full trace report the ``repro-sim obs`` subcommand prints."""
    audit = audit_lag_check(spans, max_latency)
    detection = detection_check(spans)
    return {
        "spans": len(spans),
        "ops": latency_report(spans),
        "critical_paths": critical_path_summary(spans),
        "audit_lag": audit,
        "detection": detection,
        "ok": bool(audit["ok"]) and bool(detection["ok"]),
    }
