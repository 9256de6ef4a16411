"""The admin plane: span dumps and listener status over the frame codec.

Deliberately *not* HTTP: the repo already has a versioned, length-
prefixed frame transport with handshakes and error containment
(``repro.net``), so the admin plane is two request/reply pairs on that
wire (codec ids 10-11 and 24-25).  Every ``NodeServer`` answers them
inline on the inbound connection, whether or not the deployment is
traced: an untraced node reports zero trace counts and an empty dump.

Spans travel as plain tuples (:func:`span_to_wire`), not as the
``Span`` dataclass, so the dump format is stable even if the in-memory
span model grows fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.spans import Span

#: Sentinel for "span not finished" in the wire encoding (span end
#: times are scheduler clocks, which are never negative).
_OPEN = -1.0


@dataclass(frozen=True, slots=True)
class ObsDumpRequest:
    """Ask a node for its buffered spans (most recent ``max_spans``)."""

    max_spans: int = 1024
    clear: bool = False


@dataclass(frozen=True, slots=True)
class ObsDumpReply:
    """A node's span buffer, as :func:`span_to_wire` tuples."""

    node_id: str
    spans: tuple[tuple[Any, ...], ...]
    dropped: int


@dataclass(frozen=True, slots=True)
class StatusRequest:
    """Ask a listener for its :class:`StatusReply`."""


@dataclass(frozen=True, slots=True)
class StatusReply:
    """One listener's serving state, traced or not.

    Admission, breakers and tenants come from the listener itself; the
    three trace-buffer counts are zero when no tracing runtime is
    attached.
    """

    node_id: str
    now: float
    events_processed: int
    #: Frames shed by wire-level admission since boot (all reasons).
    shed_total: int
    #: (peer id, breaker state) for every peer the outbound pool has
    #: breaker state for; states are ``closed``/``open``/``half_open``.
    breakers: tuple[tuple[str, str], ...]
    #: Lifetime closed/half-open -> open breaker transitions.
    breaker_trips: int
    #: ``(shard_id, (tenant_id, ...))`` pairs, sorted by shard id.
    shards: tuple[tuple[str, tuple[str, ...]], ...]
    #: Hosted nodes belonging to no shard (the listener's anchor node).
    unsharded: tuple[str, ...]
    spans_buffered: int
    spans_dropped: int
    contexts_received: int


def span_to_wire(span: Span) -> tuple[Any, ...]:
    """Stable tuple encoding of one span for ObsDump replies."""
    attrs = tuple(sorted(span.attrs.items()))
    return (span.trace_id, span.span_id, span.parent_id or "",
            span.node, span.op, span.start,
            _OPEN if span.end is None else span.end, attrs)


def span_from_wire(wire: tuple[Any, ...]) -> Span:
    (trace_id, span_id, parent_id, node, op, start, end, attrs) = wire
    return Span(trace_id=trace_id, span_id=span_id,
                parent_id=parent_id or None, node=node, op=op,
                start=start, end=None if end == _OPEN else end,
                attrs=dict(attrs))
