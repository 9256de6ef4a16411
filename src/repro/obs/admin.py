"""The admin plane: ObsDump / ObsHealth over the existing frame codec.

Deliberately *not* HTTP: the repo already has a versioned, length-
prefixed, back-compatible frame transport with handshakes and error
containment (``repro.net``), so the admin plane is four more message
types on that wire (codec extension ids 10-13).  ``NodeServer`` answers
them inline on the inbound connection when constructed with an
:class:`AdminPlane`; a node without one simply dispatches the request
to the protocol handler, which ignores it -- opt-in by construction.

Spans travel as plain tuples (:func:`span_to_wire`), not as the
``Span`` dataclass, so the dump format is stable even if the in-memory
span model grows fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.spans import ObsRuntime, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Node

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
class ObsHealthRequest:
    """Ask a node for a one-frame liveness/trace-health summary."""

    probe: int = 0


@dataclass(frozen=True, slots=True)
class ObsHealthReply:
    node_id: str
    now: float
    spans_buffered: int
    spans_dropped: int
    contexts_received: int
    events_processed: int


@dataclass(frozen=True, slots=True)
class QosStatusRequest:
    """Ask a node for its serving-plane admission/backpressure state.

    Part of the ObsHealth admin plane (PR 8): answered inline by
    ``NodeServer`` on any admin-enabled listener, it surfaces the
    :mod:`repro.qos` layer's degradation signals -- shed totals and
    the outbound pool's per-peer circuit-breaker states -- so
    a monitoring agent can tell backpressure from failure.
    """

    probe: int = 0


@dataclass(frozen=True, slots=True)
class QosStatusReply:
    node_id: str
    now: float
    #: Frames shed by wire-level admission since boot (all reasons).
    shed_total: float
    #: (peer id, breaker state) for every peer the outbound pool has
    #: breaker state for; states are ``closed``/``open``/``half_open``.
    breakers: tuple[tuple[str, str], ...]
    #: Lifetime closed/half-open -> open breaker transitions.
    breaker_trips: int


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


class AdminPlane:
    """Answers admin requests from one deployment's shared runtime."""

    __slots__ = ("runtime",)

    def __init__(self, runtime: ObsRuntime) -> None:
        self.runtime = runtime

    def maybe_handle(self, node: "Node",
                     message: object) -> object | None:
        """Reply for an admin request, ``None`` for protocol traffic."""
        collector = self.runtime.collector
        if isinstance(message, ObsDumpRequest):
            buffered = collector.spans(node.node_id)
            limit = max(0, message.max_spans)
            if limit < len(buffered):
                buffered = buffered[-limit:]
            reply = ObsDumpReply(
                node_id=node.node_id,
                spans=tuple(span_to_wire(span) for span in buffered),
                dropped=collector.dropped(node.node_id))
            if message.clear:
                collector.clear(node.node_id)
            return reply
        if isinstance(message, ObsHealthRequest):
            buffer = collector.buffers.get(node.node_id)
            return ObsHealthReply(
                node_id=node.node_id,
                now=node.simulator.now,
                spans_buffered=len(buffer) if buffer is not None else 0,
                spans_dropped=collector.dropped(node.node_id),
                contexts_received=self.runtime.contexts_received,
                events_processed=node.simulator.events_processed)
        return None
