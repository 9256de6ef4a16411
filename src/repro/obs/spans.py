"""The span model and the per-run observability runtime.

Design constraints, in order:

1. **Zero cost when disabled.**  Instrumented call sites guard on
   ``simulator.obs is not None`` -- one attribute load and an ``is``
   check -- so PR 1's fastpath numbers are unaffected when tracing is
   off (the default everywhere).
2. **Deterministic.**  Span/trace ids come from a monotonic counter and
   timestamps from the owning scheduler's clock (virtual time under the
   simulator, loop time under ``RealtimeScheduler``); the sampling
   decision draws from a seed-derived ``random.Random``.  A simulated
   run with tracing enabled is still a pure function of its seed.
3. **Bounded.**  Finished spans land in per-node ring buffers
   (:class:`repro.obs.collect.SpanCollector`); nothing grows without
   limit.

Sampling applies at trace roots created via :meth:`ObsRuntime.trace`
(client-operation entry points).  Parentless spans created with
:meth:`ObsRuntime.span` / :meth:`ObsRuntime.event` -- e.g.
``auditor.advance`` ticks or ``master.takeover`` -- are *always*
recorded: the Section 3.4/3.5 invariant checks need every one of them,
and their volume is bounded by timer frequency, not workload.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Protocol

from repro.obs.collect import SpanCollector
from repro.obs.context import TraceContext


class ClockLike(Protocol):
    """What the runtime needs from a scheduler: its clock."""

    @property
    def now(self) -> float: ...  # pragma: no cover - protocol


@dataclass(slots=True)
class Span:
    """One timed operation on one node, linked into a causal trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    node: str
    op: str
    start: float
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    @property
    def context(self) -> TraceContext:
        """The context a child of this span should inherit."""
        return TraceContext(self.trace_id, self.span_id)


class ObsRuntime:
    """Per-run tracing state: id allocation, sampling, buffers, context.

    One runtime serves a whole deployment (attached to the shared
    scheduler as ``simulator.obs``); spans are segregated per node
    inside the collector.  ``current`` is the active
    :class:`TraceContext`; the schedulers capture and restore it around
    event firings, and ``NodeServer`` restores it from wire carriers.
    """

    __slots__ = ("clock", "sample_rate", "collector", "current",
                 "contexts_received", "_rng", "_ids")

    def __init__(self, clock: ClockLike, seed: int,
                 sample_rate: float = 1.0,
                 buffer_size: int = 4096) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        self.clock = clock
        self.sample_rate = sample_rate
        self.collector = SpanCollector(buffer_size)
        self.current: TraceContext | None = None
        #: Contexts restored from wire carriers (admin-plane health).
        self.contexts_received = 0
        # Seed-derived stream, independent of Simulator.fork_rng so that
        # enabling tracing does not shift the fork counter and thereby
        # the protocol's own randomness (key generation, workloads).
        self._rng = random.Random(f"obs/{seed}")
        self._ids = itertools.count(1)

    # -- span lifecycle ------------------------------------------------

    def trace(self, node: str, op: str, **attrs: object) -> Span | None:
        """Start a sampled root span (a client-operation entry point).

        Returns ``None`` when the seeded sampler skips this trace; all
        downstream instrumentation then short-circuits because no
        context propagates.
        """
        if self._rng.random() >= self.sample_rate:
            return None
        return self._begin(node, op, parent=None, attrs=attrs)

    def begin(self, node: str, op: str,
              parent: TraceContext | Span | None = None,
              **attrs: object) -> Span:
        """Start a span; parent defaults to the active context.

        With neither an explicit parent nor an active context this
        creates an always-recorded root (see module docstring).
        """
        resolved = self._resolve_parent(parent)
        return self._begin(node, op, parent=resolved, attrs=attrs)

    def end(self, span: Span | None, **attrs: object) -> None:
        """Finish a span: stamp the end time and buffer it."""
        if span is None:
            return
        span.end = self.clock.now
        if attrs:
            span.attrs.update(attrs)
        self.collector.add(span)

    def event(self, node: str, op: str, **attrs: object) -> Span:
        """Record a zero-duration span (an instant, e.g. a takeover)."""
        span = self.begin(node, op, **attrs)
        self.end(span)
        return span

    @contextmanager
    def span(self, node: str, op: str,
             **attrs: object) -> Iterator[Span]:
        """Span around a synchronous block, activated while it runs."""
        opened = self.begin(node, op, **attrs)
        previous = self.current
        self.current = opened.context
        try:
            yield opened
        finally:
            self.current = previous
            self.end(opened)

    @contextmanager
    def child_span(self, node: str, op: str,
                   **attrs: object) -> Iterator[Span | None]:
        """Span recorded only under an active (sampled) context.

        The workload-proportional call sites (slave reads, client
        verification, ACL checks) use this so that sampling at the
        trace root actually bounds span volume; with no active context
        it yields ``None`` and records nothing.
        """
        if self.current is None:
            yield None
            return
        opened = self.begin(node, op, **attrs)
        previous = self.current
        self.current = opened.context
        try:
            yield opened
        finally:
            self.current = previous
            self.end(opened)

    @contextmanager
    def activation(self,
                   target: TraceContext | Span | None) -> Iterator[None]:
        """Make ``target`` the active context for a ``with`` block."""
        if target is None:
            yield
            return
        context = target.context if isinstance(target, Span) else target
        previous = self.current
        self.current = context
        try:
            yield
        finally:
            self.current = previous

    # -- internals -----------------------------------------------------

    def _resolve_parent(
            self,
            parent: TraceContext | Span | None) -> TraceContext | None:
        if parent is None:
            return self.current
        if isinstance(parent, Span):
            return parent.context
        return parent

    def _begin(self, node: str, op: str,
               parent: TraceContext | None,
               attrs: dict[str, object]) -> Span:
        span_id = f"s{next(self._ids):06x}"
        if parent is None:
            trace_id = f"t{next(self._ids):06x}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(trace_id=trace_id, span_id=span_id,
                    parent_id=parent_id, node=node, op=op,
                    start=self.clock.now,
                    attrs=dict(attrs) if attrs else {})
