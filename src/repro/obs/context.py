"""Trace context: the causal identity that rides protocol operations.

A :class:`TraceContext` is deliberately tiny -- trace id and span id
(a context exists only for a sampled operation) -- because it crosses
two very different boundaries:

* **in-process**: the scheduler (``Simulator.schedule`` and
  ``RealtimeScheduler.schedule``) captures the active context at
  schedule time and restores it while the event fires, so causality
  follows the event graph with no per-call-site plumbing;
* **on the wire**: :class:`TraceCarrier` wraps an outgoing protocol
  message in an *envelope*.  The carrier is a codec extension
  (``net/codec.py`` ids 8-9), appended to the registry, so older peers
  reject the frame gracefully (``net_frames_rejected``) and the framing
  layer stays aligned.  Crucially the carried message is re-encoded by
  the same init-fields-only dataclass codec as before, so signed
  payloads verify byte-identically whether or not a context is
  attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Identity of one causal chain: which trace, which parent span."""

    trace_id: str
    span_id: str


@dataclass(frozen=True, slots=True)
class TraceCarrier:
    """Wire envelope: a protocol message plus the sender's context.

    ``message`` is any codec-registered value; signatures inside it are
    untouched because the envelope wraps, never rewrites.
    """

    context: TraceContext
    message: Any
