"""Spans around the program's public entry points, from the outside.

The tracer swaps each entry point for a wrapper while a traced window
runs and puts the original back afterwards; nothing under ``src/``
knows it exists.  Spans record only while ``on`` is set, which the
caller does for the window's load slices and not for the calibration
pauses between them.  Everything it wraps is synchronous and the cluster is
single-threaded, so one stack gives every span its parent: the span
that was open when it began.

A layer's *self time* is its spans' durations minus the time their
child spans cover.  What no span covers -- asyncio, the streams, the
kernel, and timer callbacks no entry point encloses -- is the event
loop's remainder, computed by the caller as wall time minus the sum.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.broadcast.totalorder import TotalOrderBroadcast
from repro.content.kvstore import KeyValueStore
from repro.core import client as client_module
from repro.core.auditor import AuditorServer
from repro.core.client import Client
from repro.core.slave import SlaveServer
from repro.core.trusted import TrustedServer
from repro.crypto import signatures
from repro.crypto.keys import KeyPair
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.server import ShardedNetwork, SocketNetwork
from repro.net.transport import ConnectionPool
from repro.qos.queue import InboundQueue
from repro.qos.tokens import ClientAdmission
from repro.shard.router import ShardRouter
from repro.sim.network import Node

#: Layers reported as ``trace.<layer>.*``; the event loop is the rest.
LAYERS = (
    "core.client", "core.slave", "core.master", "core.auditor",
    "net.codec.encode", "net.codec.decode", "net.transport",
    "crypto.sign", "crypto.verify", "content", "broadcast", "qos",
    "shard", "metrics",
)
#: Spans kept for the JSONL file; self times cover every traced span.
MAX_SPANS = 100_000

_NODE_LAYERS: tuple[tuple[type, str], ...] = (
    (Client, "core.client"), (SlaveServer, "core.slave"),
    (AuditorServer, "core.auditor"), (TrustedServer, "core.master"),
)


def _node_layer(node: Any) -> str | None:
    for cls, layer in _NODE_LAYERS:
        if isinstance(node, cls):
            return layer
    return None  # directory, shard hosts: left to the event loop


def _targets() -> list[tuple[Any, str, str | None]]:
    """(owner, attribute, layer); layer None = by the node's type."""
    return [
        (Client, "submit", "core.client"),
        (Client, "on_message", "core.client"),
        (SlaveServer, "on_message", "core.slave"),
        (TrustedServer, "on_message", None),
        (SocketNetwork, "transmit", "net.transport"),
        (ShardedNetwork, "transmit", "net.transport"),
        (ConnectionPool, "send", "net.transport"),
        (codec, "encode_frame", "net.codec.encode"),
        (codec, "decode_value", "net.codec.decode"),
        (KeyPair, "sign", "crypto.sign"),
        (KeyPair, "sign_many", "crypto.sign"),
        (KeyPair, "verify", "crypto.verify"),
        (signatures, "verify_many", "crypto.verify"),
        (client_module, "verify_many", "crypto.verify"),
        (KeyValueStore, "execute_read", "content"),
        (KeyValueStore, "apply_write", "content"),
        (TotalOrderBroadcast, "broadcast", "broadcast"),
        (TotalOrderBroadcast, "handle_message", "broadcast"),
        (ClientAdmission, "admit", "qos"),
        (InboundQueue, "put", "qos"),
        (InboundQueue, "get", "qos"),
        (ShardRouter, "submit", "shard"),
        (MetricsRegistry, "incr", "metrics"),
    ]


class Tracer:
    """Records spans while a window is traced; aggregates self times."""

    def __init__(self) -> None:
        self.on = False
        self._stack: list[list[Any]] = []
        #: (name, layer, start, end, parent index or -1), in start order.
        self.spans: list[list[Any]] = []
        self._self: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._names: dict[str, int] = {}
        self._patches = [
            (owner, attr, getattr(owner, attr),
             self._wrap(getattr(owner, attr), _span_name(owner, attr), layer))
            for owner, attr, layer in _targets()]
        # Timers a node sets run later, outside any entry point: give
        # them a span of the node's layer so audits, keep-alives and
        # batched reply flushes are not booked to the event loop.
        self._patches.append((Node, "after", Node.after, self._wrap_after()))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str,
              layer: str | None) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on:
                return fn(*args, **kwargs)
            span_layer = layer if layer is not None \
                else _node_layer(args[0])
            frame = tracer._enter(name, span_layer)
            frame[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, clock())

        return traced

    def _wrap_after(self) -> Callable[..., Any]:
        tracer = self
        original = Node.after
        clock = time.perf_counter

        def after(node: Node, delay: float, callback: Callable[..., None],
                  *args: Any) -> Any:
            layer = _node_layer(node)
            if not tracer.on or layer is None:
                return original(node, delay, callback, *args)
            name = f"timer:{getattr(callback, '__name__', 'callback')}"

            def fire(*fire_args: Any) -> None:
                if not tracer.on:
                    callback(*fire_args)
                    return
                frame = tracer._enter(name, layer)
                frame[2] = clock()
                try:
                    callback(*fire_args)
                finally:
                    tracer._exit(frame, clock())

            return original(node, delay, fire, *args)

        return after

    def _enter(self, name: str, layer: str | None) -> list[Any]:
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, layer, 0.0, 0.0, parent])
        # [name, layer, start, child seconds, span index]
        frame = [name, layer, 0.0, 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, frame: list[Any], end: float) -> None:
        stack = self._stack
        stack.pop()
        name, layer, start, children, index = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        if layer is not None:
            self._self[layer] = self._self.get(layer, 0.0) \
                + duration - children
            self._calls[layer] = self._calls.get(layer, 0) + 1
        self._names[name] = self._names.get(name, 0) + 1
        if index >= 0:
            span = self.spans[index]
            span[2] = start
            span[3] = end

    # -- windows -----------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; spans record while ``on`` is set."""
        self._self = {}
        self._calls = {}
        self._names = {}
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> dict[str, Any]:
        """Restore the originals; self seconds and calls since install."""
        self.on = False
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        return {"self": self._self, "calls": self._calls,
                "names": self._names}

    def write_jsonl(self, path: str) -> None:
        """One span a line: name, layer, start, end, parent (line index)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, layer, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"name": name, "layer": layer, "start": start,
                     "end": end, "parent": parent}) + "\n")


def _span_name(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', str(owner)).rsplit('.', 1)[-1]}" \
           f".{attr}"
