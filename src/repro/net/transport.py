"""Framed asyncio streams and the pipelined, retrying connection pool.

One :class:`ConnectionPool` serves one node: the protocol core calls the
synchronous ``send(dst_id, message)`` (via the
:class:`~repro.net.server.SocketNetwork` facade), which appends to a
per-destination backlog and arms one flush callback for the current
event-loop tick.  The flush is *event-driven*: when the peer is
connected and nothing has to be waited for, it encodes the tick's
backlog and writes it to the socket synchronously -- no task, no queue,
no wakeup between ``send`` and the wire.

Everything that *does* have to wait -- the dial and hello, retry and
backoff after a lost connection, a write buffer the kernel has not
drained, an open circuit breaker -- runs in a short-lived recovery task
that owns the peer until its backlog is empty: it re-dials with bounded
exponential backoff plus jitter and drops a frame only after its retry
budget is spent (the protocol layer already tolerates loss: clients
retry reads, masters re-send keep-alives).  While the task owns the
peer ``send`` only appends, so messages leave in ``send`` order across
the hand-over.

Both paths are *pipelined*: a flush takes the whole backlog (up to
:data:`MAX_BATCH` per frame) and ships it with one write, coalescing
multiple messages into a single :class:`~repro.net.codec.FrameBatch`
wire frame that the receiving side unpacks in order.  Connections are
opened with ``TCP_NODELAY`` so a coalesced flush is not re-buffered by
Nagle.

Every socket operation that can block is wrapped in a timeout; a hung
peer costs a ``net_timeouts`` tick and a reconnect, never a wedged
peer.
"""

from __future__ import annotations

import asyncio
import random
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.errors import (
    CodecError,
    HandshakeError,
    TransportError,
    TruncatedFrame,
)
from repro.net.peers import PeerDirectory
from repro.qos.breaker import CLOSED, CircuitBreaker

#: Most messages one peer's backlog holds; ``send`` drops beyond it.
_BACKLOG_LIMIT = 4096
#: Seconds a dial may take before it counts as a failed connect.
CONNECT_TIMEOUT = 2.0
#: Seconds the hello and a drain of the write buffer may take.
IO_TIMEOUT = 5.0
#: Most messages one flush coalesces into a single wire frame.
MAX_BATCH = 64
#: Reconnect backoff: the wait after failed attempt ``a`` (0, 1, ...)
#: is ``BACKOFF_BASE * BACKOFF_MULTIPLIER**a`` capped at ``BACKOFF_MAX``,
#: then stretched by up to ``BACKOFF_JITTER`` of itself so a restarted
#: cluster does not reconnect in lockstep.
BACKOFF_BASE = 0.05
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.5
#: Attempts one batch gets before its messages are dropped.
MAX_ATTEMPTS = 5


async def read_frame(reader: asyncio.StreamReader,
                     timeout: float | None = None) -> tuple[Any, int]:
    """Read one frame; returns ``(decoded value, frame size in bytes)``.

    ``None`` timeout waits forever.  Raises :class:`ConnectionError` on
    clean EOF before a header, :class:`TruncatedFrame` on EOF mid-frame,
    :class:`CodecError` subclasses on malformed bytes and
    :class:`asyncio.TimeoutError` when the deadline passes.
    """

    async def _read() -> tuple[Any, int]:
        try:
            header = await reader.readexactly(codec.HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise ConnectionResetError(
                    "peer closed the connection") from None
            raise TruncatedFrame(
                f"connection closed {len(exc.partial)} bytes into a header"
            ) from None
        length = codec.parse_header(header)
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise TruncatedFrame(
                f"connection closed {len(exc.partial)}/{length} bytes "
                "into a frame body"
            ) from None
        return codec.decode_value(body), codec.HEADER_SIZE + length

    if timeout is None:
        return await _read()
    return await asyncio.wait_for(_read(), timeout)


async def write_frame(writer: asyncio.StreamWriter, value: Any,
                      timeout: float | None = None) -> int:
    """Encode and write one frame, returning its size in bytes."""
    frame = codec.encode_frame(value)
    writer.write(frame)
    if timeout is None:
        await writer.drain()
    else:
        await asyncio.wait_for(writer.drain(), timeout)
    return len(frame)


def backoff(attempt: int, rng: random.Random) -> float:
    """Seconds to wait after failed attempt ``attempt``."""
    raw = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_MULTIPLIER ** attempt)
    return raw * (1.0 + BACKOFF_JITTER * rng.random())


@dataclass(slots=True)
class _Peer:
    """Sender-side state for one destination."""

    #: Messages ``send`` accepted that are not on the wire yet, oldest
    #: first.
    backlog: "deque[Any]" = field(default_factory=deque)
    #: The recovery task while it owns this peer (``send`` then only
    #: appends), else ``None``.
    task: "asyncio.Task[None] | None" = None
    writer: asyncio.StreamWriter | None = None
    #: The dial's reader, set and cleared with ``writer``.  Nothing is
    #: ever read from it; it is kept for ``at_eof()``, the only sign of
    #: a peer that closed cleanly (the transport stays writable and the
    #: kernel takes one more write that nobody will read).
    reader: asyncio.StreamReader | None = None
    #: What this connection has carried in full, the sending half (the
    #: accepting ``_Connection`` holds its pair); set and cleared with
    #: ``writer``, so every dial starts from nothing.
    context: codec.WireContext | None = None
    #: A flush callback is already scheduled for this loop tick.
    flush_armed: bool = False


class ConnectionPool:
    """Per-node outbound connection manager.

    ``send`` never blocks the caller (protocol handlers run inside the
    event loop); a full per-peer backlog drops the frame with a metric
    instead of exerting backpressure the synchronous core cannot feel.
    """

    def __init__(self, node_id: str, peers: PeerDirectory,
                 metrics: MetricsRegistry, rng: random.Random) -> None:
        self.node_id = node_id
        self.peers = peers
        self.metrics = metrics
        self.rng = rng
        #: Per-peer circuit breakers wrapping the retry machinery: after
        #: ``FAILURE_THRESHOLD`` consecutive retries-exhausted batches a
        #: peer's breaker opens and frames fast-fail (counted under
        #: ``net_drop_breaker_open``) instead of burning a full backoff
        #: ladder each, until a half-open probe succeeds.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._peers: dict[str, _Peer] = {}
        self._closed = False

    # -- the synchronous face the protocol core sees --------------------

    def send(self, dst_id: str, message: Any) -> None:
        """Queue one message for ``dst_id``; returns immediately."""
        if self._closed:
            return
        if not self.peers.knows(dst_id):
            self._drop(dst_id, "unknown_peer")
            self.metrics.incr("net_unknown_peer")
            return
        peer = self._peers.get(dst_id)
        if peer is None:
            peer = self._peers[dst_id] = _Peer()
        if len(peer.backlog) >= _BACKLOG_LIMIT:
            self._drop(dst_id, "queue_full")
            return
        peer.backlog.append(message)
        if peer.task is None and not peer.flush_armed:
            # One flush per peer per loop tick: whatever this tick's
            # handlers send to the peer leaves in one write.
            peer.flush_armed = True
            asyncio.get_running_loop().call_soon(self._flush, dst_id, peer)

    def _drop(self, dst_id: str, reason: str) -> None:
        """Count one dropped frame: aggregate plus a per-reason counter."""
        self.metrics.incr("net_frames_dropped")
        self.metrics.incr(f"net_drop_{reason}")

    def _breaker_for(self, dst_id: str) -> CircuitBreaker:
        brk = self._breakers.get(dst_id)
        if brk is None:
            brk = self._breakers[dst_id] = CircuitBreaker()
        return brk

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per peer (admin-plane surfacing)."""
        return {dst: brk.state for dst, brk in self._breakers.items()}

    def breaker_trips(self) -> int:
        """Lifetime closed/half-open -> open transitions, all peers."""
        return sum(brk.trips for brk in self._breakers.values())

    def kill_connection(self, dst_id: str) -> bool:
        """Abort the live TCP connection to ``dst_id`` (fault injection).

        The dead writer is deliberately left in place -- exactly what a
        connection dropped by the network looks like -- so the next
        flush discovers the loss and walks the full retry/backoff/redial
        path.  Returns whether there was a connection to kill.
        """
        peer = self._peers.get(dst_id)
        if peer is None or peer.writer is None:
            return False
        peer.writer.transport.abort()
        return True

    # -- the flush: synchronous when it can be, a task when it must wait --

    def _flush(self, dst_id: str, peer: _Peer) -> None:
        """Write ``peer``'s backlog now, or hand the peer to a task.

        The write is synchronous when nothing has to be waited for: the
        connection is up, the breaker closed and the transport's write
        buffer empty.  ``is_closing()`` and ``at_eof()`` are tested
        *before* each write because asyncio silently discards writes to
        a lost connection and the kernel accepts one to a half-closed
        one -- a killed connection or a peer that sent FIN has to walk
        the retry path, not swallow frames.  Whatever is left goes to
        :meth:`_recover`.
        """
        peer.flush_armed = False
        if self._closed or peer.task is not None:
            return
        backlog = peer.backlog
        writer, reader = peer.writer, peer.reader
        if writer is not None and reader is not None:
            brk = self._breakers.get(dst_id)
            if brk is None or brk.state == CLOSED:
                transport = writer.transport
                while (backlog and not transport.is_closing()
                       and not reader.at_eof()
                       and transport.get_write_buffer_size() == 0):
                    batch = self._take(backlog)
                    payload = self._encode(dst_id, batch, peer.context)
                    writer.write(payload)
                    # "Frames" are protocol messages: the counters see
                    # the same traffic whether or not the wire
                    # coalesced them.
                    self.metrics.incr("net_frames_sent", len(batch))
                    self.metrics.incr("net_bytes_sent", len(payload))
        if backlog:
            peer.task = asyncio.get_running_loop().create_task(
                self._recover(dst_id, peer),
                name=f"net-send:{self.node_id}->{dst_id}")

    def _take(self, backlog: "deque[Any]") -> list[Any]:
        """Remove and return the backlog's head, up to :data:`MAX_BATCH`."""
        if len(backlog) <= MAX_BATCH:
            batch = list(backlog)
            backlog.clear()
            return batch
        return [backlog.popleft() for _ in range(MAX_BATCH)]

    def _encode(self, dst_id: str, batch: list[Any],
                context: codec.WireContext | None) -> bytes:
        """Wire bytes for one flush's messages, in order, on the
        connection ``context`` belongs to.

        Two or more go out as a single
        :class:`~repro.net.codec.FrameBatch` frame -- one header, one
        ``write`` -- falling back to individually framed messages in the
        same write when the coalesced frame cannot be encoded: its body
        would exceed ``MAX_FRAME_BYTES`` (several store snapshots back
        to back), or one message is not encodable at all (an
        unregistered type, a single message over the limit).  Such a
        message is dropped with a count and removed from ``batch``; its
        batch mates still go out.  A frame that fails leaves ``context``
        as it found it, so the fallback starts where the batch did.
        """
        try:
            if len(batch) == 1:
                return codec.encode_frame(batch[0], context)
            payload = codec.encode_frame(
                codec.FrameBatch(messages=tuple(batch)), context)
        except CodecError:
            pass
        else:
            self.metrics.incr("net_batches_sent")
            return payload
        return self._encode_each(dst_id, batch, context, codec.encode_frame)

    def _encode_each(
        self, dst_id: str, batch: list[Any],
        context: codec.WireContext | None,
        frame: Callable[[Any, "codec.WireContext | None"], bytes],
    ) -> bytes:
        """``frame(message, context)`` for each of ``batch``, joined in
        order; one that cannot be encoded is dropped with a count and
        removed from ``batch``."""
        frames = []
        encoded = []
        for message in batch:
            try:
                frames.append(frame(message, context))
            except CodecError:
                self._drop(dst_id, "unencodable")
            else:
                encoded.append(message)
        batch[:] = encoded
        return b"".join(frames)

    async def _recover(self, dst_id: str, peer: _Peer) -> None:
        """Own ``peer`` until its backlog is empty: everything that waits.

        Dial and hello, retry with backoff, ``drain()`` under
        ``IO_TIMEOUT``, breaker fast-fail and half-open probes.  While
        this task runs ``send`` only appends, so the backlog leaves in
        ``send`` order whichever path wrote the messages before it.
        """
        loop = asyncio.get_running_loop()
        try:
            while peer.backlog and not self._closed:
                batch = self._take(peer.backlog)
                brk = self._breaker_for(dst_id)
                if not brk.allow(loop.time()):
                    # Open breaker: fast-fail the backlog instead of
                    # burning a full backoff ladder against a peer known
                    # to be down.
                    for _message in batch:
                        self._drop(dst_id, "breaker_open")
                    continue
                delivered = False
                for attempt in range(MAX_ATTEMPTS):
                    if self._closed:
                        return
                    try:
                        if peer.writer is None or peer.reader is None:
                            peer.reader, peer.writer = \
                                await self._connect(dst_id)
                            peer.context = codec.WireContext()
                        elif peer.reader.at_eof():
                            raise ConnectionResetError(
                                f"{dst_id} closed the connection")
                        payload = self._encode(dst_id, batch, peer.context)
                        peer.writer.write(payload)
                        await self._drain(peer.writer)
                    except (ConnectionError, OSError, asyncio.TimeoutError,
                            TransportError) as exc:
                        if isinstance(exc, asyncio.TimeoutError):
                            self.metrics.incr("net_timeouts")
                        self._teardown(peer)
                        self.metrics.incr("net_retries")
                        if attempt + 1 < MAX_ATTEMPTS:
                            # No point backing off after the last
                            # attempt: the frame is already lost either
                            # way.
                            await asyncio.sleep(backoff(attempt, self.rng))
                        continue
                    self.metrics.incr("net_frames_sent", len(batch))
                    self.metrics.incr("net_bytes_sent", len(payload))
                    delivered = True
                    break
                if delivered:
                    brk.record_success(loop.time())
                else:
                    self._teardown(peer)
                    for _message in batch:
                        self._drop(dst_id, "retries_exhausted")
                    trips_before = brk.trips
                    brk.record_failure(loop.time())
                    if brk.trips > trips_before:
                        self.metrics.incr("qos_breaker_opens")
        finally:
            # Hand the peer back whatever ended the task, so the next
            # ``send`` arms a flush instead of queueing behind a corpse.
            peer.task = None

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        """Await the writer's flow control, bounded by ``IO_TIMEOUT``.

        When the transport has already flushed everything (the common
        localhost case) ``drain()`` is a no-op, so the ``wait_for`` task
        machinery is skipped entirely.  A closing transport still goes
        through ``drain()`` to surface the connection error.
        """
        transport = writer.transport
        if (transport is not None and not transport.is_closing()
                and transport.get_write_buffer_size() == 0):
            return
        await asyncio.wait_for(writer.drain(), IO_TIMEOUT)

    async def _connect(
        self, dst_id: str,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        host, port = self.peers.endpoint(dst_id)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), CONNECT_TIMEOUT)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.metrics.incr("net_connect_failures")
            raise
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # A pipelined flush is already one syscall; Nagle would only
            # re-buffer it behind unacked data and add RTTs of latency.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            await write_frame(writer, codec.NetHello(node_id=self.node_id),
                              IO_TIMEOUT)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.metrics.incr("net_connect_failures")
            writer.transport.abort()
            raise HandshakeError(
                f"hello to {dst_id} failed before acknowledgement"
            ) from None
        self.metrics.incr("net_connects")
        return reader, writer

    def _teardown(self, peer: _Peer) -> None:
        if peer.writer is not None:
            peer.writer.transport.abort()
            peer.writer = peer.reader = peer.context = None

    # -- lifecycle ---------------------------------------------------------

    async def aclose(self) -> None:
        """Cancel recovery tasks and abort live connections.

        Takes ownership of the peer map *before* the first await: a
        concurrent ``aclose``/``send`` interleaving at the await would
        otherwise see (and re-teardown, or repopulate) peers this call
        is still draining.
        """
        self._closed = True
        peers, self._peers = self._peers, {}
        tasks = []
        for peer in peers.values():
            if peer.task is not None:
                peer.task.cancel()
                tasks.append(peer.task)
            self._teardown(peer)
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                pass


__all__ = [
    "ConnectionPool",
    "backoff",
    "read_frame",
    "write_frame",
    "CodecError",
]
