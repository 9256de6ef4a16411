"""Socket runtime for unmodified protocol nodes.

The protocol core touches its environment through exactly three seams:
``simulator.fork_rng`` / ``Node.after`` / ``Node.now`` (time and
randomness), ``Node.sign_batch`` (batch signing) and
``network.transmit`` (messaging).  This module provides real-time
implementations of all three -- :class:`RealtimeScheduler` maps timers
onto the asyncio event loop and RSA batches onto the deployment's
signing worker (:mod:`repro.net.signworker`), and
:class:`SocketNetwork` maps ``send`` onto a framed TCP connection pool
-- so ``MasterServer``, ``SlaveServer``, ``DirectoryServer``,
``AuditorServer`` and ``Client`` run over sockets without a single line
changed.

:class:`NodeServer` is the inbound half: one TCP listener per node,
accepting peer connections that open with a
:class:`~repro.net.codec.NetHello` and then carry protocol frames.
Each accepted connection is an :class:`asyncio.Protocol` whose
``data_received`` parses complete frames out of the segment and
dispatches them inline -- no reader task, no stream, no await between
the socket and the handler.  Malformed frames are counted and skipped
(body-level garbage) or close the connection (framing-level garbage, or
a reference to something the connection never carried);
handler exceptions are captured, not fatal -- a byzantine peer must not
crash a server.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import math
import os
import random
from typing import Any, Callable, Container

from repro.core.messages import Accusation, KeepAlive
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import RSASigner, Signature
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.errors import CodecError, TruncatedFrame, UnknownReference
from repro.net.signworker import SigningWorker
from repro.net.transport import ConnectionPool
from repro.obs.admin import (
    ObsDumpReply,
    ObsDumpRequest,
    StatusReply,
    StatusRequest,
    span_to_wire,
)
from repro.obs.context import TraceCarrier
from repro.qos.ledger import AdmissionLedger
from repro.qos.tokens import SHED_PENALTY, AdmissionPolicy, ClientAdmission
from repro.shard.wire import ShardEnvelope, shard_of
from repro.sim.network import Network, Node
from repro.sim.simulator import EventHandle, Simulator, restore_context

#: Message classes the qos layer must NEVER shed: keep-alives carry the
#: Section 3.1 freshness bound every read hangs off, and accusations
#: carry Section 3.5's proof-of-misbehaviour.  Everything else is fair
#: game under overload (clients retry; the protocol tolerates loss).
PROTECTED_MESSAGE_TYPES: tuple[type, ...] = (KeepAlive, Accusation)
#: Seconds an accepted connection has to say hello.
HANDSHAKE_TIMEOUT = 5.0


def _traced(obs: Any, context: Any,
            then: Callable[[list[Signature]], None],
            signatures: list[Signature]) -> None:
    restore_context(obs, context, then, (signatures,))


class RealtimeScheduler(Simulator):
    """A :class:`Simulator` whose clock is the asyncio event loop's.

    Timers go on the simulator's own queue, as ``(fire_at, seq, handle,
    callback, args)`` entries, and one loop timer stays armed at the
    queue's head: a timer is a heap push, not a loop timer, and
    ``cancel()`` is the base :class:`EventHandle` flag.  A cancelled
    entry stays queued until it reaches the head or the queue has
    doubled since it was last compacted.

    ``fork_rng`` keeps the simulator's deterministic derivation (seed +
    fork order + label), so key material for a given deployment spec is
    reproducible even though event *timing* is real.  The discrete-event
    ``run_*`` methods are disabled: in real time, the loop runs itself.

    :meth:`sign_batch` sends RSA batches to the deployment's one
    :class:`~repro.net.signworker.SigningWorker` when the process may
    run on more than one CPU, started at the first such batch and
    stopped by :meth:`close`; HMAC batches, a one-CPU process and a
    dead or stopped worker sign inline, as the simulator does.  ``then``
    runs under the trace context of the call, as it would inline.
    """

    #: Queue length below which cancelled entries are never compacted.
    COMPACT_FLOOR = 64

    def __init__(self, seed: int, loop: asyncio.AbstractEventLoop,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(seed)
        self._loop = loop
        #: Where the signing worker counts its batches and their waits.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._timer: asyncio.TimerHandle | None = None
        #: When the armed loop timer fires; ``inf`` when none is armed.
        self._armed_at = math.inf
        self._compact_at = self.COMPACT_FLOOR
        #: The signing worker; ``None`` until the first RSA batch.
        self.signing_worker: SigningWorker | None = None
        #: One start per deployment: set at the first RSA batch, and by
        #: :meth:`close`.
        self._worker_tried = False

    @property
    def now(self) -> float:
        return self._loop.time()

    def sign_batch(self, keys: KeyPair, payloads: list[bytes],
                   then: Callable[[list[Signature]], None]) -> None:
        signer = keys.signer
        if isinstance(signer, RSASigner):
            worker = self.signing_worker or self._start_worker()
            if worker is not None and worker.alive:
                # Made on this key's behalf, so counted on it.
                keys.signatures_made += len(payloads)
                obs = self.obs
                if obs is not None and obs.current is not None:
                    # ``then`` runs under the caller's trace, as inline.
                    then = functools.partial(_traced, obs, obs.current, then)
                worker.submit(signer.keypair, payloads, then)
                return
        super().sign_batch(keys, payloads, then)

    def _start_worker(self) -> SigningWorker | None:
        if self._worker_tried:
            return None
        self._worker_tried = True
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = affinity(0) if affinity is not None else set()
        if len(cpus) > 1:
            try:
                self.signing_worker = SigningWorker(self._loop, cpus,
                                                    self.metrics)
            except OSError:
                pass  # no child to be had: sign inline
        return self.signing_worker

    def close(self) -> None:
        """Stop the signing worker (deployment shutdown); every later
        batch signs inline."""
        self._worker_tried = True
        if self.signing_worker is not None:
            self.signing_worker.close()

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        # Unlike the simulator, real time advances *during* a handler, so
        # protocol code computing "deadline - now" can legitimately come
        # out a few microseconds negative.  "In the past" means "as soon
        # as possible" here.
        obs = self.obs
        if obs is not None and obs.current is not None:
            args = (obs, obs.current, callback, args)
            callback = restore_context
        fire_at = self._loop.time() + max(0.0, delay)
        handle = EventHandle(fire_at)
        queue = self._queue
        heapq.heappush(queue, (fire_at, next(self._counter), handle,
                               callback, args))
        if fire_at < self._armed_at:
            self._arm(fire_at)
        if len(queue) >= self._compact_at:
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._compact_at = max(2 * len(queue), self.COMPACT_FLOOR)
        return handle

    def _arm(self, fire_at: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(fire_at, self._fire)
        self._armed_at = fire_at

    def _fire(self) -> None:
        """Run every due, uncancelled entry that was queued when the
        loop timer fired, in ``(fire_at, seq)`` order, then re-arm.

        Due means by the loop's clock or by the deadline the timer was
        armed for, whichever is later (the loop fires a timer up to its
        clock resolution early).  An entry queued by one of these
        callbacks waits for a later loop iteration, as a zero-delay
        ``call_later`` does.
        """
        self._timer = None
        due = max(self._loop.time(), self._armed_at)
        self._armed_at = -math.inf  # nothing re-arms until the drain ends
        last = next(self._counter)
        queue = self._queue
        try:
            while queue and queue[0][0] <= due and queue[0][1] < last:
                _, _, handle, callback, args = heapq.heappop(queue)
                if handle.cancelled:
                    continue
                self.events_processed += 1
                try:
                    callback(*args)
                except Exception as exc:
                    # What asyncio reports for a raising loop callback.
                    self._loop.call_exception_handler({
                        "message": f"Exception in callback {callback!r}",
                        "exception": exc})
        finally:
            self._armed_at = math.inf
            while queue and queue[0][2].cancelled:
                heapq.heappop(queue)
            if queue:
                self._arm(queue[0][0])

    def cancel_all(self) -> None:
        """Cancel every outstanding timer (deployment shutdown)."""
        for entry in self._queue:
            entry[2].cancel()
        self._queue.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_at = math.inf

    def run_until(self, deadline: float) -> None:
        raise RuntimeError("RealtimeScheduler cannot be stepped; "
                           "the event loop drives time")

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        raise RuntimeError("RealtimeScheduler cannot be stepped; "
                           "the event loop drives time")


class SocketNetwork(Network):
    """The ``Network`` seam of one node, backed by a connection pool.

    Each node owns one ``SocketNetwork`` (one host's view of the world),
    unlike the simulator where a single fabric object holds every node.
    ``transmit`` hands the message to the pool; delivery accounting
    happens on the receiving :class:`NodeServer`.
    """

    def __init__(self, scheduler: RealtimeScheduler,
                 pool: ConnectionPool) -> None:
        super().__init__(scheduler)
        self.pool = pool

    def transmit(self, src_id: str, dst_id: str, message: Any) -> None:
        obs = self.simulator.obs
        if obs is not None and obs.current is not None:
            # Envelope, not rewrite: the carried message is re-encoded
            # by the same codec entry as before, so signatures inside it
            # verify byte-identically on the far side.
            message = TraceCarrier(context=obs.current, message=message)
        self.pool.send(dst_id, message)


class ShardedNetwork(SocketNetwork):
    """A tenant's outbound seam in a multi-tenant deployment.

    Every message is wrapped in a :class:`~repro.shard.wire.ShardEnvelope`
    naming the source and destination *tenants* and shipped to the
    destination's **host** listener, so connections coalesce per host
    pair instead of per tenant pair.  Like the trace carrier it wraps
    (envelope, not rewrite), the carried message is encoded by its own
    registry entry -- signed payloads cross the wire byte-identical.

    ``host_of`` is shared mutable state owned by the deployment: the
    rebalancer adds entries for new-generation tenants while traffic is
    flowing, and every tenant's network sees them immediately.
    """

    def __init__(self, scheduler: RealtimeScheduler, pool: ConnectionPool,
                 host_of: dict[str, str]) -> None:
        super().__init__(scheduler, pool)
        self.host_of = host_of

    def transmit(self, src_id: str, dst_id: str, message: Any) -> None:
        obs = self.simulator.obs
        if obs is not None and obs.current is not None:
            message = TraceCarrier(context=obs.current, message=message)
        shard = shard_of(dst_id) or shard_of(src_id) or ""
        envelope = ShardEnvelope(shard_id=shard, src=src_id, dst=dst_id,
                                 message=message)
        self.pool.send(self.host_of.get(dst_id, dst_id), envelope)


class _Connection(asyncio.Protocol):
    """One accepted connection, driven by the event loop's callbacks.

    ``data_received`` parses every complete frame out of the segment
    (a partial tail is spilled to ``_buffer`` until the rest arrives)
    and hands each decoded message to the server's admission and
    dispatch inline.  The first frame must be a
    :class:`~repro.net.codec.NetHello` within :data:`HANDSHAKE_TIMEOUT`;
    its node id is ``src_id`` for everything after.

    Parsing is *halted* -- reading paused on this socket only, arrived
    bytes kept in order in ``_buffer`` -- while a shed penalty runs and
    while the peer is not reading our admin replies; TCP backpressure
    does the rest.  One loop timer per connection is re-armed through
    its life: the handshake deadline, then the idle reaper.
    """

    __slots__ = ("server", "loop", "transport", "src_id", "_buffer",
                 "_need", "_timer", "_holds", "_halted", "_closed",
                 "_active_at", "_context")

    transport: asyncio.Transport

    def __init__(self, server: "NodeServer",
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.loop = loop
        self.src_id: str | None = None
        self._buffer = bytearray()
        #: Bytes ``_buffer`` must hold before parsing can make progress.
        self._need = codec.HEADER_SIZE
        self._timer: asyncio.TimerHandle | None = None
        #: Reasons to stay halted: penalties running, writes blocked.
        self._holds = 0
        #: Do not parse: held, or closed.
        self._halted = False
        self._closed = False
        #: When the last complete frame arrived (idle reaper's clock).
        self._active_at = 0.0
        #: What the peer has sent in full on this connection, the
        #: receiving half (its ``_Peer`` holds the pair); lives and dies
        #: with the connection.
        self._context = codec.WireContext()

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._connections.add(self)
        self._timer = self.loop.call_later(
            HANDSHAKE_TIMEOUT, self._handshake_expired)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        if self.src_id is None and not self._closed:
            # Gone before a hello: same verdict as a bad one.
            self.server.metrics.incr("net_handshakes_rejected")
        self._closed = self._halted = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer or self._halted:
            buffer += data
            if self._halted or len(buffer) < self._need:
                return
            data = bytes(buffer)
            buffer.clear()
        self._parse(data)

    def eof_received(self) -> None:
        if self._buffer and not self._closed:
            # EOF inside a frame: the stream ends misaligned.
            self._malformed("framing")

    # -- frames ----------------------------------------------------------------

    def _parse(self, data: bytes) -> None:
        """Handle every complete frame in ``data``; spill the rest."""
        header_size = codec.HEADER_SIZE
        pos = 0
        end = len(data)
        need = header_size
        while end - pos >= header_size and not self._halted:
            body_at = pos + header_size
            try:
                length = codec.parse_header(data[pos:body_at])
            except CodecError:
                # Framing is gone; nothing after this point parses.
                self._malformed("framing")
                break
            frame_end = body_at + length
            if frame_end > end:
                need = header_size + length
                break
            pos = frame_end
            try:
                message = codec.decode_value(data[body_at:frame_end],
                                             self._context)
            except TruncatedFrame:
                self._malformed("framing")
            except UnknownReference:
                # The two ends no longer remember the same things (a
                # defining frame was damaged or skipped): like lost
                # alignment, only a new connection restores it.
                self._malformed("reference")
            except CodecError:
                # Bad body inside a well-framed message: skip it, the
                # stream itself is still aligned on frame boundaries.
                self._malformed("body")
            else:
                self._on_frame(message, header_size + length)
        if self._closed:
            return
        if pos and self._timer is not None:
            self._active_at = self.loop.time()
        if pos < end:
            self._buffer += memoryview(data)[pos:]
        self._need = need

    def _on_frame(self, message: Any, size: int) -> None:
        server = self.server
        src_id = self.src_id
        if src_id is None:
            self._handshake(message)
            return
        metrics = server.metrics
        metrics.incr("net_bytes_received", size)
        if isinstance(message, codec.FrameBatch):
            # One wire frame, several protocol messages: the frame
            # counter tracks messages so coalescing is invisible to
            # traffic accounting; dispatch stays per-message, so one
            # bad handler cannot head-of-line block its batch mates.
            metrics.incr("net_batches_received")
            metrics.incr("net_frames_received", len(message.messages))
            shed = False
            for inner in message.messages:
                if server._receive(src_id, inner):
                    shed = True
        else:
            metrics.incr("net_frames_received")
            if isinstance(message, (StatusRequest, ObsDumpRequest)):
                # The admin plane: answered here, traced or not, and
                # never charged to the sender's quota.
                metrics.incr("obs_admin_requests")
                self.transport.write(codec.encode_frame(
                    server.status() if isinstance(message, StatusRequest)
                    else server.obs_dump(message)))
                return
            shed = server._receive(src_id, message)
        if shed:
            # Turn the shed into backpressure: stall this connection so
            # the over-quota pipeline slows at the source instead of
            # returning as a synchronized retry wave.  Only this socket
            # stops being read; everyone else's runs on.
            self._halt()
            self.loop.call_later(SHED_PENALTY, self._release)

    def _handshake(self, hello: Any) -> None:
        if not isinstance(hello, codec.NetHello) \
                or hello.wire_version != codec.WIRE_VERSION:
            self._refuse_handshake()
            return
        self.src_id = hello.node_id
        assert self._timer is not None
        self._timer.cancel()
        self._timer = None
        qos = self.server.qos
        if qos is not None and qos.idle_timeout is not None:
            self._active_at = self.loop.time()
            self._timer = self.loop.call_later(
                qos.idle_timeout, self._idle_check)

    def _malformed(self, kind: str) -> None:
        """Count a bad frame; all but a skippable body close the socket."""
        if self.src_id is None:
            self._refuse_handshake()
            return
        self.server._reject(self.src_id, kind)
        if kind != "body":
            self._close()

    def _refuse_handshake(self) -> None:
        # Anything but a clean, current hello first: the peer is gone
        # before a single protocol message is dispatched.
        self.server.metrics.incr("net_handshakes_rejected")
        self._close()

    # -- timers ----------------------------------------------------------------

    def _handshake_expired(self) -> None:
        self.server.metrics.incr("net_timeouts")
        self._refuse_handshake()

    def _idle_check(self) -> None:
        qos = self.server.qos
        assert qos is not None and qos.idle_timeout is not None
        remaining = self._active_at + qos.idle_timeout - self.loop.time()
        if remaining > 0:
            self._timer = self.loop.call_later(remaining, self._idle_check)
            return
        # Idle reaper: handshaked but silent past the allowance -- the
        # slot goes back to the pool (peers redial).
        assert self.src_id is not None
        self.server.metrics.incr("net_timeouts")
        self.server._count_shed(self.src_id, "idle")
        self._close()

    # -- flow ------------------------------------------------------------------

    def _halt(self) -> None:
        self._holds += 1
        self._halted = True
        self.transport.pause_reading()

    def _release(self) -> None:
        """One hold fewer; at none, read again and drain what arrived
        meanwhile, in order."""
        self._holds -= 1
        if self._holds or self._closed:
            return
        self._halted = False
        self.transport.resume_reading()
        # A stall is not idleness: the idle window restarts here.
        self._active_at = self.loop.time()
        if len(self._buffer) >= self._need:
            data = bytes(self._buffer)
            self._buffer.clear()
            self._parse(data)

    # asyncio's write flow control: a peer that does not read our admin
    # replies is not read from until the write buffer drains.
    pause_writing = _halt
    resume_writing = _release

    def _close(self) -> None:
        self._closed = self._halted = True
        self.transport.abort()


class NodeServer:
    """One node's TCP listener plus frame dispatch.

    ``errors`` collects handler exceptions (with the offending source and
    message) so tests can assert clean runs; production callers would
    drain it into logging.

    Every decoded message is dispatched inline, in the callback that
    decoded it, but for the admin plane's two requests, which the
    listener answers itself (:meth:`status`, :meth:`obs_dump`).  With a
    :class:`~repro.qos.tokens.AdmissionPolicy` the listener grows a
    serving plane: a per-client frame token bucket checked just before
    dispatch (per-reason ``qos_shed_*`` counters; keep-alives and
    accusations are never charged) and an idle-connection reaper.
    ``qos_rng`` is accepted and not read (the benchmark harness passes
    it).  ``trusted`` names the deployment's trusted servers (masters
    and auditors): their frames are never charged either, so admission
    cannot shed the total order's own orders and heartbeats.
    """

    def __init__(self, node: Node, metrics: MetricsRegistry,
                 qos: AdmissionPolicy | None = None,
                 qos_rng: random.Random | None = None,
                 ledger: AdmissionLedger | None = None,
                 trusted: Container[str] = ()) -> None:
        self.node = node
        self.metrics = metrics
        self.qos = qos
        #: Principals never charged (deployment-owned, may still grow).
        self.trusted = trusted
        #: Opt-in per-principal admission: when set, buckets come from
        #: the (deployment-shared) ledger keyed by key fingerprint, not
        #: from this listener's one account per principal name.
        self.ledger = ledger
        #: Tenant registry: node id -> hosted node.  The anchor node is
        #: always present under its own id; multi-tenant deployments
        #: add one entry per per-shard tenant (see ``add_tenant``).
        #: :class:`~repro.shard.wire.ShardEnvelope` frames route here;
        #: bare frames go to the anchor (single-tenant back-compat).
        self._tenants: dict[str, Node] = {node.node_id: node}
        self.host = ""
        self.port = 0
        self.errors: list[tuple[str, Exception]] = []
        #: Frames shed by this listener (all reasons), for :meth:`status`.
        self.shed_total = 0
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._admission: dict[str, ClientAdmission] = {}

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    # -- multi-tenancy (repro.shard) ----------------------------------------

    def add_tenant(self, node: Node) -> None:
        """Host another node behind this listener."""
        if node.node_id in self._tenants:
            raise ValueError(f"tenant {node.node_id!r} already hosted on "
                             f"{self.node.node_id!r}")
        self._tenants[node.node_id] = node

    def replace_tenant(self, node: Node) -> Node | None:
        """Swap the node serving an existing tenant id (shard
        retirement installs a ``WrongShard``-answering stub here)."""
        previous = self._tenants.get(node.node_id)
        self._tenants[node.node_id] = node
        return previous

    def tenants(self) -> dict[str, Node]:
        return dict(self._tenants)

    # -- receive: wire-level admission (repro.qos), then dispatch ----------

    def _receive(self, src_id: str, message: Any) -> bool:
        """Admit one decoded message and dispatch it inline, or shed it.

        The envelopes are opened once, here: a ShardEnvelope names the
        *tenant* that sent the message (the principal charged -- the
        connection's hello only names the peer host, and many tenants
        share one connection) and the tenant it is for; a TraceCarrier
        carries the trace context the handler runs under.  Keep-alives,
        accusations and whatever a trusted server sends are never
        charged, so never shed.

        Returns True when the message went over quota and was shed, so
        the connection it arrived on can be penalized.
        """
        envelope = None
        shard_id = ""
        if isinstance(message, ShardEnvelope):
            envelope = message
            src_id, shard_id = envelope.src, envelope.shard_id
            message = envelope.message
        context = None
        if isinstance(message, TraceCarrier):
            context, message = message.context, message.message
        qos = self.qos
        if qos is not None and qos.limits_frames \
                and not isinstance(message, PROTECTED_MESSAGE_TYPES) \
                and src_id not in self.trusted:
            now = self.node.simulator.now
            client = self._account_for(src_id, now)
            reason = client.admit(now, 0.0, None, qos)
            if reason is not None:
                self._count_shed(src_id, reason, shard_id)
                return True
        node = self.node
        if envelope is not None:
            tenant = self._tenants.get(envelope.dst)
            if tenant is None:
                self.metrics.incr("net_frames_dropped")
                self.metrics.incr("shard_drop_unknown_tenant")
                return False
            node = tenant
            if shard_id:
                self.metrics.incr(f"shard_{shard_id}_frames")
        if node.crashed:
            self.metrics.incr("net_frames_dropped")
            self.metrics.incr("net_drop_node_crashed")
            return False
        node.messages_received += 1
        obs = node.simulator.obs
        try:
            if context is not None and obs is not None:
                obs.contexts_received += 1
                restore_context(obs, context,
                                node.on_message, (src_id, message))
            else:
                node.on_message(src_id, message)
        except Exception as exc:
            self.metrics.incr("net_handler_errors")
            self.errors.append((src_id, exc))
        return False

    def _account_for(self, principal: str, now: float) -> ClientAdmission:
        """The admission account charged for ``principal``'s traffic."""
        if self.ledger is not None:
            return self.ledger.account(principal, now)
        client = self._admission.get(principal)
        if client is None:
            assert self.qos is not None
            client = ClientAdmission(self.qos, now)
            self._admission[principal] = client
        return client

    def _count_shed(self, src_id: str, reason: str,
                    shard_id: str = "") -> None:
        self.shed_total += 1
        self.metrics.incr("qos_shed_total")
        self.metrics.incr(f"qos_shed_{reason}")
        self.metrics.incr(f"qos_shed_from_{src_id}")
        if shard_id:
            self.metrics.incr(f"qos_shed_shard_{shard_id}")

    def _reject(self, src_id: str, kind: str) -> None:
        """Count one malformed frame, split by layer, with attribution.

        The aggregate ``net_frames_rejected`` is retained (dashboards
        and older tests key on it); ``kind`` is ``framing`` (header-
        level garbage, connection closes), ``reference`` (a well-framed
        body naming something this connection never carried in full:
        the two ends' memories differ, connection closes) or ``body``
        (well-framed but undecodable payload, stream continues).  Under
        qos, rejects also burn the sender's admission tokens so repeat
        offenders shed themselves.
        """
        self.metrics.incr("net_frames_rejected")
        self.metrics.incr(f"net_frames_rejected_{kind}")
        self.metrics.incr(f"net_rejected_from_{src_id}")
        qos = self.qos
        if qos is not None and qos.limits_frames:
            self._account_for(src_id, self.node.simulator.now).strike()

    # -- the admin plane ---------------------------------------------------

    def status(self) -> StatusReply:
        """This listener's state (the :class:`StatusRequest` reply).

        Shed totals come from server-local state, not the metrics
        registry: the registry is shared across a deployment, so its
        ``qos_shed_*`` counters cannot be attributed to one node.
        """
        node = self.node
        pool = getattr(node.network, "pool", None)
        breakers: tuple[tuple[str, str], ...] = ()
        trips = 0
        if pool is not None:
            breakers = tuple(sorted(pool.breaker_states().items()))
            trips = pool.breaker_trips()
        shards: dict[str, list[str]] = {}
        unsharded: list[str] = []
        for hosted in self._tenants:
            shard_id = shard_of(hosted)
            if shard_id is None:
                unsharded.append(hosted)
            else:
                shards.setdefault(shard_id, []).append(hosted)
        buffered = dropped = contexts = 0
        obs = node.simulator.obs
        if obs is not None:
            buffer = obs.collector.buffers.get(node.node_id)
            buffered = len(buffer) if buffer is not None else 0
            dropped = obs.collector.dropped(node.node_id)
            contexts = obs.contexts_received
        return StatusReply(
            node_id=node.node_id, now=node.simulator.now,
            events_processed=node.simulator.events_processed,
            shed_total=self.shed_total, breakers=breakers,
            breaker_trips=trips,
            shards=tuple((shard_id, tuple(sorted(ids)))
                         for shard_id, ids in sorted(shards.items())),
            unsharded=tuple(sorted(unsharded)),
            spans_buffered=buffered, spans_dropped=dropped,
            contexts_received=contexts)

    def obs_dump(self, request: ObsDumpRequest) -> ObsDumpReply:
        """This node's most recent ``request.max_spans`` spans, oldest
        first; empty when no tracing runtime is attached."""
        node_id = self.node.node_id
        obs = self.node.simulator.obs
        if obs is None:
            return ObsDumpReply(node_id=node_id, spans=(), dropped=0)
        collector = obs.collector
        spans = collector.spans(node_id)
        spans = spans[max(0, len(spans) - request.max_spans):]
        reply = ObsDumpReply(
            node_id=node_id, spans=tuple(span_to_wire(s) for s in spans),
            dropped=collector.dropped(node_id))
        if request.clear:
            collector.clear(node_id)
        return reply

    def abort_connections(self) -> int:
        """Abort every accepted inbound connection; returns the count.

        A crashed host does not politely close its sockets -- peers see
        connections reset and must walk the redial path.
        """
        aborted = 0
        for connection in list(self._connections):
            connection.transport.abort()
            aborted += 1
        return aborted

    async def suspend(self) -> None:
        """Stop listening and reset inbound connections (node crash).

        Keeps ``self.port`` so :meth:`resume` can rebind the same
        endpoint -- peers redial the address they already know.
        """
        # Swap-then-await: a concurrent suspend/aclose interleaving at
        # wait_closed() must see the listener already relinquished.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self.abort_connections()

    async def resume(self) -> tuple[str, int]:
        """Rebind the previously bound (host, port) after a crash."""
        if self._server is not None:
            raise RuntimeError(f"{self.node.node_id} is already listening")
        return await self.start(self.host, self.port)

    async def aclose(self) -> None:
        """Shut down for good: what a crash does, never resumed."""
        await self.suspend()
