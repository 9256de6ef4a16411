"""Tests for the socket transport layer (repro.net.transport / server).

Covers the pieces below the protocol: address parsing, the retry
policy's backoff math, stream framing over real localhost TCP, the
connection pool's drop/retry/reconnect behaviour, and the node server's
resilience to hostile bytes -- a garbage frame must never kill a
listener, and a well-framed-but-malformed body must not desynchronise
the stream.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from typing import Any

import pytest

from repro.core.messages import AuditBatch, KeepAlive, ReadReply
from repro.metrics import MetricsRegistry
from repro.net import codec, transport
from repro.net import server as net_server
from repro.net.codec import NetHello, encode_frame, encode_value
from repro.net.errors import PeerUnknown, TruncatedFrame
from repro.net.peers import PeerDirectory
from repro.net.server import NodeServer, RealtimeScheduler, SocketNetwork
from repro.net.transport import (
    ConnectionPool,
    backoff,
    read_frame,
    write_frame,
)
from repro.sim.network import Node
from tests.test_net_codec import PLEDGE, STAMP, STAMPS, stamp_name


def run(coro, timeout: float = 20.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class RecordingNode(Node):
    """A protocol-free node that records what the server dispatches."""

    def __init__(self, node_id: str, scheduler: RealtimeScheduler,
                 network: SocketNetwork) -> None:
        super().__init__(node_id, scheduler, network)
        self.received: list[tuple[str, Any]] = []

    def on_message(self, src_id: str, message: Any) -> None:
        self.received.append((src_id, message))


class ExplodingNode(RecordingNode):
    def on_message(self, src_id: str, message: Any) -> None:
        super().on_message(src_id, message)
        raise RuntimeError("handler exploded")


class Harness:
    """One listening node plus the plumbing to reach it."""

    def __init__(self, node_cls: type = RecordingNode) -> None:
        loop = asyncio.get_running_loop()
        self.metrics = MetricsRegistry()
        self.scheduler = RealtimeScheduler(0, loop)
        self.peers = PeerDirectory()
        self.pool = ConnectionPool(
            "tester", self.peers, self.metrics,
            rng=random.Random(1))
        self.node = node_cls("target", self.scheduler,
                             SocketNetwork(self.scheduler, self.pool))
        self.server = NodeServer(self.node, self.metrics)

    async def start(self) -> None:
        host, port = await self.server.start()
        self.peers.add("target", host, port)

    async def raw_connection(self):
        host, port = self.peers.endpoint("target")
        return await asyncio.open_connection(host, port)

    async def wait_received(self, count: int, timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.node.received) < count:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"got {len(self.node.received)}/{count} messages")
            await asyncio.sleep(0.01)

    async def aclose(self) -> None:
        self.scheduler.cancel_all()
        await self.pool.aclose()
        await self.server.aclose()


# -- addresses -----------------------------------------------------------


class TestAddresses:
    def test_directory(self):
        peers = PeerDirectory()
        peers.add("a", "127.0.0.1", 1)
        assert peers.knows("a") and not peers.knows("b")
        assert peers.endpoint("a") == ("127.0.0.1", 1)
        assert len(peers) == 1
        with pytest.raises(PeerUnknown):
            peers.endpoint("b")
        peers.remove("a")
        assert not peers.knows("a")


# -- retry policy --------------------------------------------------------


def flat_backoff(monkeypatch, delay: float, attempts: int) -> None:
    """Every backoff ``delay`` exactly, ``attempts`` a batch."""
    monkeypatch.setattr(transport, "BACKOFF_BASE", delay)
    monkeypatch.setattr(transport, "BACKOFF_MULTIPLIER", 1.0)
    monkeypatch.setattr(transport, "BACKOFF_JITTER", 0.0)
    monkeypatch.setattr(transport, "MAX_ATTEMPTS", attempts)


class TestRetryPolicy:
    def test_exponential_growth_capped(self, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(transport, "BACKOFF_MAX", 0.5)
        monkeypatch.setattr(transport, "BACKOFF_JITTER", 0.0)
        rng = random.Random(0)
        delays = [backoff(a, rng) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounds(self, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(transport, "BACKOFF_MULTIPLIER", 1.0)
        rng = random.Random(7)
        for attempt in range(50):
            delay = backoff(attempt, rng)
            assert 0.1 <= delay <= 0.1 * 1.5

    def test_deterministic_given_seed(self):
        a = [backoff(i, random.Random(3)) for i in range(4)]
        b = [backoff(i, random.Random(3)) for i in range(4)]
        assert a == b


# -- stream framing over real TCP ---------------------------------------


@pytest.mark.net
class TestStreamFraming:
    def test_write_then_read(self):
        async def scenario():
            server_got: list[Any] = []

            async def handle(reader, writer):
                value, size = await read_frame(reader, timeout=2.0)
                server_got.append((value, size))
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            _reader, writer = await asyncio.open_connection(host, port)
            sent = await write_frame(writer, {"k": [1, 2.5, "v"]}, 2.0)
            await asyncio.sleep(0.1)
            server.close()
            await server.wait_closed()
            writer.close()
            (value, size), = server_got
            assert value == {"k": [1, 2.5, "v"]}
            assert size == sent

        run(scenario())

    def test_eof_before_header_is_connection_error(self):
        async def scenario():
            async def handle(reader, writer):
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            with pytest.raises(ConnectionError):
                await read_frame(reader, timeout=2.0)
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_eof_mid_frame_is_truncated(self):
        async def scenario():
            async def handle(reader, writer):
                writer.write(encode_frame([1, 2, 3])[:-2])
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, _writer = await asyncio.open_connection(host, port)
            with pytest.raises(TruncatedFrame):
                await read_frame(reader, timeout=2.0)
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_read_timeout(self):
        async def scenario():
            async def handle(reader, writer):
                await asyncio.sleep(5.0)

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, _writer = await asyncio.open_connection(host, port)
            with pytest.raises(asyncio.TimeoutError):
                await read_frame(reader, timeout=0.1)
            server.close()
            await server.wait_closed()

        run(scenario())


# -- connection pool -----------------------------------------------------


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestConnectionPool:
    def test_delivery_and_metrics(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", {"n": 1})
                h.pool.send("target", {"n": 2})
                await h.wait_received(2)
                assert [msg for _src, msg in h.node.received] == \
                    [{"n": 1}, {"n": 2}]
                assert all(src == "tester" for src, _ in h.node.received)
                snap = h.metrics.snapshot()
                assert snap["net_connects"] == 1  # one connection, reused
                assert snap["net_frames_sent"] == 2
                assert snap["net_frames_received"] == 2
                assert snap["net_bytes_sent"] > 0
            finally:
                await h.aclose()

        run(scenario())

    def test_unknown_peer_dropped(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("nobody", {"n": 1})
                snap = h.metrics.snapshot()
                assert snap["net_unknown_peer"] == 1
                assert snap["net_frames_dropped"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_killed_connection_redials(self):
        """asyncio discards a write to an aborted transport without a
        word, so the synchronous flush must notice the dead connection
        *before* writing: every message is delivered exactly once, over
        the retry path, and nothing is dropped."""
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", "before")
                await h.wait_received(1)
                assert h.pool.kill_connection("target")
                h.pool.send("target", "after-1")
                h.pool.send("target", "after-2")
                await h.wait_received(3)
                await asyncio.sleep(0.05)  # a duplicate would land here
                assert [msg for _src, msg in h.node.received] == \
                    ["before", "after-1", "after-2"]
                snap = h.metrics.snapshot()
                assert snap["net_connects"] == 2
                assert snap["net_retries"] == 1
                assert snap["net_frames_sent"] == 3
                assert snap.get("net_frames_dropped", 0) == 0
            finally:
                await h.aclose()

        run(scenario())

    def test_send_after_peer_fin_redials_or_is_counted(self):
        """A peer that closes cleanly leaves the transport writable and
        the kernel takes one more write that nobody reads.  The flush
        must see the FIN first: the next send is delivered over a fresh
        connection or counted as a drop -- never neither."""
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", "before")
                await h.wait_received(1)
                for connection in list(h.server._connections):
                    connection.transport.close()  # FIN, not RST
                await asyncio.sleep(0.05)  # let the FIN arrive
                h.pool.send("target", "after-1")
                h.pool.send("target", "after-2")
                await asyncio.sleep(0.3)
                delivered = [msg for _src, msg in h.node.received][1:]
                snap = h.metrics.snapshot()
                assert len(delivered) + snap.get("net_frames_dropped", 0) == 2
                # With the listener still up, that means delivered.
                assert delivered == ["after-1", "after-2"]
                assert snap["net_connects"] == 2
                assert snap["net_retries"] == 1
                assert snap["net_frames_sent"] == 3
            finally:
                await h.aclose()

        run(scenario())

    def test_kill_without_connection_is_noop(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                assert not h.pool.kill_connection("target")
            finally:
                await h.aclose()

        run(scenario())

    def test_retries_exhausted_drops_frame(self):
        async def scenario():
            h = Harness()
            await h.start()
            # Point the peer entry at a dead port.
            host, port = h.peers.endpoint("target")
            await h.server.aclose()
            try:
                h.pool.send("target", "into the void")
                deadline = asyncio.get_running_loop().time() + 5.0
                while not h.metrics.snapshot().get("net_frames_dropped"):
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("frame never dropped")
                    await asyncio.sleep(0.02)
                snap = h.metrics.snapshot()
                assert snap["net_retries"] == 3  # max_attempts
                assert snap["net_connect_failures"] == 3
                assert snap.get("net_frames_sent", 0) == 0
            finally:
                await h.aclose()

        run(scenario())

    def test_drop_reasons_split_from_aggregate(self):
        async def scenario():
            h = Harness()
            await h.start()
            await h.server.aclose()  # dead port: retries will exhaust
            try:
                h.pool.send("nobody", {"n": 1})
                h.pool.send("target", "into the void")
                deadline = asyncio.get_running_loop().time() + 5.0
                while h.metrics.snapshot().get(
                        "net_frames_dropped", 0) < 2:
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("drops never counted")
                    await asyncio.sleep(0.02)
                snap = h.metrics.snapshot()
                # The aggregate stays (dashboards key on it) and every
                # drop also lands on exactly one per-reason counter.
                assert snap["net_frames_dropped"] == 2
                assert snap["net_drop_unknown_peer"] == 1
                assert snap["net_drop_retries_exhausted"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_no_backoff_sleep_after_final_attempt(self, fast_retries):
        # Two attempts, a long flat backoff: exactly one 0.4s sleep
        # should happen (between the attempts), none after the last.
        flat_backoff(fast_retries, 0.4, attempts=2)

        async def scenario():
            h = Harness()
            await h.start()
            await h.server.aclose()
            try:
                t0 = asyncio.get_running_loop().time()
                h.pool.send("target", "goodbye")
                deadline = t0 + 5.0
                while not h.metrics.snapshot().get("net_frames_dropped"):
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("frame never dropped")
                    await asyncio.sleep(0.02)
                elapsed = asyncio.get_running_loop().time() - t0
                assert elapsed < 0.75, \
                    f"terminal backoff sleep still present ({elapsed:.2f}s)"
                assert h.metrics.snapshot()["net_connect_failures"] == 2
            finally:
                await h.aclose()

        run(scenario())

    def test_server_restart_heals(self):
        async def scenario():
            h = Harness()
            await h.start()
            host, port = h.peers.endpoint("target")
            await h.server.aclose()
            try:
                h.pool.send("target", "during outage")
                await asyncio.sleep(0.02)  # let the first dial fail
                # Rebind the same port and watch the retry deliver.
                await h.server.start(host, port)
                await h.wait_received(1)
                assert h.node.received[0][1] == "during outage"
                assert h.metrics.snapshot()["net_retries"] >= 1
            finally:
                await h.aclose()

        run(scenario())


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestFlushHandOver:
    """``send`` order is delivery order, whichever of the synchronous
    flush and the recovery task wrote each message."""

    @staticmethod
    def numbered(h: Harness) -> list[int]:
        return [msg["n"] for _src, msg in h.node.received]

    def test_sends_while_dialling_keep_their_order(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                for n in range(5):
                    h.pool.send("target", {"n": n})
                await asyncio.sleep(0)  # the flush ran: a task is dialling
                peer = h.pool._peers["target"]
                assert peer.task is not None and peer.writer is None
                for n in range(5, 10):
                    h.pool.send("target", {"n": n})
                await h.wait_received(10)
                assert self.numbered(h) == list(range(10))
                assert peer.task is None  # the peer was handed back
                # ... and the next send needs no task at all.
                h.pool.send("target", {"n": 10})
                await asyncio.sleep(0)
                assert peer.task is None and not peer.backlog
                await h.wait_received(11)
                assert h.metrics.snapshot()["net_connects"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_sends_during_backoff_keep_their_order(self, fast_retries):
        flat_backoff(fast_retries, 0.15, attempts=5)

        async def scenario():
            h = Harness()
            await h.start()
            host, port = h.peers.endpoint("target")
            await h.server.aclose()
            try:
                h.pool.send("target", {"n": 0})
                while not h.metrics.snapshot().get("net_retries"):
                    await asyncio.sleep(0.005)
                # The task is asleep between attempts; these only queue.
                h.pool.send("target", {"n": 1})
                h.pool.send("target", {"n": 2})
                await h.server.start(host, port)
                await h.wait_received(3)
                assert self.numbered(h) == [0, 1, 2]
                assert h.metrics.snapshot().get("net_frames_dropped", 0) == 0
            finally:
                await h.aclose()

        run(scenario())

    def test_sends_while_blocked_on_drain_keep_their_order(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", {"n": 0})
                await h.wait_received(1)
                # The listener stops reading: the socket buffers fill,
                # the transport's write buffer backs up, and the next
                # flush has to wait in drain().
                (inbound,) = h.server._connections
                inbound.transport.pause_reading()
                pad = b"x" * (1 << 20)
                for n in range(1, 25):
                    h.pool.send("target", {"n": n, "pad": pad})
                await asyncio.sleep(0)  # synchronous flush: partly written
                peer = h.pool._peers["target"]
                assert peer.writer.transport.get_write_buffer_size() > 0
                h.pool.send("target", {"n": 25})
                await asyncio.sleep(0)
                assert peer.task is not None  # parked on the write buffer
                for n in range(26, 30):
                    h.pool.send("target", {"n": n})
                await asyncio.sleep(0.05)
                assert len(h.node.received) == 1
                inbound.transport.resume_reading()
                await h.wait_received(30)
                assert self.numbered(h) == list(range(30))
                snap = h.metrics.snapshot()
                assert snap.get("net_frames_dropped", 0) == 0
                assert snap["net_connects"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_unencodable_message_is_dropped_not_wedging_the_peer(self):
        """An unregistered type, or one message over the frame limit,
        used to kill the sender task: every later send to that peer then
        queued in silence with no drop counted."""
        async def scenario():
            h = Harness()
            await h.start()
            try:
                # Recovery-task path: all three queue behind the dial.
                h.pool.send("target", {"a": 1})
                h.pool.send("target", object())
                h.pool.send("target", {"b": 2})
                await h.wait_received(2)
                # Synchronous path: the connection is up.
                h.pool.send("target", {"a": 3})
                h.pool.send("target", object())
                h.pool.send("target", "x" * (codec.MAX_FRAME_BYTES + 1))
                # A tick's pledges that together outgrow a frame: lost
                # like any shed frame, but never without a count.
                fat = dataclasses.replace(
                    PLEDGE, query_wire="q" * (codec.MAX_FRAME_BYTES // 2))
                h.pool.send("target", AuditBatch(pledges=(fat, fat, fat)))
                h.pool.send("target", {"b": 4})
                await h.wait_received(4)
                assert h.pool._peers["target"].task is None
                assert [msg for _src, msg in h.node.received] == \
                    [{"a": 1}, {"b": 2}, {"a": 3}, {"b": 4}]
                snap = h.metrics.snapshot()
                assert snap["net_frames_dropped"] == 4
                assert snap["net_drop_unencodable"] == 4
                assert snap["net_frames_sent"] == 4
            finally:
                await h.aclose()

        run(scenario())


# -- what a connection remembers -------------------------------------------

REPLY = ReadReply(request_id=PLEDGE.request_id, result={"value": 7},
                  pledge=PLEDGE)
STAMP_IN_FULL = encode_value(STAMP)
STAMP_BY_NAME = b"r" + stamp_name(STAMP)


def written_to(pool: ConnectionPool) -> list[tuple[str, list[Any], bytes]]:
    """``(destination, messages, bytes)`` for every flush ``pool`` hands
    a socket from here on, in order."""
    written: list[tuple[str, list[Any], bytes]] = []
    encode = pool._encode

    def recording(dst_id: str, batch: list[Any], context: Any) -> bytes:
        payload = encode(dst_id, batch, context)
        written.append((dst_id, list(batch), payload))
        return payload

    pool._encode = recording  # type: ignore[method-assign]
    return written


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestConnectionContext:
    """The sending half of a connection's memory lives in its ``_Peer``
    beside the writer, the receiving half in the accepted
    ``_Connection``: born with the dial, gone with the connection."""

    def test_unencodable_third_message_leaves_the_context_alone(self):
        """The coalesced frame fails at its third message, *after* it
        defined a stamp and referred to it: the per-message fallback
        must start from what the connection knew before the flush, or
        its first frame refers to a stamp the far end never saw."""
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", KeepAlive(stamp=STAMPS[0]))
                await h.wait_received(1)
                peer = h.pool._peers["target"]
                before = peer.context.stamps
                at_fallback = []
                encode_each = h.pool._encode_each

                def spying(*args: Any) -> bytes:
                    at_fallback.append(peer.context.stamps)
                    return encode_each(*args)

                h.pool._encode_each = spying  # type: ignore[method-assign]
                h.pool.send("target", KeepAlive(stamp=STAMP))
                h.pool.send("target", REPLY)
                h.pool.send("target", object())
                await h.wait_received(3)
                assert at_fallback == [before] and at_fallback[0] is before
                assert [msg for _src, msg in h.node.received[1:]] == \
                    [KeepAlive(stamp=STAMP), REPLY]
                remembered = [stamp_name(STAMPS[0]), stamp_name(STAMP)]
                assert list(peer.context.stamps) == remembered
                (connection,) = h.server._connections
                assert list(connection._context.stamps) == remembered
                snap = h.metrics.snapshot()
                assert snap["net_drop_unencodable"] == 1
                assert snap["net_frames_sent"] == 3
                assert snap.get("net_frames_rejected", 0) == 0
            finally:
                await h.aclose()

        run(scenario())

    @pytest.mark.parametrize("how", ["kill_connection", "clean FIN"])
    def test_a_redial_starts_from_nothing_on_both_sides(self, how):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                flushes = written_to(h.pool)
                h.pool.send("target", REPLY)
                await h.wait_received(1)
                h.pool.send("target", REPLY)
                await h.wait_received(2)
                first = h.pool._peers["target"].context
                if how == "kill_connection":
                    assert h.pool.kill_connection("target")
                else:
                    for connection in list(h.server._connections):
                        connection.transport.close()  # FIN, not RST
                    await asyncio.sleep(0.05)  # let the FIN arrive
                h.pool.send("target", REPLY)
                await h.wait_received(3)
                h.pool.send("target", REPLY)
                await h.wait_received(4)
                # In full, by name; and again after the redial.
                written = [payload for _dst, _batch, payload in flushes]
                assert [STAMP_IN_FULL in payload for payload in written] \
                    == [True, False, True, False]
                assert [STAMP_BY_NAME in payload for payload in written] \
                    == [False, True, False, True]
                assert len(written[0]) == len(written[2]) \
                    == len(written[1]) + 40
                assert h.pool._peers["target"].context is not first
                assert [msg for _src, msg in h.node.received] == [REPLY] * 4
                snap = h.metrics.snapshot()
                assert snap["net_connects"] == 2
                assert snap.get("net_frames_rejected", 0) == 0
                assert snap.get("net_frames_dropped", 0) == 0
            finally:
                await h.aclose()

        run(scenario())


# -- node server resilience ----------------------------------------------


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestNodeServerResilience:
    async def _hello(self, writer, node_id: str = "tester") -> None:
        writer.write(encode_frame(NetHello(node_id=node_id)))
        await writer.drain()

    def test_bad_body_skipped_stream_survives(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                _reader, writer = await h.raw_connection()
                await self._hello(writer)
                # Well-framed garbage: unknown extension id 29.
                bad_body = (bytes((codec._T_EXT,))
                            + codec._encode_varint(29))
                header = codec._HEADER.pack(codec.MAGIC,
                                            codec.WIRE_VERSION, 0,
                                            len(bad_body))
                writer.write(header + bad_body)
                writer.write(encode_frame("still alive"))
                await writer.drain()
                await h.wait_received(1)
                assert h.node.received == [("tester", "still alive")]
                assert h.metrics.snapshot()["net_frames_rejected"] == 1
                writer.close()
            finally:
                await h.aclose()

        run(scenario())

    def test_framing_garbage_closes_connection(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                reader, writer = await h.raw_connection()
                await self._hello(writer)
                writer.write(b"GARBAGE-NOT-A-FRAME-" * 4)
                await writer.drain()
                assert await reader.read() == b""  # server hung up
                assert h.metrics.snapshot()["net_frames_rejected"] == 1
                assert h.node.received == []
            finally:
                await h.aclose()

        run(scenario())

    def test_oversized_frame_closes_connection(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                reader, writer = await h.raw_connection()
                await self._hello(writer)
                header = codec._HEADER.pack(
                    codec.MAGIC, codec.WIRE_VERSION, 0,
                    codec.MAX_FRAME_BYTES + 1)
                writer.write(header)
                await writer.drain()
                assert await reader.read() == b""
                assert h.metrics.snapshot()["net_frames_rejected"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_handshake_requires_hello(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                reader, writer = await h.raw_connection()
                writer.write(encode_frame("not a hello"))
                await writer.drain()
                assert await reader.read() == b""
                snap = h.metrics.snapshot()
                assert snap["net_handshakes_rejected"] == 1
                assert h.node.received == []
            finally:
                await h.aclose()

        run(scenario())

    def test_silence_past_the_handshake_deadline_is_refused(
            self, fast_retries):
        fast_retries.setattr(net_server, "HANDSHAKE_TIMEOUT", 0.1)

        async def scenario():
            h = Harness()
            await h.start()
            try:
                reader, _writer = await h.raw_connection()
                # Say nothing: the listener hangs up at the deadline.
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                snap = h.metrics.snapshot()
                assert snap["net_handshakes_rejected"] == 1
                assert snap["net_timeouts"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_handshake_rejects_wrong_wire_version(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                reader, writer = await h.raw_connection()
                body = encode_value(NetHello(node_id="tester",
                                             wire_version=99))
                writer.write(codec._HEADER.pack(
                    codec.MAGIC, codec.WIRE_VERSION, 0, len(body)) + body)
                await writer.drain()
                assert await reader.read() == b""
                assert h.metrics.snapshot()["net_handshakes_rejected"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_handshake_refuses_a_version_2_peer(self):
        """A version-2 peer would send a whole pledge where this one
        expects a seal: refused at the hello, whichever header byte it
        is framed under, and nothing it sent is delivered."""
        assert codec.WIRE_VERSION == 7

        async def scenario():
            h = Harness()
            await h.start()
            try:
                body = encode_value(NetHello(node_id="tester",
                                             wire_version=2))
                for header_version in (2, codec.WIRE_VERSION):
                    reader, writer = await h.raw_connection()
                    writer.write(codec._HEADER.pack(
                        codec.MAGIC, header_version, 0, len(body)) + body
                        + encode_frame("after the hello"))
                    await writer.drain()
                    assert await reader.read() == b""
                assert h.metrics.snapshot()["net_handshakes_rejected"] == 2
                assert h.node.received == []
            finally:
                await h.aclose()

        run(scenario())

    def test_handler_exception_captured_not_fatal(self):
        async def scenario():
            h = Harness(node_cls=ExplodingNode)
            await h.start()
            try:
                _reader, writer = await h.raw_connection()
                await self._hello(writer)
                writer.write(encode_frame("boom"))
                writer.write(encode_frame("boom again"))
                await writer.drain()
                await h.wait_received(2)
                assert h.metrics.snapshot()["net_handler_errors"] == 2
                assert len(h.server.errors) == 2
                src, exc = h.server.errors[0]
                assert src == "tester"
                assert isinstance(exc, RuntimeError)
                writer.close()
            finally:
                await h.aclose()

        run(scenario())

    def test_crashed_node_drops_frames(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.node.crashed = True
                _reader, writer = await h.raw_connection()
                await self._hello(writer)
                writer.write(encode_frame("while down"))
                await writer.drain()
                await asyncio.sleep(0.1)
                assert h.node.received == []
                assert h.metrics.snapshot()["net_frames_dropped"] == 1
                writer.close()
            finally:
                await h.aclose()

        run(scenario())


# -- realtime scheduler --------------------------------------------------


def record_call_at(loop: asyncio.AbstractEventLoop) -> list[asyncio.TimerHandle]:
    """Record every timer armed through ``loop.call_at`` from now on."""
    armed: list[asyncio.TimerHandle] = []
    original = loop.call_at

    def call_at(when: float, callback: Any, *args: Any,
                **kwargs: Any) -> asyncio.TimerHandle:
        timer = original(when, callback, *args, **kwargs)
        armed.append(timer)
        return timer

    loop.call_at = call_at  # type: ignore[method-assign]
    return armed


class TestRealtimeScheduler:
    def test_timers_fire_and_cancel(self):
        async def scenario():
            sched = RealtimeScheduler(0, asyncio.get_running_loop())
            fired: list[str] = []
            sched.schedule(0.01, fired.append, "a")
            doomed = sched.schedule(0.01, fired.append, "never")
            doomed.cancel()
            # Negative delays are clamped, not rejected (real time moves
            # during handlers).
            sched.schedule(-0.001, fired.append, "asap")
            await asyncio.sleep(0.1)
            assert sorted(fired) == ["a", "asap"]
            assert sched.pending_events() == 0
            assert sched.events_processed == 2

        run(scenario())

    def test_cancelled_timers_are_not_retained(self):
        """Every accepted read cancels its request timeout: a cancelled
        entry that stayed queued until it would have fired was one
        retained object per read and an O(all reads) shutdown."""
        async def scenario():
            sched = RealtimeScheduler(0, asyncio.get_running_loop())
            for _ in range(10_000):
                sched.schedule(2.0, lambda: None).cancel()
            assert sched.pending_events() == 0
            assert len(sched._queue) < RealtimeScheduler.COMPACT_FLOOR
            keeper = sched.schedule(2.0, lambda: None)
            assert sched.pending_events() == 1
            keeper.cancel()
            keeper.cancel()  # idempotent
            assert sched.pending_events() == 0
            # Shutdown walks what is left, not what was ever scheduled.
            assert len(sched._queue) <= RealtimeScheduler.COMPACT_FLOOR
            sched.cancel_all()
            assert not sched._queue

        run(scenario())

    def test_equal_deadlines_fire_in_scheduling_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sched = RealtimeScheduler(0, loop)
            fired: list[int] = []
            frozen = loop.time()
            loop.time = lambda: frozen  # one deadline for all of them
            try:
                for i in range(50):
                    sched.schedule(0.01, fired.append, i)
            finally:
                del loop.time
            assert len({entry[0] for entry in sched._queue}) == 1
            await asyncio.sleep(0.05)
            assert fired == list(range(50))

        run(scenario())

    def test_a_raising_callback_is_reported_and_the_drain_goes_on(self):
        from tests.conftest import recorded_loop_errors

        def boom() -> None:
            raise RuntimeError("timer exploded")

        async def scenario():
            sched = RealtimeScheduler(0, asyncio.get_running_loop())
            fired: list[str] = []
            sched.schedule(0.01, boom)
            sched.schedule(0.01, fired.append, "next")
            await asyncio.sleep(0.05)
            assert fired == ["next"]

        with recorded_loop_errors() as swallowed:
            run(scenario())
        assert [str(context["exception"]) for context in swallowed] \
            == ["timer exploded"]
        assert "boom" in swallowed[0]["message"]  # names the callback

    @pytest.mark.parametrize("tick", [0.0, 0.016])
    def test_zero_delay_from_a_callback_waits_for_a_later_iteration(
            self, tick):
        """What the slave's reply batching relies on: work queued with
        ``call_soon`` by a timer callback runs before a zero-delay timer
        the same callback set, as with ``call_later(0)`` -- also on a
        clock as coarse as Windows' (``tick``), where that timer's
        deadline is the one being drained."""
        async def scenario():
            loop = asyncio.get_running_loop()
            if tick:
                fine = loop.time
                loop.time = lambda: fine() // tick * tick
            sched = RealtimeScheduler(0, loop)
            order: list[str] = []

            def first() -> None:
                order.append("timer")
                sched.schedule(0.0, order.append, "zero-delay timer")
                loop.call_soon(order.append, "call_soon")

            try:
                sched.schedule(0.0, first)
                await asyncio.sleep(0.05)
            finally:
                if tick:
                    del loop.time
            assert order == ["timer", "call_soon", "zero-delay timer"]

        run(scenario())

    def test_an_earlier_event_rearms_the_loop_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            armed = record_call_at(loop)
            sched = RealtimeScheduler(0, loop)
            fired: list[str] = []
            sched.schedule(30.0, fired.append, "late")
            sched.schedule(40.0, fired.append, "later")
            assert len(armed) == 1  # a later event is a heap push
            sched.schedule(0.01, fired.append, "early")
            assert len(armed) == 2 and armed[0].cancelled()
            await asyncio.sleep(0.05)
            assert fired == ["early"]
            sched.cancel_all()

        run(scenario())

    def test_cancel_all_leaves_no_loop_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            armed = record_call_at(loop)
            sched = RealtimeScheduler(0, loop)
            for delay in (5.0, 1.0, 0.5, 3.0):
                sched.schedule(delay, lambda: None)
            assert armed
            sched.cancel_all()
            assert all(timer.cancelled() for timer in armed)
            assert sched.pending_events() == 0

        run(scenario())

    def test_stepping_disabled(self):
        async def scenario():
            sched = RealtimeScheduler(0, asyncio.get_running_loop())
            with pytest.raises(RuntimeError):
                sched.run_until(10.0)
            with pytest.raises(RuntimeError):
                sched.run_to_completion()

        run(scenario())

    def test_fork_rng_matches_simulator(self):
        from repro.sim.simulator import Simulator

        async def scenario():
            sched = RealtimeScheduler(42, asyncio.get_running_loop())
            sim = Simulator(42)
            a = sched.fork_rng("keys:owner").random()
            b = sim.fork_rng("keys:owner").random()
            assert a == b

        run(scenario())

    def test_cancel_all(self):
        async def scenario():
            sched = RealtimeScheduler(0, asyncio.get_running_loop())
            fired: list[int] = []
            for i in range(5):
                sched.schedule(0.01, fired.append, i)
            sched.cancel_all()
            await asyncio.sleep(0.05)
            assert fired == []
            assert sched.pending_events() == 0

        run(scenario())


# -- server lifecycle (suspend/resume, used by chaos crash/restart) ------


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestServerLifecycle:
    def test_suspend_refuses_new_connections(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", "up")
                await h.wait_received(1)
                await h.server.suspend()
                host, port = h.peers.endpoint("target")
                with pytest.raises(ConnectionError):
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    # Some platforms accept then reset; force the issue.
                    writer.write(b"x")
                    await writer.drain()
                    await reader.read(1)
                    raise ConnectionError("half-open")
            finally:
                await h.aclose()

        run(scenario())

    def test_resume_rebinds_same_port(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                before = h.peers.endpoint("target")
                await h.server.suspend()
                host, port = await h.server.resume()
                assert (host, port) == before
                h.pool.send("target", "after reboot")
                await h.wait_received(1)
                with pytest.raises(RuntimeError):
                    await h.server.resume()  # already listening
            finally:
                await h.aclose()

        run(scenario())

    def test_abort_connections_resets_inbound(self):
        async def scenario():
            h = Harness()
            await h.start()
            try:
                h.pool.send("target", "hello")
                await h.wait_received(1)
                assert h.server.abort_connections() == 1
                await asyncio.sleep(0.05)
                assert h.server.abort_connections() == 0
            finally:
                await h.aclose()

        run(scenario())


# -- the suite's own safety net (tests/conftest.py) -----------------------


class TestLoopErrorRecorder:
    def test_records_what_the_loop_would_only_log(self):
        from tests.conftest import recorded_loop_errors

        class Broken(asyncio.Protocol):
            def data_received(self, data: bytes) -> None:
                raise RuntimeError("bug in data_received")

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_soon(lambda: 1 / 0)
            server = await loop.create_server(Broken, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            _reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x")
            await asyncio.sleep(0.05)
            writer.close()
            server.close()
            await server.wait_closed()

        with recorded_loop_errors() as swallowed:
            run(scenario())
        assert sorted(type(context["exception"]).__name__
                      for context in swallowed) == \
            ["RuntimeError", "ZeroDivisionError"]
