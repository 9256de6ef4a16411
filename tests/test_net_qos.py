"""Integration tests for wire-level admission control (repro.qos).

Drives a real listening :class:`NodeServer` (and, for the breaker, a
real :class:`ConnectionPool`) over localhost TCP and checks the
serving-plane overload behaviour end to end:

* the idle-connection reaper aborts handshaked-but-silent peers;
* per-client token buckets shed over-quota frames deterministically,
  with every shed attributed per reason and per client;
* a shed stalls the offending connection only, and what it sent during
  the stall is served afterwards in order;
* keep-alives and accusations are NEVER shed, whatever the budget, and
  never wait: they reach the handler before the callback that decoded
  them returns, bare or inside a shard envelope;
* malformed frames land on split ``framing``/``body`` counters and
  burn the sender's admission tokens (strikes);
* the per-peer circuit breaker opens after consecutive delivery
  failures, fast-fails while open, and heals through a half-open probe;
* a ``StatusRequest`` scrapes the listener's admission state inline,
  traced or not, on a bare listener and on a deployed master.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import messages as m
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.codec import NetHello, encode_frame
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.net.peers import PeerDirectory
from repro.net.server import (
    NodeServer,
    RealtimeScheduler,
    SocketNetwork,
    _Connection,
)
from repro.net.transport import ConnectionPool, RetryPolicy, read_frame
from repro.obs.admin import StatusReply, StatusRequest
from repro.qos.breaker import BreakerPolicy
from repro.qos.tokens import AdmissionPolicy
from repro.shard.wire import ShardEnvelope

from .test_net_inbound import StandInTransport
from .test_net_transport import RecordingNode, run

MASTER = KeyPair("master-00", new_signer("hmac", random.Random(1)))
SLAVE = KeyPair("slave-00-00", new_signer("hmac", random.Random(2)))
STAMP = m.VersionStamp.make(MASTER, version=3, timestamp=12.5)
PLEDGE = m.Pledge.make(SLAVE, {"kind": "kv_get", "key": "k1"},
                       "ab" * 20, STAMP, request_id="req-7")


class QosHarness:
    """A listening node with an admission policy, plus raw TCP access."""

    def __init__(self, qos: AdmissionPolicy | None,
                 breaker: BreakerPolicy | None = None) -> None:
        loop = asyncio.get_running_loop()
        self.metrics = MetricsRegistry()
        self.scheduler = RealtimeScheduler(0, loop)
        self.peers = PeerDirectory()
        self.pool = ConnectionPool(
            "tester", self.peers, self.metrics, rng=random.Random(1),
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05,
                              max_attempts=2),
            breaker=breaker)
        self.node = RecordingNode("target", self.scheduler,
                                  SocketNetwork(self.scheduler, self.pool))
        self.server = NodeServer(self.node, self.metrics,
                                 handshake_timeout=1.0, qos=qos)

    async def start(self) -> None:
        host, port = await self.server.start()
        self.peers.add("target", host, port)

    async def raw_connection(self, node_id: str = "tester"):
        host, port = self.peers.endpoint("target")
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(NetHello(node_id=node_id)))
        await writer.drain()
        return reader, writer

    async def wait_received(self, count: int, timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.node.received) < count:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"got {len(self.node.received)}/{count} messages")
            await asyncio.sleep(0.01)

    async def wait_counter(self, name: str, value: float,
                           timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while self.metrics.snapshot().get(name, 0) < value:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"{name} stuck at "
                    f"{self.metrics.snapshot().get(name, 0)} < {value}")
            await asyncio.sleep(0.01)

    async def aclose(self) -> None:
        self.scheduler.cancel_all()
        await self.pool.aclose()
        await self.server.aclose()


@pytest.mark.net
class TestWireAdmission:
    def test_idle_connection_reaped(self):
        async def scenario():
            h = QosHarness(AdmissionPolicy(idle_timeout=0.25))
            await h.start()
            try:
                reader, writer = await h.raw_connection()
                writer.write(encode_frame("warm"))
                await writer.drain()
                await h.wait_received(1)
                # Then silence: the reaper aborts us within the window.
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                snap = h.metrics.snapshot()
                assert snap["net_timeouts"] == 1
                assert snap["qos_shed_idle"] == 1
                assert snap["qos_shed_from_tester"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_rate_limit_sheds_over_quota_frames(self):
        async def scenario():
            h = QosHarness(AdmissionPolicy(frame_rate=1.0, frame_burst=2.0))
            await h.start()
            try:
                _reader, writer = await h.raw_connection()
                for index in range(6):
                    writer.write(encode_frame(f"req-{index}"))
                await writer.drain()
                # Burst of 2 admitted; the other 4 shed, attributed.
                await h.wait_received(2)
                await h.wait_counter("qos_shed_total", 4)
                snap = h.metrics.snapshot()
                assert snap["qos_shed_rate"] == 4
                assert snap["qos_shed_from_tester"] == 4
                assert h.server.shed_total == 4
                assert [msg for _src, msg in h.node.received] \
                    == ["req-0", "req-1"]
            finally:
                await h.aclose()

        run(scenario())

    def test_shed_penalty_stalls_only_the_offender(self):
        async def scenario():
            penalty = 0.4
            h = QosHarness(AdmissionPolicy(frame_rate=20.0, frame_burst=2.0,
                                           shed_penalty=penalty))
            await h.start()
            try:
                loop = asyncio.get_running_loop()
                _reader, offender = await h.raw_connection("offender")
                _reader2, bystander = await h.raw_connection("bystander")
                # One segment: a0 and a1 spend the burst, a2 is shed and
                # stalls the connection with a3 already off the socket.
                offender.write(b"".join(
                    encode_frame(f"a{n}") for n in range(4)))
                await offender.drain()
                await h.wait_counter("qos_shed_rate", 1)
                stalled_at = loop.time()
                # Sent into the stall: waits in the socket buffer.
                offender.write(encode_frame("a4"))
                await offender.drain()
                # Everyone else is served meanwhile.
                bystander.write(encode_frame("b0"))
                await bystander.drain()
                await h.wait_received(3)
                assert loop.time() - stalled_at < penalty / 2
                assert h.node.received == [("offender", "a0"),
                                           ("offender", "a1"),
                                           ("bystander", "b0")]
                # The stall over (and the bucket refilled), what arrived
                # during it is served in arrival order.
                await h.wait_received(5)
                assert loop.time() - stalled_at >= penalty * 0.9
                assert h.node.received[3:] == [("offender", "a3"),
                                               ("offender", "a4")]
                snap = h.metrics.snapshot()
                assert snap["qos_shed_total"] == 1
                assert snap["qos_shed_from_offender"] == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_protected_messages_never_shed(self):
        async def scenario():
            # A starvation budget: one frame of burst, trickle refill.
            h = QosHarness(AdmissionPolicy(frame_rate=0.1, frame_burst=1.0))
            await h.start()
            try:
                keepalive = m.KeepAlive(stamp=STAMP)
                accusation = m.Accusation(pledge=PLEDGE,
                                          discovery="immediate")
                _reader, writer = await h.raw_connection()
                for message in ("plain-0", keepalive, "plain-1",
                                keepalive, accusation, "plain-2"):
                    writer.write(encode_frame(message))
                await writer.drain()
                # plain-0 spends the burst; plain-1/2 shed; every
                # keep-alive and the accusation goes through regardless.
                await h.wait_received(4)
                await h.wait_counter("qos_shed_rate", 2)
                got = [msg for _src, msg in h.node.received]
                assert got == ["plain-0", keepalive, keepalive, accusation]
            finally:
                await h.aclose()

        run(scenario())

    @pytest.mark.parametrize("enveloped", [False, True],
                             ids=["bare", "enveloped"])
    def test_protected_messages_dispatched_before_data_received_returns(
            self, enveloped):
        """Admission on, a keep-alive and an accusation reach the
        tenant's handler inside the callback that decoded them: nothing
        queues between decode and dispatch for them to wait in."""
        async def scenario():
            h = QosHarness(AdmissionPolicy(frame_rate=0.1, frame_burst=1.0))
            tenant = RecordingNode("s00:master-00", h.scheduler,
                                   h.node.network)
            h.server.add_tenant(tenant)
            keepalive = m.KeepAlive(stamp=STAMP)
            accusation = m.Accusation(pledge=PLEDGE, discovery="immediate")
            sent = ("plain-0", keepalive, accusation, "plain-1")
            if enveloped:
                sender, target = "s00:client-00", tenant
                sent = tuple(ShardEnvelope(shard_id="s00", src=sender,
                                           dst=tenant.node_id,
                                           message=message)
                             for message in sent)
            else:
                sender, target = "tester", h.node
            connection = _Connection(h.server, asyncio.get_running_loop())
            connection.connection_made(StandInTransport())
            try:
                connection.data_received(
                    encode_frame(NetHello(node_id="tester"))
                    + b"".join(encode_frame(message) for message in sent))
                # plain-0 spends the burst and plain-1 is shed: admission
                # is on, and the protected pair went through it.
                assert target.received == [(sender, "plain-0"),
                                           (sender, keepalive),
                                           (sender, accusation)]
                snap = h.metrics.snapshot()
                assert snap["qos_shed_rate"] == 1
                assert snap[f"qos_shed_from_{sender}"] == 1
            finally:
                connection.connection_lost(None)
                await h.aclose()

        run(scenario())

    def test_rejects_split_by_layer_and_strike(self):
        async def scenario():
            h = QosHarness(AdmissionPolicy(frame_rate=10.0,
                                           frame_burst=2.0))
            await h.start()
            try:
                _reader, writer = await h.raw_connection()
                # Two well-framed bad bodies: unknown extension id 29.
                bad_body = (bytes((codec._T_EXT,))
                            + codec._encode_varint(29))
                header = codec._HEADER.pack(codec.MAGIC,
                                            codec.WIRE_VERSION, 0,
                                            len(bad_body))
                writer.write((header + bad_body) * 2)
                writer.write(encode_frame("after-strikes"))
                await writer.drain()
                # The two strikes (a token each) drained the 2-token
                # burst: the offender's next well-formed frame sheds
                # itself under the rate bucket.
                await h.wait_counter("qos_shed_rate", 1)
                # Framing garbage on a second connection: closed.
                reader2, writer2 = await h.raw_connection()
                writer2.write(b"NOT-A-FRAME" * 8)
                await writer2.drain()
                assert await asyncio.wait_for(reader2.read(), 2.0) == b""
                await h.wait_counter("net_frames_rejected", 3)
                snap = h.metrics.snapshot()
                # Aggregate retained; split by layer; attributed.
                assert snap["net_frames_rejected"] == 3
                assert snap["net_frames_rejected_body"] == 2
                assert snap["net_frames_rejected_framing"] == 1
                assert snap["net_rejected_from_tester"] == 3
                # Each reject struck the sender's frame bucket.
                client = h.server._admission["tester"]
                assert client.strikes == 3
                assert client.frames is not None
                assert client.frames.tokens < 0
                assert h.node.received == []
            finally:
                await h.aclose()

        run(scenario())

    def test_qos_status_scrape_inline(self):
        async def scenario():
            h = QosHarness(AdmissionPolicy(frame_rate=1.0, frame_burst=1.0))
            await h.start()
            try:
                _reader, writer = await h.raw_connection()
                for index in range(3):
                    writer.write(encode_frame(f"flood-{index}"))
                await writer.drain()
                await h.wait_counter("qos_shed_total", 2)
                reader2, writer2 = await h.raw_connection()
                writer2.write(encode_frame(StatusRequest()))
                await writer2.drain()
                reply, _size = await asyncio.wait_for(
                    read_frame(reader2, 2.0), 2.0)
                assert isinstance(reply, StatusReply)
                assert reply.node_id == "target"
                assert reply.shed_total == 2
                assert reply.breaker_trips == 0
                # No tracing runtime: the trace counts read zero.
                assert reply.spans_buffered == reply.contexts_received == 0
            finally:
                await h.aclose()

        run(scenario())


@pytest.mark.net
class TestPoolBreaker:
    def test_breaker_opens_fast_fails_and_heals(self):
        async def scenario():
            h = QosHarness(
                qos=None,
                breaker=BreakerPolicy(failure_threshold=1,
                                      reset_timeout=0.3))
            await h.start()
            host, port = h.peers.endpoint("target")
            await h.server.aclose()
            try:
                # Delivery fails (nobody listening): retries exhaust,
                # the breaker trips on the first failed batch.
                h.pool.send("target", "one")
                await h.wait_counter("net_drop_retries_exhausted", 1)
                await h.wait_counter("qos_breaker_opens", 1)
                assert h.pool.breaker_states() == {"target": "open"}
                assert h.pool.breaker_trips() == 1
                # While open: fast-fail, no retry budget burned.
                connects_before = h.metrics.snapshot().get(
                    "net_connect_failures", 0)
                h.pool.send("target", "two")
                await h.wait_counter("net_drop_breaker_open", 1)
                assert h.metrics.snapshot().get(
                    "net_connect_failures", 0) == connects_before
                # Past the reset timeout with the server back: the
                # half-open probe delivers and the breaker closes.
                await h.server.start(host, port)
                await asyncio.sleep(0.35)
                h.pool.send("target", "three")
                await h.wait_received(1)
                assert h.node.received == [("tester", "three")]
                deadline = asyncio.get_running_loop().time() + 2.0
                while h.pool.breaker_states() != {"target": "closed"}:
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("breaker never closed")
                    await asyncio.sleep(0.01)
                assert h.pool.breaker_trips() == 1  # no new trips
                # Healed: the peer is back on the synchronous flush, and
                # the breaker still guards it -- when the connection
                # dies again the write is not attempted on the corpse,
                # the retry path runs and the breaker re-opens.
                peer = h.pool._peers["target"]
                h.pool.send("target", "four")
                await asyncio.sleep(0)
                assert peer.task is None and not peer.backlog
                await h.wait_received(2)
                await h.server.aclose()
                assert h.pool.kill_connection("target")
                h.pool.send("target", "five")
                await h.wait_counter("net_drop_retries_exhausted", 2)
                assert h.pool.breaker_states() == {"target": "open"}
                assert h.pool.breaker_trips() == 2
                h.pool.send("target", "six")
                await h.wait_counter("net_drop_breaker_open", 2)
                assert [msg for _src, msg in h.node.received] \
                    == ["three", "four"]
            finally:
                await h.aclose()

        run(scenario())


@pytest.mark.net
class TestUntracedStatus:
    def test_status_answered_without_tracing(self):
        """With admission on and tracing off, a master's listener
        answers a status request with its shed total and breakers, and
        no handler sees the request."""
        async def scenario():
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=5,
                protocol=fast_protocol_config(qos_frame_rate=10.0,
                                              qos_frame_burst=10.0))
            cluster = await LocalCluster.launch(spec, settle=0.4)
            try:
                assert cluster.obs is None
                host, port = cluster.peers.endpoint("master-00")
                _reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(NetHello(node_id="flooder")))
                # Charged to "flooder" and addressed to no tenant: the
                # ten the burst admits are dropped, the other two shed.
                # (The cluster's own traffic stays under 10 frames/s.)
                for index in range(12):
                    writer.write(encode_frame(ShardEnvelope(
                        shard_id="", src="flooder", dst="nobody",
                        message=f"flood-{index}")))
                await writer.drain()
                try:
                    await cluster.wait_for(
                        lambda: cluster.metrics.count(
                            "qos_shed_from_flooder") == 2,
                        2.0, "two frames shed")
                    reply = await cluster.scrape(
                        "master-00", StatusRequest(), timeout=1.5)
                finally:
                    writer.transport.abort()
                assert isinstance(reply, StatusReply)
                assert reply.node_id == "master-00"
                assert reply.shed_total == 2
                assert "slave-00-00" in dict(reply.breakers)
                assert reply.spans_buffered == reply.contexts_received == 0
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())
