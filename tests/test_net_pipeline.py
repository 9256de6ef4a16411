"""Pipelining and batching invariants for the socket hot path.

The pipelined :class:`~repro.net.transport.ConnectionPool` flushes each
peer's backlog once per loop tick and coalesces it into a single
:class:`~repro.net.codec.FrameBatch` wire frame.  These tests pin the
properties that make that optimisation invisible to the protocol:

* per-peer FIFO order survives concurrent senders and coalescing;
* a ``FrameBatch`` round-trips every registered wire type unchanged;
* signed payloads inside a batch are byte-identical to standalone
  encoding (a signature made before batching verifies after it);
* :class:`~repro.chaos.ChaosConnectionPool` fault fates stay
  deterministic per (seed, link, frame-index) even though the base pool
  now drains in batches;
* the throughput the batching work bought (a 60-read cluster run
  judged against the same run's echo round trip) cannot silently
  regress.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as m
from repro.chaos.faults import ChaosConnectionPool, FaultPlane, LinkFaults
from repro.content.kvstore import KVGet, KVPut
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer, verify_signature
from repro.metrics import MetricsRegistry
from repro.net import codec, transport
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.net.peers import PeerDirectory
from repro.net.server import NodeServer, RealtimeScheduler, SocketNetwork
from repro.net.transport import (
    ConnectionPool,
    read_frame,
    write_frame,
)
from repro.sim.network import Node

from tests.test_net_codec import EXAMPLES, stamp_name
from tests.test_net_transport import record_call_at, written_to


def run(coro, timeout: float = 30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class RecordingNode(Node):
    def __init__(self, node_id, scheduler, network) -> None:
        super().__init__(node_id, scheduler, network)
        self.received: list = []

    def on_message(self, src_id: str, message) -> None:
        self.received.append(message)


class Harness:
    """One listening node reached through a (possibly chaos) pool."""

    def __init__(self, pool_cls: type = ConnectionPool,
                 seed: int = 0, **pool_kwargs) -> None:
        loop = asyncio.get_running_loop()
        self.metrics = MetricsRegistry()
        self.scheduler = RealtimeScheduler(seed, loop)
        self.peers = PeerDirectory()
        self.pool = pool_cls(
            "tester", self.peers, self.metrics, rng=random.Random(seed + 1),
            **pool_kwargs)
        self.node = RecordingNode("target", self.scheduler,
                                  SocketNetwork(self.scheduler, self.pool))
        self.server = NodeServer(self.node, self.metrics)

    async def start(self) -> None:
        host, port = await self.server.start()
        self.peers.add("target", host, port)

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


# -- FIFO under concurrent senders ---------------------------------------


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestPipelinedOrdering:
    def test_fifo_order_survives_concurrent_sends(self):
        """Messages arrive in exactly the order send() was called, even
        when several tasks interleave sends and the pool coalesces."""
        async def scenario():
            h = Harness()
            await h.start()
            try:
                sent: list = []

                async def producer(tag: str, count: int) -> None:
                    for n in range(count):
                        message = {"tag": tag, "n": n}
                        sent.append(message)
                        h.pool.send("target", message)
                        if n % 7 == 0:
                            await asyncio.sleep(0)

                await asyncio.gather(producer("a", 60), producer("b", 60),
                                     producer("c", 60))
                await h.wait_received(180)
                assert h.node.received == sent
                snap = h.metrics.snapshot()
                assert snap["net_frames_sent"] == 180
                assert snap["net_frames_received"] == 180
                # The backlog really was coalesced, not sent one-by-one.
                assert snap.get("net_batches_sent", 0) >= 1
                assert snap.get("net_batches_received", 0) >= 1
            finally:
                await h.aclose()

        run(scenario())

    def test_max_batch_one_disables_coalescing(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_BATCH", 1)

        async def scenario():
            h = Harness()
            await h.start()
            try:
                for n in range(20):
                    h.pool.send("target", {"n": n})
                await h.wait_received(20)
                assert h.node.received == [{"n": n} for n in range(20)]
                snap = h.metrics.snapshot()
                assert snap.get("net_batches_sent", 0) == 0
                assert snap["net_frames_sent"] == 20
            finally:
                await h.aclose()

        run(scenario())


# -- FrameBatch codec invariants -----------------------------------------


class TestFrameBatchRoundtrip:
    @pytest.mark.parametrize(
        "cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
    def test_every_registered_type_roundtrips_batched(self, cls):
        """Each wire type decodes unchanged from inside a FrameBatch."""
        value = EXAMPLES[cls]
        batch = codec.FrameBatch(messages=(value, value))
        decoded = codec.decode_frame(codec.encode_frame(batch))
        assert isinstance(decoded, codec.FrameBatch)
        # Canonical-bytes equality covers types without __eq__ (stores,
        # and SlaveSnapshot which embeds one).
        for got in decoded.messages:
            assert codec.encode_value(got) == codec.encode_value(value)

    def test_batched_encoding_is_byte_identical_per_message(self):
        """A message's body bytes inside a batch equal its standalone
        body bytes -- batching adds framing around messages, never
        rewrites them."""
        for value in EXAMPLES.values():
            alone = codec.encode_value(value)
            batch = codec.encode_value(codec.FrameBatch(messages=(value,)))
            assert alone in batch

    @settings(max_examples=50, deadline=None)
    @given(st.text(min_size=0, max_size=40),
           st.binary(min_size=0, max_size=40),
           st.integers(min_value=0, max_value=2**32))
    def test_signed_payload_identical_inside_batch(self, key, raw, version):
        """A pledge signed before batching still verifies after a trip
        through a FrameBatch: signed_payload() reproduces the exact
        bytes the signature covers."""
        rng = random.Random(7)
        master = KeyPair("master-00", new_signer("hmac", rng=rng))
        slave = KeyPair("slave-00-00", new_signer("hmac", rng=rng))
        stamp = m.VersionStamp.make(master, version=version, timestamp=1.5)
        result = {"key": key, "value": raw}
        pledge = m.Pledge.make(slave, query_wire=("get", key),
                               result_hash=sha1_hex(result), stamp=stamp,
                               request_id="r-1")
        reply = m.ReadReply(request_id="r-1", result=result, pledge=pledge,
                            in_sync=True)
        batch = codec.FrameBatch(messages=(
            m.KeepAlive(stamp=stamp), reply, m.KeepAlive(stamp=stamp)))
        decoded = codec.decode_frame(codec.encode_frame(batch))
        got = decoded.messages[1].pledge
        assert got.signed_payload() == pledge.signed_payload()
        assert verify_signature(slave.public_key, got.signed_payload(),
                                got.signature)
        assert decoded.messages[1] == reply


# -- chaos determinism over the batched sender ---------------------------


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestChaosDeterminismWithPipelining:
    async def _lossy_run(self, seed: int) -> tuple[list, dict]:
        h = Harness(pool_cls=ChaosConnectionPool, seed=seed,
                    plane=FaultPlane(seed=seed))
        await h.start()
        try:
            h.pool.plane.set_default(LinkFaults(drop=0.3, duplicate=0.1))
            for n in range(80):
                h.pool.send("target", {"n": n})
                if n % 11 == 0:
                    await asyncio.sleep(0)
            await asyncio.sleep(0.4)
            snap = {k: v for k, v in h.metrics.snapshot().items()
                    if k.startswith("net_drop") or k == "chaos_duplicates"}
            return list(h.node.received), snap
        finally:
            await h.aclose()

    def test_fates_reproducible_per_seed(self):
        """Same (seed, link, frame-index) => same delivered set and the
        same drop/duplicate counters, run after run, even though the
        base pool now drains the queue in batches."""
        async def scenario():
            first = await self._lossy_run(seed=5)
            second = await self._lossy_run(seed=5)
            assert first == second
            received, snap = first
            assert snap.get("net_drop_chaos", 0) > 0  # faults did fire
            assert len(received) < 80 + snap.get("chaos_duplicates", 0) + 1

        run(scenario())

    def test_chaos_pool_never_coalesces_on_the_wire(self):
        """The chaos pool's ``_encode`` frames every message of a flush
        on its own: frame-index addressing holds."""
        async def scenario():
            h = Harness(pool_cls=ChaosConnectionPool, seed=0,
                        plane=FaultPlane(seed=0))
            await h.start()
            try:
                for n in range(30):
                    h.pool.send("target", {"n": n})
                await h.wait_received(30)
                assert h.node.received == [{"n": n} for n in range(30)]
                snap = h.metrics.snapshot()
                assert snap.get("net_batches_sent", 0) == 0
                assert snap.get("net_batches_received", 0) == 0
            finally:
                await h.aclose()

        run(scenario())


    def test_unencodable_message_does_not_wedge_a_chaos_link(self):
        """The chaos pool encodes one frame per message; a message
        that cannot be encoded is dropped with a count and its
        neighbours still go out."""
        async def scenario():
            h = Harness(pool_cls=ChaosConnectionPool, seed=0,
                        plane=FaultPlane(seed=0))
            await h.start()
            try:
                h.pool.send("target", {"a": 1})
                h.pool.send("target", object())
                h.pool.send("target", {"b": 2})
                await h.wait_received(2)
                assert h.node.received == [{"a": 1}, {"b": 2}]
                snap = h.metrics.snapshot()
                assert snap["net_drop_unencodable"] == 1
                assert snap["net_frames_sent"] == 2
            finally:
                await h.aclose()

        run(scenario())


    def test_unencodable_message_leaves_a_chaos_links_context_alone(self):
        """One wire for both pools: the chaos pool frames each message
        on its own *with the connection's context*, so a stamp crosses
        a chaos link once too, and the message that cannot be encoded
        takes nothing the connection remembers with it."""
        async def scenario():
            h = Harness(pool_cls=ChaosConnectionPool, seed=0,
                        plane=FaultPlane(seed=0))
            await h.start()
            try:
                stamp = EXAMPLES[m.VersionStamp]
                reply = EXAMPLES[m.ReadReply]
                assert reply.pledge.stamp == stamp
                h.pool.send("target", m.KeepAlive(stamp=stamp))
                h.pool.send("target", reply)
                h.pool.send("target", object())
                h.pool.send("target", reply)
                await h.wait_received(3)
                assert h.node.received == [m.KeepAlive(stamp=stamp),
                                           reply, reply]
                remembered = [stamp_name(stamp)]
                assert list(h.pool._peers["target"].context.stamps) \
                    == remembered
                (connection,) = h.server._connections
                assert list(connection._context.stamps) == remembered
                snap = h.metrics.snapshot()
                assert snap["net_drop_unencodable"] == 1
                assert snap["net_frames_sent"] == 3
                assert snap.get("net_frames_rejected", 0) == 0
                # The stamp went in full once: the replies name it.
                in_full = len(codec.encode_frame(m.KeepAlive(stamp=stamp)))
                by_name = len(codec.encode_frame(reply)) - 40
                assert snap["net_bytes_sent"] == in_full + 2 * by_name
            finally:
                await h.aclose()

        run(scenario())


# -- wire bytes per read ------------------------------------------------------


@pytest.mark.net
class TestWireBytesPerRead:
    """``wire_bytes_per_read`` is the benchmark's one metric that speaks
    to the paper's wide-area setting, and it is a count: what a read
    puts on the wire does not depend on the machine.  Every stamp whole
    and every hash in hex read ~550 B on this cast; a stamp that crosses
    each connection once and a SHA-1 sent as 20 bytes read ~412; a reply
    that carries the pledge's seal, not the pledge, reads ~346."""

    def test_a_sequential_read_costs_at_most_400_bytes(self):
        async def scenario() -> tuple[float, list[int]]:
            config = fast_protocol_config(double_check_probability=0.0)
            spec = NetDeploymentSpec(num_masters=1, slaves_per_master=1,
                                     num_clients=1, seed=0, protocol=config)
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                client = cluster.clients[0]
                slave = cluster.slaves[0]
                await cluster.write(client, KVPut(key="k", value="v" * 64))
                await asyncio.sleep(config.max_latency
                                    + config.keepalive_interval)
                flushes = written_to(cluster.pools[slave.node_id])
                for _ in range(20):  # warm-up: dials, hellos, first stamps
                    await cluster.read(client, KVGet(key="k"))
                # Start on a keep-alive, so that one boundary at least
                # falls inside however fast a machine runs the reads.
                warm = slave.latest_stamp
                await cluster.wait_for(
                    lambda: slave.latest_stamp is not warm, 2.0,
                    what="the next keep-alive", poll=0.002)
                before = cluster.metrics.snapshot()
                for _ in range(300):
                    reply = await cluster.read(client, KVGet(key="k"))
                    assert reply["status"] == "accepted"
                after = cluster.metrics.snapshot()
                reads = after["reads_accepted"] - before["reads_accepted"]
                assert reads == 300
                per_read = (after["net_bytes_sent"]
                            - before["net_bytes_sent"]) / reads
                # Two replies between two keep-alives: the first frame
                # to carry a stamp, and the next one under the same.
                # (Depth 1: every flush to the client is one reply.)
                replies = [(batch[0].pledge.stamp, len(payload))
                           for dst_id, batch, payload in flushes
                           if dst_id == client.node_id]
                assert len(replies) == 320
                for (old, _), (stamp, first), (same, second) in zip(
                        replies, replies[1:], replies[2:]):
                    if old is not stamp and same is stamp:
                        return per_read, [first, second]
                raise AssertionError("no keep-alive fell inside 300 reads")
            finally:
                await cluster.aclose()

        per_read, (first, second) = run(scenario())
        assert per_read <= 400, f"{per_read:.1f} B a read on the wire"
        assert first - second >= 38, (first, second)


@pytest.mark.net
class TestLoopTimersPerRead:
    """A read's time-out and the nodes' zero-delay flushes are entries
    on the scheduler's own queue; the loop holds one timer at its head.
    Under 8-deep load one loop timer serves many reads, so ``call_at``
    calls per accepted read is a count that holds on any machine: a
    loop timer per scheduled event read 1.29 a read on the benchmark's
    saturated workload, the one queue 0.13."""

    READS = 2000

    def test_at_most_three_loop_timers_per_ten_reads(self):
        async def scenario() -> tuple[int, list[str]]:
            config = fast_protocol_config(double_check_probability=0.0)
            spec = NetDeploymentSpec(num_masters=1, slaves_per_master=2,
                                     num_clients=4, seed=5, protocol=config)
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                for client in cluster.clients:  # dials, hellos, stamps
                    for i in range(20):
                        await cluster.read(client, KVGet(key=f"k{i}"))
                loop = asyncio.get_running_loop()
                finished = loop.create_future()
                issued = [0]
                outcomes: list[str] = []

                def issue(client, slot: int) -> None:
                    issued[0] += 1
                    client.submit(KVGet(key=f"k{slot}"), None,
                                  lambda outcome: done(client, slot, outcome))

                def done(client, slot: int, outcome) -> None:
                    outcomes.append(outcome["status"])
                    if issued[0] < self.READS:
                        issue(client, slot)
                    elif len(outcomes) == self.READS:
                        finished.set_result(None)

                armed = record_call_at(loop)
                for client in cluster.clients:  # 8 in flight each
                    for slot in range(8):
                        issue(client, slot)
                await asyncio.wait_for(finished, 30.0)
                del loop.call_at
                return len(armed) - 1, outcomes  # less wait_for's own
            finally:
                await cluster.aclose()

        timers, outcomes = run(scenario())
        assert outcomes == ["accepted"] * self.READS
        assert timers / self.READS <= 0.3, \
            f"{timers / self.READS:.2f} loop timers a read"


# -- throughput bound ------------------------------------------------------


def echo_round_trips_per_s(round_trips: int) -> float:
    """Framed request/response round trips per second against a
    localhost echo server: the transport floor, no protocol."""
    message = EXAMPLES[m.ReadReply]

    async def scenario() -> float:
        async def echo(reader, writer):
            try:
                while True:
                    value, _size = await read_frame(reader, timeout=10.0)
                    await write_frame(writer, value, timeout=10.0)
            except (ConnectionError, asyncio.TimeoutError,
                    asyncio.CancelledError):
                pass
            finally:
                writer.transport.abort()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        t0 = time.perf_counter()
        for _ in range(round_trips):
            await write_frame(writer, message, timeout=10.0)
            await read_frame(reader, timeout=10.0)
        elapsed = time.perf_counter() - t0
        writer.close()
        server.close()
        await server.wait_closed()
        return round_trips / elapsed

    return run(scenario())


def cluster_reads_per_s(reads: int) -> float:
    """Pledge-verified, accepted reads per second at depth 1 against a
    1 master x 1 slave socket cluster."""

    async def scenario() -> float:
        config = fast_protocol_config(double_check_probability=0.0)
        spec = NetDeploymentSpec(num_masters=1, slaves_per_master=1,
                                 num_clients=1, seed=0, protocol=config)
        cluster = await LocalCluster.launch(spec, settle=0.6)
        try:
            client = cluster.clients[0]
            await cluster.write(client, KVPut(key="bench", value="v"))
            await asyncio.sleep(config.max_latency
                                + config.keepalive_interval)
            t0 = time.perf_counter()
            for _ in range(reads):
                reply = await cluster.read(client, KVGet(key="bench"))
                assert reply["status"] == "accepted"
            elapsed = time.perf_counter() - t0
            assert cluster.metrics.snapshot()["reads_accepted"] >= reads
            return reads / elapsed
        finally:
            await cluster.aclose()

    return run(scenario())


@pytest.mark.net
class TestThroughputFloor:
    def test_cluster_reads_floor(self):
        """A future PR that reopens the sim-vs-TCP gap fails here, not
        in a nightly benchmark.

        Judged against the machine it runs on: the same test times the
        framed echo round trip (``write_frame``/``read_frame`` both
        ways, no protocol) and the 60-read cluster run, and bounds a
        read's cost in echo round trips.  A pledge-verified read is
        three message hops (request, reply, pledge to the auditor) plus
        a signature, two verifications and the handlers, where an echo
        round trip is two hops and nothing else; 60-read runs measure
        2.2-2.8 echo round trips per read (3 of each, alternating, on
        the commit that introduced this bound and on its parent).  The
        fixed floor this replaces, 420 reads/s, stood 4.5x under the
        ~1.9k reads/s measured where it was written, so the bound keeps
        that headroom: 2.7 x 4.5 = 12 echo round trips.
        """
        echo_per_s = echo_round_trips_per_s(round_trips=300)
        reads_per_s = cluster_reads_per_s(reads=60)
        echo_rtts_per_read = echo_per_s / reads_per_s
        assert echo_rtts_per_read <= 12.0, (
            f"socket hot path regressed: a read costs "
            f"{echo_rtts_per_read:.1f} echo round trips "
            f"({reads_per_s:.0f} reads/s against "
            f"{echo_per_s:.0f} echo round trips/s)")
