"""Per-layer kernels: direct calls into public functions, no cluster.

Each kernel is the cost of one call (or one message, one operation) of
a single layer, in multiples of the reference exchange.  They are the
numbers an optimisation of that layer should move first; the
interaction table in the README says which end-to-end metric should
then follow, and on which workload.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Any, Callable

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.core.messages import AuditSubmission, BcastSlaveList, Pledge, \
    ReadReply, ReadRequest, VersionStamp
from repro.core.owner import ContentOwner
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.crypto import fastpath
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.peers import PeerDirectory
from repro.net.server import NodeServer, RealtimeScheduler, SocketNetwork
from repro.net.transport import ConnectionPool, read_frame, write_frame
from repro.qos.queue import InboundQueue
from repro.qos.tokens import AdmissionPolicy, ClientAdmission
from repro.shard.router import ShardRouter
from repro.shard.wire import ShardEnvelope, tenant_id
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator

from calib import Reference

#: Seconds one timed batch should last, and batches per kernel.
_BATCH_SECONDS = 0.004
_BATCHES = 5

clock = time.perf_counter
Kernels = dict[str, dict[str, Any]]


def per_call(fn: Callable[[], Any]) -> tuple[float, int]:
    """Median seconds per call over ``_BATCHES`` batches; calls timed."""
    calls = 1
    while True:
        start = clock()
        for _ in range(calls):
            fn()
        took = clock() - start
        if took >= _BATCH_SECONDS or calls >= 1 << 20:
            break
        calls *= 2
    samples = [took / calls]
    for _ in range(_BATCHES - 1):
        start = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - start) / calls)
    return statistics.median(samples), calls * _BATCHES


class _Recorder:
    """Collects kernel timings; ``calibrate`` turns seconds into ``_x``."""

    def __init__(self) -> None:
        self.kernels: Kernels = {}
        self._pending: dict[str, tuple[float, int]] = {}

    def time(self, name: str, fn: Callable[[], Any],
             per: int = 1) -> None:
        seconds, calls = per_call(fn)
        self._pending[name] = (seconds / per, calls * per)

    def put(self, name: str, seconds: float, samples: int) -> None:
        self._pending[name] = (seconds, samples)

    def count(self, name: str, value: float, unit: str) -> None:
        self.kernels[name] = {"value": value, "unit": unit, "samples": 1}

    def calibrate(self, calib: float) -> None:
        """Divide the timings gathered since the last call by ``calib``."""
        for name, (seconds, samples) in self._pending.items():
            self.kernels[name] = {"value": seconds / calib, "unit": "x",
                                  "samples": samples}
        self._pending = {}


async def run_kernels() -> Kernels:
    """Every kernel; each group bracketed by calibration readings."""
    reference = Reference()
    await reference.start()
    try:
        recorder = _Recorder()
        before = await reference.reading()

        async def close_group() -> None:
            nonlocal before
            after = await reference.reading()
            recorder.calibrate((before + after) / 2)
            before = after

        for group in (_crypto, _codec, _small_layers, _core):
            group(recorder)
            await close_group()
        await _transport(recorder)
        await close_group()
        return recorder.kernels
    finally:
        await reference.close()


# -- sample messages -----------------------------------------------------------

def _sample_reply(value: str, serial: int = 42) -> ReadReply:
    rng = random.Random(7)
    master = KeyPair("master-00", new_signer("hmac", rng=rng))
    slave = KeyPair("slave-00-00", new_signer("hmac", rng=rng))
    stamp = VersionStamp.make(master, version=5, timestamp=1.25)
    result = {"found": True, "value": value}
    request_id = f"client-00:r{serial}"
    pledge = Pledge.make(slave, query_wire=KVGet(key="k000042").to_wire(),
                         result_hash=sha1_hex(result), stamp=stamp,
                         request_id=request_id)
    return ReadReply(request_id=request_id, result=result, pledge=pledge,
                     in_sync=True)


def _sample_request(serial: int = 42) -> ReadRequest:
    return ReadRequest(client_id="client-00",
                       request_id=f"client-00:r{serial}",
                       query_wire=KVGet(key="k000042").to_wire())


# -- crypto ----------------------------------------------------------------------

def _crypto(recorder: _Recorder) -> None:
    rng = random.Random(11)
    payloads = [rng.randbytes(200) for _ in range(64)]
    for scheme in ("hmac", "rsa"):
        keys = KeyPair("signer", new_signer(scheme, rng=rng, rsa_bits=512))
        verifier = KeyPair("verifier", new_signer("hmac", rng=rng))
        public = keys.public_key
        signed = [(p, keys.sign(p)) for p in payloads]
        first_payload, first_signature = signed[0]

        def verify_misses() -> None:
            fastpath.VERIFY_CACHE.clear()
            for payload, signature in signed:
                verifier.verify(public, payload, signature)

        recorder.time(f"crypto.sign_x.{scheme}",
                      lambda: keys.sign(first_payload))
        recorder.time(f"crypto.sign_many16_x.{scheme}",
                      lambda: keys.sign_many(payloads[:16]))
        recorder.time(f"crypto.verify_miss_x.{scheme}", verify_misses,
                      per=len(signed))
        recorder.time(f"crypto.verify_hit_x.{scheme}",
                      lambda: verifier.verify(public, first_payload,
                                              first_signature))
    results = [{"found": True, "value": rng.randbytes(32).hex()}
               for _ in range(64)]

    def hash_misses() -> None:
        fastpath.CANONICAL_CACHE.clear()
        for result in results:
            sha1_hex(result)

    recorder.time("crypto.sha1_result_miss_x", hash_misses,
                  per=len(results))
    recorder.time("crypto.sha1_result_hit_x", lambda: sha1_hex(results[0]))


# -- codec -----------------------------------------------------------------------

def _codec(recorder: _Recorder) -> None:
    request = _sample_request()
    reply = _sample_reply("v" * 64)
    reply_1k = _sample_reply("v" * 1024)
    batch = codec.FrameBatch(messages=tuple(
        _sample_reply("v" * 64, serial) for serial in range(16)))
    frames = {name: codec.encode_frame(message) for name, message in
              (("reply", reply), ("reply_1k", reply_1k), ("batch", batch))}
    recorder.time("net.codec.encode_read_request_x",
                  lambda: codec.encode_frame(request))
    recorder.time("net.codec.encode_read_reply_x",
                  lambda: codec.encode_frame(reply))
    recorder.time("net.codec.decode_read_reply_x",
                  lambda: codec.decode_frame(frames["reply"]))
    recorder.time("net.codec.encode_reply_1k_x",
                  lambda: codec.encode_frame(reply_1k))
    recorder.time("net.codec.decode_reply_1k_x",
                  lambda: codec.decode_frame(frames["reply_1k"]))
    recorder.time("net.codec.encode_batch16_x",
                  lambda: codec.encode_frame(batch))
    recorder.time("net.codec.decode_batch16_x",
                  lambda: codec.decode_frame(frames["batch"]))
    recorder.count("net.codec.read_reply_bytes", len(frames["reply"]), "B")
    envelope = ShardEnvelope(shard_id="s00", src="s00:client-00",
                             dst="s00:slave-00-00", message=request)

    def round_trip(message: Any) -> Callable[[], Any]:
        return lambda: codec.decode_frame(codec.encode_frame(message))

    bare, _ = per_call(round_trip(request))
    wrapped, calls = per_call(round_trip(envelope))
    recorder.put("shard.envelope_overhead_x", wrapped - bare, calls)


# -- qos, shard, content, metrics, sim -------------------------------------------

def _small_layers(recorder: _Recorder) -> None:
    policy = AdmissionPolicy(frame_rate=1e6)
    account = ClientAdmission(policy, now=0.0)
    rng = random.Random(3)
    now = [0.0]

    def admit() -> None:
        now[0] += 1e-4
        account.admit(now[0], 200.0, rng, policy)

    recorder.time("qos.admit_x", admit)
    inbox = InboundQueue(1024)
    entry = ("client-00", _sample_request())

    def put_get() -> None:
        inbox.put(entry)
        inbox.get()

    recorder.time("qos.inbox_putget_x", put_get)

    router = _router()
    query = KVGet(key="k000042")
    recorder.time("shard.route_x", lambda: router.shard_for(query))

    store = KeyValueStore({f"k{i:06d}": "v" * 64 for i in range(200)})
    put = KVPut(key="k000007", value="w" * 64)
    recorder.time("content.kv_get_x", lambda: store.execute_read(query))
    recorder.time("content.kv_put_x", lambda: store.apply_write(put))

    registry = MetricsRegistry()
    recorder.time("metrics.incr_x", lambda: registry.incr("reads_accepted"))

    simulator = Simulator(seed=0)

    def event() -> None:
        simulator.schedule(0.001, _nothing)
        simulator.run_for(0.001)

    recorder.time("sim.event_x", event)


def _nothing() -> None:
    pass


def _router() -> ShardRouter:
    """A router with an adopted two-shard map and idle legs."""
    simulator = Simulator(seed=0)
    network = Network(simulator)
    config = ProtocolConfig()
    metrics = MetricsRegistry()
    owner = ContentOwner("content-owner", signer_scheme="hmac",
                         rng=simulator.fork_rng("keys:owner"))
    shard_ids = ("s00", "s01")
    legs = {
        shard_id: Client(tenant_id(shard_id, "client-00"), simulator,
                         network, config, directory_id="directory",
                         owner_public_key=owner.content_public_key,
                         metrics=metrics)
        for shard_id in shard_ids}
    router = ShardRouter(
        "router-00", namespace=owner.content_key_fingerprint(),
        owner_public_key=owner.content_public_key, config=config,
        metrics=metrics, directory_id="directory", clients=legs)
    router.shard_map = owner.sign_shard_map(
        1, config.shard_map_seed,
        {shard_id: (tenant_id(shard_id, "master-00"),)
         for shard_id in shard_ids})
    return router


# -- core over the simulator (no sockets) ------------------------------------------

def _core(recorder: _Recorder) -> None:
    config = ProtocolConfig(
        max_latency=1.0, keepalive_interval=1.0, audit_grace=0.5,
        double_check_probability=0.0, simulate_service_times=False)
    system = ReplicationSystem(DeploymentSpec(
        num_masters=2, slaves_per_master=1, num_clients=1, seed=5,
        protocol=config, latency=ConstantLatency(0.0),
        store_factory=lambda: KeyValueStore(
            {f"k{i:06d}": "v" * 64 for i in range(200)})))
    system.start()
    client = system.clients[0]
    simulator = system.simulator
    outcomes: list[dict[str, Any]] = []
    query = KVGet(key="k000042")

    def read() -> None:
        client.submit(query, None, outcomes.append)
        simulator.run_for(1e-6)

    recorder.time("core.read_nonet_x", read)
    serial = [0]

    def write() -> None:
        serial[0] += 1
        client.submit(KVPut(key="k000007", value=f"w{serial[0]}"), None,
                      outcomes.append)
        # Commits are spaced max_latency apart; the keep-alive round
        # that falls in the gap is part of what a write costs.
        simulator.run_for(config.max_latency)

    recorder.time("core.write_nonet_x", write)
    if any(outcome["status"] not in ("accepted", "committed")
           for outcome in outcomes):
        raise RuntimeError("a core kernel operation failed")

    master = system.masters[0]
    announcement = BcastSlaveList(master_id=master.node_id,
                                  slave_ids=tuple(master.slaves))

    def deliver() -> None:
        master.broadcast.broadcast(announcement)
        simulator.run_for(1e-6)

    # Two masters and the auditor: a three-member group.
    recorder.time("broadcast.deliver_x", deliver)

    auditor = system.auditors[0]
    slave = system.slaves[0]
    result_hash = sha1_hex(slave.store.execute_read(query).result)
    stamp = VersionStamp.make(master.keys, auditor.version, simulator.now)
    submissions = [
        AuditSubmission(pledge=Pledge.make(
            slave.keys, query.to_wire(), result_hash, stamp,
            request_id=f"client-00:a{i}"))
        for i in range(256)]
    position = [0]

    def audit() -> None:
        auditor.on_message(client.node_id,
                           submissions[position[0] % len(submissions)])
        position[0] += 1
        simulator.run_for(1e-6)

    recorder.time("core.auditor.audit_x", audit)
    if auditor.detections:
        raise RuntimeError("the audit kernel's honest pledges were flagged")


# -- transport -------------------------------------------------------------------

class _Sink(Node):
    """Counts deliveries; wakes the sender when the expected count is in."""

    def __init__(self, node_id: str, simulator: Simulator,
                 network: Network) -> None:
        super().__init__(node_id, simulator, network)
        self.expected = 0
        self.arrived = asyncio.Event()

    def on_message(self, src_id: str, message: Any) -> None:
        self.expected -= 1
        if self.expected == 0:
            self.arrived.set()


async def _transport(recorder: _Recorder) -> None:
    reply = _sample_reply("v" * 64)
    recorder.put("net.transport.echo_rtt_x", *await _echo_rtt(reply))
    for name, backlog, qos in (
            ("net.transport.pool_oneway_b1_x", 1, None),
            ("net.transport.pool_oneway_b64_x", 64, None),
            ("net.server.oneway_qos_b64_x", 64,
             AdmissionPolicy(frame_rate=1e6))):
        recorder.put(name, *await _pool_oneway(reply, backlog, qos))


async def _echo_rtt(message: Any, round_trips: int = 300
                    ) -> tuple[float, int]:
    """``write_frame``/``read_frame`` echo: framing + codec + stream."""

    async def echo(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                value, _size = await read_frame(reader)
                await write_frame(writer, value)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.transport.abort()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    try:
        samples = []
        for _ in range(round_trips):
            start = clock()
            await write_frame(writer, message)
            await read_frame(reader)
            samples.append(clock() - start)
        return statistics.median(samples), round_trips
    finally:
        writer.transport.abort()
        server.close()
        await server.wait_closed()


async def _pool_oneway(message: Any, backlog: int,
                       qos: AdmissionPolicy | None,
                       messages: int = 1920) -> tuple[float, int]:
    """``ConnectionPool.send`` -> ``NodeServer`` -> a sink's on_message."""
    loop = asyncio.get_running_loop()
    scheduler = RealtimeScheduler(0, loop)
    metrics = MetricsRegistry()
    peers = PeerDirectory()
    pool = ConnectionPool("source", peers, metrics,
                          rng=scheduler.fork_rng("net:source"))
    sink = _Sink("sink", scheduler, SocketNetwork(scheduler, pool))
    server = NodeServer(sink, metrics, qos=qos,
                        qos_rng=random.Random(0) if qos else None)
    host, port = await server.start()
    peers.add("sink", host, port)
    try:
        samples = []
        for round_index in range(messages // backlog + 1):
            sink.expected = backlog
            sink.arrived.clear()
            start = clock()
            for _ in range(backlog):
                pool.send("sink", message)
            await asyncio.wait_for(sink.arrived.wait(), 10.0)
            if round_index:  # the first round pays the dial
                samples.append((clock() - start) / backlog)
        return statistics.median(samples), len(samples) * backlog
    finally:
        scheduler.cancel_all()
        await pool.aclose()
        await server.aclose()
