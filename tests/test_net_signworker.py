"""The signing worker: RSA pledges and stamps signed in a child process.

``Node.sign_batch`` is the one way protocol code signs a batch, and
``TrustedServer.sign_stamp`` the one way a master makes a stamp.  The
simulator signs inline and calls the continuation at once; a socket
deployment hands each RSA batch to one child process it owns, started
at the first such batch (a master's first keep-alive) and stopped by
``aclose``.  What must hold:

* the signatures are the integers inline RSA-FDH makes, bit for bit,
  and every stamp a master sends verifies;
* the child holds no socket of the parent's, and no child outlives its
  deployment;
* a slave that crashes with a batch at the worker never answers it,
  and a master that crashes with a stamp there never sends it;
* a slave hears a master's ``SlaveUpdate`` before the ``KeepAlive``
  made after it, also when the worker dies with both in flight;
* a write commits while its stamp is still at the worker;
* a killed worker loses no read: what it owed is signed inline;
* the worker counts what it is handed, as the keys count it;
* a sharded deployment has one worker for all its shards, and its
  ``aclose`` stops it too;
* a process on one CPU starts no worker and signs everything inline.
"""

from __future__ import annotations

import asyncio
import io
import os
import random
import signal
from typing import Any

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.messages import (
    KeepAlive,
    ReadReply,
    SlaveSnapshot,
    SlaveUpdate,
    VersionStamp,
)
from repro.crypto.keys import KeyPair
from repro.crypto.rsa import generate_rsa_keypair, rsa_sign
from repro.crypto.signatures import new_signer
from repro.net import signworker
from repro.net.codec import NetHello, encode_frame
from repro.net.deploy import LocalCluster, NetDeploymentSpec, \
    fast_protocol_config
from repro.net.server import RealtimeScheduler
from repro.shard.deploy import ShardDeploymentSpec, ShardedCluster
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator

from .test_net_transport import run

#: The worker starts only where the process may use a second CPU.
MULTI_CPU = len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) > 1
needs_two_cpus = pytest.mark.skipif(
    not MULTI_CPU, reason="the signing worker needs a second CPU")


class Signing(Node):
    def __init__(self, node_id: str, simulator: Simulator,
                 network: Network, scheme: str) -> None:
        super().__init__(node_id, simulator, network)
        self.keys = KeyPair(node_id, new_signer(
            scheme, rng=random.Random(node_id), rsa_bits=512))

    def on_message(self, src_id: str, message: Any) -> None:
        raise AssertionError("not reached")


class TestInline:
    """No sockets, no child: where ``then`` runs at once."""

    @pytest.mark.parametrize("scheme", ["hmac", "rsa"])
    def test_simulator_calls_then_synchronously(self, scheme):
        simulator = Simulator(seed=1)
        node = Signing("slave-00", simulator, Network(simulator), scheme)
        payloads = [b"one", b"two", b"three"]
        got: list[Any] = []
        node.sign_batch(payloads, got.append)
        assert got == [[node.keys.signer.sign(p) for p in payloads]]
        assert node.keys.signatures_made == 3
        assert simulator.pending_events() == 0

    def test_crashed_node_gets_no_signatures(self):
        simulator = Simulator(seed=1)
        node = Signing("slave-00", simulator, Network(simulator), "hmac")
        node.crash()
        got: list[Any] = []
        node.sign_batch([b"one"], got.append)
        assert got == []

    def test_socket_scheduler_signs_hmac_inline(self):
        async def scenario():
            scheduler = RealtimeScheduler(1, asyncio.get_running_loop())
            node = Signing("slave-00", scheduler, Network(scheduler), "hmac")
            got: list[Any] = []
            node.sign_batch([b"one", b"two"], got.append)
            assert got == [[node.keys.signer.sign(b"one"),
                            node.keys.signer.sign(b"two")]]
            assert scheduler.signing_worker is None
            scheduler.close()

        run(scenario())

    def test_child_answers_in_order_until_eof(self):
        """The child's loop, fed frames in memory."""
        keypair = generate_rsa_keypair(512, random.Random(3))
        key_id = b"\x00\x00\x00\x00"
        numbers = [signworker._int_bytes(getattr(keypair, name))
                   for name in signworker._KEY_FIELDS]
        batches = [[b"a", b"b"], [b"c"]]
        stdin = io.BytesIO(
            signworker.encode_frame([b"K", key_id, *numbers])
            + b"".join(signworker.encode_frame([b"S", key_id, *batch])
                       for batch in batches))
        stdout = io.BytesIO()
        signworker.serve(stdin, stdout)
        answers, data = [], stdout.getvalue()
        while data:
            size = int.from_bytes(data[:4], "big")
            answers.append([int.from_bytes(item, "big") for item in
                            signworker.decode_items(data[4:4 + size])])
            data = data[4 + size:]
        assert answers == [[rsa_sign(keypair, p) for p in batch]
                           for batch in batches]


def _rsa_spec(**overrides: Any) -> NetDeploymentSpec:
    fields: dict[str, Any] = dict(
        num_masters=1, slaves_per_master=2, num_clients=2, seed=9,
        protocol=fast_protocol_config(signer_scheme="rsa"))
    fields.update(overrides)
    return NetDeploymentSpec(**fields)


def _record_batches(slave: Node) -> list[tuple[list[bytes], list[Any]]]:
    """Wrap one slave's ``sign_batch``: (payloads, signatures) per batch
    whose continuation ran."""
    batches: list[tuple[list[bytes], list[Any]]] = []
    real = slave.sign_batch

    def sign_batch(payloads: list[bytes], then: Any) -> None:
        def recorded(signatures: list[Any]) -> None:
            batches.append((payloads, signatures))
            then(signatures)
        real(payloads, recorded)

    slave.sign_batch = sign_batch  # type: ignore[method-assign]
    return batches


async def _accepted_reads(cluster: LocalCluster, count: int) -> None:
    for index in range(count):
        client = cluster.clients[index % len(cluster.clients)]
        outcome = await cluster.read(client, KVGet(key="k"))
        assert outcome["status"] == "accepted", outcome


def _signers(cluster: LocalCluster) -> list[Node]:
    """The nodes that sign through ``sign_batch``: masters and slaves."""
    return [*cluster.masters, *cluster.slaves]


def _record_stamps(master: Node) -> list[VersionStamp]:
    """Wrap one master's ``send``: every stamp it sends, in order."""
    stamps: list[VersionStamp] = []
    send = master.send

    def recording_send(dst: str, message: Any,
                       size_bytes: int = 256) -> None:
        if isinstance(message, (KeepAlive, SlaveUpdate, SlaveSnapshot)):
            stamps.append(message.stamp)
        send(dst, message, size_bytes)

    master.send = recording_send  # type: ignore[method-assign]
    return stamps


def _record_received(slave: Node) -> list[tuple[str, VersionStamp]]:
    """Wrap one slave's ``on_message``: (kind, stamp) of every update
    and keep-alive it receives, in order."""
    got: list[tuple[str, VersionStamp]] = []
    on_message = slave.on_message

    def recording(src_id: str, message: Any) -> None:
        if isinstance(message, (KeepAlive, SlaveUpdate)):
            got.append((type(message).__name__, message.stamp))
        on_message(src_id, message)

    slave.on_message = recording  # type: ignore[method-assign]
    return got


async def _drained(cluster: LocalCluster) -> None:
    """Until the worker owes no batch: then every batch handed to it
    since a wrapper went on has reached that wrapper."""
    worker = cluster.scheduler.signing_worker
    assert worker is not None
    await cluster.wait_for(lambda: not worker._waiting, 5.0,
                           "the worker's queue to drain")


@pytest.mark.net
class TestWorker:
    @needs_two_cpus
    def test_signatures_equal_inline_rsa(self):
        async def scenario():
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            try:
                signers = _signers(cluster)
                made = sum(node.keys.signatures_made for node in signers)
                records = {node.node_id: _record_batches(node)
                           for node in signers}
                stamps = _record_stamps(cluster.masters[0])
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await _accepted_reads(cluster, 16)
                # The commit's stamp and a keep-alive's, at least.
                await cluster.wait_for(
                    lambda: len({stamp.timestamp for stamp in stamps}) >= 2,
                    2.0, "two stamps sent")
                await _drained(cluster)
                worker = cluster.scheduler.signing_worker
                assert worker is not None and worker.alive
                signed = {}
                for node in signers:
                    keypair = node.keys.signer.keypair
                    signed[node.node_id] = 0
                    for payloads, signatures in records[node.node_id]:
                        assert signatures == [rsa_sign(keypair, payload)
                                              for payload in payloads]
                        signed[node.node_id] += len(payloads)
                assert sum(signed[s.node_id] for s in cluster.slaves) >= 16
                assert signed["master-00"] >= 2
                assert sum(node.keys.signatures_made
                           for node in signers) - made == sum(signed.values())
                # Every stamp the master sent: its own fields' payload,
                # signed as inline RSA-FDH signs it, and verified.
                master = cluster.masters[0]
                keypair = master.keys.signer.keypair
                assert any(stamp.version == 1 for stamp in stamps)
                for stamp in stamps:
                    payload = VersionStamp.payload(
                        stamp.version, stamp.timestamp, stamp.master_id)
                    assert stamp.signed_payload() == payload
                    assert stamp.signature == rsa_sign(keypair, payload)
                    assert stamp.verify(master.keys, master.keys.public_key)
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    @needs_two_cpus
    def test_worker_counts_what_it_is_handed(self):
        async def scenario():
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            metrics = cluster.metrics
            try:
                # A master's first keep-alive started the worker inside
                # launch.
                assert metrics.count("signworker_batches") > 0
                signers = _signers(cluster)
                made = sum(node.keys.signatures_made for node in signers)
                counted = metrics.count("signworker_signatures")
                batches = metrics.count("signworker_batches")
                waited = metrics.count("signworker_wait_s")
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await _accepted_reads(cluster, 8)
                await _drained(cluster)
                handed = metrics.count("signworker_signatures") - counted
                assert handed == sum(node.keys.signatures_made
                                     for node in signers) - made
                assert handed >= 8
                assert metrics.count("signworker_batches") > batches
                assert metrics.count("signworker_wait_s") > waited
                assert metrics.count("signworker_unanswered_peak") >= 1
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    @needs_two_cpus
    def test_crashed_master_never_sends_the_stamp_at_the_worker(self):
        async def scenario():
            spec = _rsa_spec(slaves_per_master=1, num_clients=1)
            cluster = await LocalCluster.launch(spec, settle=0.4)
            master = cluster.masters[0]
            try:
                real = master.sign_batch
                stranded: list[bytes] = []

                def crash_meanwhile(payloads: list[bytes],
                                    then: Any) -> None:
                    real(payloads, then)
                    if not stranded:
                        stranded.extend(payloads)
                        # Down and up again before the worker answers:
                        # the stamp belongs to the life that ended.
                        master.crash()
                        master.recover()

                master.sign_batch = crash_meanwhile  # type: ignore
                stamps = _record_stamps(master)
                await cluster.wait_for(lambda: bool(stranded), 2.0,
                                       "a stamp at the worker")
                await _drained(cluster)
                # Later rounds are sent; the stranded stamp never is.
                await cluster.wait_for(lambda: len(stamps) >= 2, 5.0,
                                       "later keep-alives")
                assert stranded[0] not in [stamp.signed_payload()
                                           for stamp in stamps]
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario(), timeout=40.0)

    @needs_two_cpus
    @pytest.mark.parametrize("worker_dies", [False, True],
                             ids=["worker_lives", "worker_killed"])
    def test_update_reaches_slaves_before_the_keepalive_after_it(
            self, worker_dies):
        async def scenario():
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            master = cluster.masters[0]
            worker = cluster.scheduler.signing_worker
            assert worker is not None and worker.alive
            try:
                received = {slave.node_id: _record_received(slave)
                            for slave in cluster.slaves}
                real = master.sign_batch
                target = master.version + 1
                in_flight: list[bytes] = []

                def keepalive_meanwhile(payloads: list[bytes],
                                        then: Any) -> None:
                    real(payloads, then)
                    if master.version == target and not in_flight:
                        # The commit's stamp, then a keep-alive's, both
                        # at the worker before either is answered.
                        in_flight.extend(payloads)
                        master._keepalive_round()
                        in_flight.append(worker._waiting[-1][1][0])
                        if worker_dies:
                            os.kill(worker.pid, signal.SIGKILL)

                master.sign_batch = keepalive_meanwhile  # type: ignore
                outcome = await cluster.write(cluster.clients[0],
                                              KVPut(key="k", value=1))
                assert outcome["status"] == "committed", outcome
                update, keepalive = in_flight
                for slave in cluster.slaves:
                    got = received[slave.node_id]
                    await cluster.wait_for(
                        lambda: keepalive in [stamp.signed_payload()
                                              for _, stamp in got],
                        3.0, f"the keep-alive at {slave.node_id}")
                    order = [(kind, stamp.signed_payload())
                             for kind, stamp in got]
                    assert order.index(("SlaveUpdate", update)) < \
                        order.index(("KeepAlive", keepalive)), order
                    assert slave.version == target
                assert worker.alive is not worker_dies
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario(), timeout=40.0)

    @needs_two_cpus
    def test_commit_trace_reaches_the_slaves_through_the_worker(self):
        """The update leaves from the worker's answer, under the trace
        of the commit that asked for its stamp, as it would inline."""
        async def scenario():
            cluster = await LocalCluster.launch(
                _rsa_spec(obs_enabled=True), settle=0.4)
            try:
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await cluster.wait_for(
                    lambda: all(slave.version == 1
                                for slave in cluster.slaves),
                    3.0, "the slaves at version 1")
                assert cluster.scheduler.signing_worker is not None
                assert cluster.obs is not None
                spans = cluster.obs.collector.spans()
                commits = {span.trace_id for span in spans
                           if span.op == "master.commit"}
                applied = [span for span in spans if span.op == "slave.apply"]
                assert len(applied) == len(cluster.slaves)
                assert all(span.trace_id in commits for span in applied)
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    @needs_two_cpus
    def test_write_commits_while_its_stamp_is_at_the_worker(self):
        async def scenario():
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            master = cluster.masters[0]
            worker = cluster.scheduler.signing_worker
            assert worker is not None and worker.alive
            asked: list[tuple[int, bytes]] = []
            real = master.sign_batch

            def recording(payloads: list[bytes], then: Any) -> None:
                asked.append((master.version, payloads[0]))
                real(payloads, then)

            master.sign_batch = recording  # type: ignore[method-assign]
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                outcome = await cluster.write(cluster.clients[0],
                                              KVPut(key="k", value=1))
                assert outcome["status"] == "committed", outcome
                assert master.version == 1
                # The commit's stamp is still owed, and no slave has
                # heard of version 1.
                commit_stamp = next(payload for version, payload in asked
                                    if version == 1)
                assert commit_stamp in [payloads[0] for _key, payloads,
                                        _then, _at in worker._waiting]
                assert all(slave.version == 0 for slave in cluster.slaves)
                os.kill(worker.pid, signal.SIGCONT)
                await cluster.wait_for(
                    lambda: all(slave.version == 1
                                for slave in cluster.slaves),
                    3.0, "the slaves at version 1")
                assert worker.alive
                assert cluster.handler_errors() == []
            finally:
                os.kill(worker.pid, signal.SIGCONT)
                await cluster.aclose()

        run(scenario(), timeout=40.0)

    @needs_two_cpus
    def test_worker_holds_no_socket_and_exits_at_aclose(self):
        async def scenario():
            affinity = os.sched_getaffinity(0)
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            server = cluster.servers["master-00"]
            try:
                # A connection that exists before the worker starts.
                host, port = cluster.peers.endpoint("master-00")
                _reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(NetHello(node_id="watcher")))
                await writer.drain()
                await cluster.wait_for(
                    lambda: any(c.src_id == "watcher"
                                for c in server._connections), 2.0,
                    "the watcher's hello")
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await _accepted_reads(cluster, 4)
                worker = cluster.scheduler.signing_worker
                assert worker is not None and worker.alive
                fds = f"/proc/{worker.pid}/fd"
                if os.path.isdir(fds):
                    held = [os.readlink(f"{fds}/{fd}")
                            for fd in os.listdir(fds)]
                    assert not [link for link in held
                                if link.startswith("socket:")], held
                # Closing our end reaches the peer: nobody else holds it.
                writer.close()
                await cluster.wait_for(
                    lambda: not any(c.src_id == "watcher"
                                    for c in server._connections), 2.0,
                    "the watcher's close")
            finally:
                await cluster.aclose()
            assert worker.returncode == 0
            assert not worker.alive
            assert os.sched_getaffinity(0) == affinity

        run(scenario())

    @needs_two_cpus
    def test_crashed_slave_never_answers_the_batch_at_the_worker(self):
        async def scenario():
            spec = _rsa_spec(slaves_per_master=1, num_clients=1,
                             protocol=fast_protocol_config(
                                 signer_scheme="rsa",
                                 double_check_probability=0.0))
            cluster = await LocalCluster.launch(spec, settle=0.4)
            slave = cluster.slaves[0]
            try:
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await _accepted_reads(cluster, 2)  # the worker is up
                real = slave.sign_batch
                stranded: list[list[bytes]] = []

                def crash_meanwhile(payloads: list[bytes],
                                    then: Any) -> None:
                    real(payloads, then)
                    if not stranded:
                        stranded.append(payloads)
                        # Down and up again before the worker answers:
                        # the answer belongs to the life that ended.
                        slave.crash()
                        slave.recover()

                slave.sign_batch = crash_meanwhile  # type: ignore
                replies: list[str] = []
                send = slave.send

                def recording_send(dst: str, message: Any,
                                   size: int = 256) -> None:
                    if isinstance(message, ReadReply):
                        replies.append(message.request_id)
                    send(dst, message, size)

                slave.send = recording_send  # type: ignore[method-assign]
                worker = cluster.scheduler.signing_worker
                made = slave.keys.signatures_made
                outcome = await cluster.read(cluster.clients[0],
                                             KVGet(key="k"))
                assert outcome["status"] == "accepted", outcome
                assert len(stranded) == 1
                # The stranded batch was signed (and counted), but only
                # the re-issued read was answered, once.
                assert slave.keys.signatures_made == made + 2
                assert len(replies) == 1
                assert worker is not None and worker.alive
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario(), timeout=40.0)

    @needs_two_cpus
    def test_killed_worker_loses_no_read(self):
        async def scenario():
            affinity = os.sched_getaffinity(0)
            cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
            try:
                await cluster.write(cluster.clients[0], KVPut(key="k",
                                                              value=1))
                await _accepted_reads(cluster, 4)
                worker = cluster.scheduler.signing_worker
                assert worker is not None
                owed: list[Any] = []

                def kill_meanwhile(real: Any) -> Any:
                    def sign_batch(payloads: list[bytes],
                                   then: Any) -> None:
                        real(payloads, then)
                        if not owed:
                            owed.append(payloads)
                            os.kill(worker.pid, signal.SIGKILL)
                    return sign_batch

                for slave in cluster.slaves:
                    slave.sign_batch = kill_meanwhile(  # type: ignore
                        slave.sign_batch)
                loop = asyncio.get_running_loop()
                started = loop.time()
                await _accepted_reads(cluster, 12)
                assert owed, "no batch was at the worker when it died"
                assert not worker.alive
                assert worker.returncode == -signal.SIGKILL
                assert os.sched_getaffinity(0) == affinity
                # Nothing waited out a request timeout: the owed batch
                # was signed inline when the worker's pipe closed.
                elapsed = loop.time() - started
                assert elapsed < cluster.config.request_timeout, elapsed
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    @needs_two_cpus
    def test_one_worker_for_every_shard_stopped_by_aclose(self):
        async def scenario():
            affinity = os.sched_getaffinity(0)
            spec = ShardDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1,
                num_shards=2, num_hosts=2, seed=3,
                protocol=fast_protocol_config(
                    signer_scheme="rsa", double_check_probability=0.0))
            cluster = await ShardedCluster.launch(spec, settle=0.8)
            try:
                router = cluster.routers[0]
                keys: dict[str, str] = {}
                index = 0
                while set(keys) != set(cluster.shards):
                    key = f"k-{index}"
                    keys.setdefault(router.shard_for(KVGet(key=key)), key)
                    index += 1
                for key in keys.values():
                    outcome = await cluster.write(router,
                                                  KVPut(key=key, value=1))
                    assert outcome["status"] == "committed", outcome
                await asyncio.sleep(cluster.config.max_latency)
                for key in keys.values():
                    outcome = await cluster.read(router, KVGet(key=key))
                    assert outcome["status"] == "accepted", outcome
                worker = cluster.scheduler.signing_worker
                assert worker is not None and worker.alive
                # Both shards' slaves signed, on the one worker.
                assert all(slave.keys.signatures_made > 0
                           for slave in cluster.slaves)
                # Every key that signed, slaves' and masters'.
                assert all(master.keys.signatures_made > 0
                           for master in cluster.masters)
                assert len(worker._key_ids) == \
                    len(cluster.slaves) + len(cluster.masters)
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()
            assert worker.returncode == 0
            assert os.sched_getaffinity(0) == affinity

        run(scenario(), timeout=60.0)


@pytest.mark.net
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_one_cpu_signs_inline_and_starts_no_worker():
    """Pinned to one CPU, an RSA deployment signs its stamps and pledges
    inline, commits and reads, and starts no worker."""
    affinity = os.sched_getaffinity(0)

    async def scenario():
        cluster = await LocalCluster.launch(_rsa_spec(), settle=0.4)
        try:
            signers = _signers(cluster)
            made = {node.node_id: node.keys.signatures_made
                    for node in signers}
            outcome = await cluster.write(cluster.clients[0],
                                          KVPut(key="k", value=1))
            assert outcome["status"] == "committed", outcome
            await _accepted_reads(cluster, 4)
            assert cluster.scheduler.signing_worker is None
            assert cluster.metrics.count("signworker_batches") == 0
            signed = {node.node_id: node.keys.signatures_made
                      - made[node.node_id] for node in signers}
            # Stamps and pledges, all inline.
            assert signed["master-00"] >= 1
            assert sum(signed[slave.node_id]
                       for slave in cluster.slaves) >= 4
            assert cluster.handler_errors() == []
        finally:
            await cluster.aclose()

    os.sched_setaffinity(0, {min(affinity)})
    try:
        run(scenario())
    finally:
        os.sched_setaffinity(0, affinity)
    assert os.sched_getaffinity(0) == affinity
