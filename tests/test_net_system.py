"""End-to-end socket deployment tests (repro.net.deploy).

The acceptance scenario for the real-transport subsystem: the full
topology -- 2 masters, 4 slaves, 2 clients, 1 auditor plus the directory
-- boots on localhost ephemeral ports and runs the actual protocol code
over TCP:

* ACL-checked writes commit (and are denied for non-writers);
* reads come back pledge-verified, with the master's version-stamp and
  the slave's pledge signatures verified *after* crossing the wire;
* a corrupt slave's lie is caught by the double-check and the slave is
  excluded via a signed accusation (also carried over the wire);
* a killed TCP connection heals through retry/backoff without losing
  the request;
* key material is a deterministic function of the spec seed.

No pytest-asyncio: each test drives its own ``asyncio.run`` with a hard
``wait_for`` bound so a wedged cluster fails rather than hangs.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.chaos.faults import CUT, HEALTHY, FaultPlane
from repro.chaos.invariants import run_safety_checks
from repro.chaos.scenarios import (
    Crash,
    Outcome,
    Restart,
    Scenario,
    WaitUntil,
    Write,
    play_scenario,
)
from repro.core.adversary import (
    AlwaysLie,
    AnswerSubstitution,
    BrokenSignature,
)
from repro.core import master as master_module
from repro.core.messages import AuditBatch, ReadReply, SlaveSnapshot
from repro.core.oracle import classify_accepted_reads
from repro.core.system import audit_summary
from repro.net import codec
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)

from tests.test_net_codec import stamp_name
from tests.test_net_transport import written_to

pytestmark = pytest.mark.net


def run(coro, timeout: float = 90.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def acl_spec(seed: int = 5, **overrides) -> NetDeploymentSpec:
    config = fast_protocol_config(
        double_check_probability=0.0,
        writers_allowed=frozenset({"client-00"}))
    return NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                             num_clients=2, seed=seed, protocol=config,
                             **overrides)


class TestHonestCluster:
    def test_full_cycle_over_sockets(self):
        async def scenario():
            cluster = await LocalCluster.launch(acl_spec(), settle=0.6)
            try:
                assert len(cluster.masters) == 2
                assert len(cluster.slaves) == 4
                assert len(cluster.clients) == 2

                # -- ACL-checked writes --------------------------------
                committed = await cluster.write(
                    cluster.clients[0], KVPut(key="k", value="v1"))
                assert committed["status"] == "committed"
                assert committed["version"] == 1
                denied = await cluster.write(
                    cluster.clients[1], KVPut(key="k", value="evil"))
                assert denied["status"] == "rejected"
                assert "denied" in denied["reason"]

                # Both masters agree on the committed version via the
                # totally-ordered broadcast (over sockets).
                await asyncio.sleep(cluster.config.max_latency
                                    + cluster.config.keepalive_interval)
                assert [m.version for m in cluster.masters] == [1, 1]

                # -- pledge-verified reads -----------------------------
                for client in cluster.clients:
                    reply = await cluster.read(client, KVGet(key="k"))
                    assert reply["status"] == "accepted"
                    assert reply["result"]["value"] == "v1"
                counters = cluster.metrics.snapshot()
                assert counters["reads_accepted"] == 2
                # Signature verification happened on wire-decoded
                # stamps/pledges: acceptance requires verified pledges,
                # and the clients' keypairs counted the verify calls.
                assert sum(c.keys.verifications_done
                           for c in cluster.clients) > 0

                # -- sensitive read: master-only execution -------------
                sensitive = await cluster.read(
                    cluster.clients[1], KVGet(key="k"), level="sensitive")
                assert sensitive["status"] == "accepted"
                assert sensitive["result"]["value"] == "v1"

                # -- audit catches up ----------------------------------
                await asyncio.sleep(cluster.config.max_latency
                                    + cluster.config.audit_grace + 0.5)
                audit = audit_summary(cluster.auditors)
                assert audit["pledges_received"] >= 2
                assert audit["pledges_audited"] >= 2
                assert audit["detections"] == 0
                assert cluster.metrics.count("net_frames_received") > 0

                # Nothing blew up inside any handler on any node.
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_killed_connection_heals_by_retry(self):
        async def scenario():
            cluster = await LocalCluster.launch(acl_spec(seed=6),
                                                settle=0.6)
            try:
                writer = cluster.clients[0]
                first = await cluster.write(writer,
                                            KVPut(key="a", value=1))
                assert first["status"] == "committed"

                # Abort the live client->master TCP connection, then
                # write again: the pool must redial and deliver.
                master_id = writer.master_id
                assert master_id is not None
                assert cluster.kill_connection(writer.node_id, master_id)
                second = await cluster.write(writer,
                                             KVPut(key="b", value=2))
                assert second["status"] == "committed"
                assert second["version"] == 2
                assert cluster.metrics.snapshot()["net_retries"] >= 1
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


class TestAuditForwarding:
    def test_a_ticks_pledges_cross_the_wire_as_one_message(self):
        async def scenario():
            config = fast_protocol_config(double_check_probability=0.0)
            cluster = await LocalCluster.launch(NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1,
                seed=9, protocol=config), settle=0.6)
            try:
                (auditor,) = cluster.auditors
                (client,) = cluster.clients
                batches: list[int] = []
                handle = auditor.handle_protocol_message

                def watching(src_id, message):
                    if isinstance(message, AuditBatch):
                        batches.append(len(message.pledges))
                    handle(src_id, message)

                auditor.handle_protocol_message = watching
                # Depth 1: each read's pledge leaves on its own.
                for i in range(4):
                    reply = await cluster.read(client, KVGet(key="k"))
                    assert reply["status"] == "accepted"
                await cluster.wait_for(
                    lambda: auditor.pledges_received == 4, timeout=5.0)
                assert batches == [1, 1, 1, 1]
                # Depth 24: the slave answers a tick's requests in one
                # frame, so their pledges are accepted -- and forwarded
                # -- together.
                del batches[:]
                frames_before = cluster.metrics.count("net_frames_sent")
                replies = await asyncio.gather(*(
                    cluster.read(client, KVGet(key=f"k{i}"))
                    for i in range(24)))
                assert {r["status"] for r in replies} == {"accepted"}
                await cluster.wait_for(
                    lambda: auditor.pledges_received == 28, timeout=5.0)
                assert sum(batches) == 24
                assert len(batches) <= 6, batches
                # 24 requests + 24 replies + the audit messages + at
                # most a second of keep-alive and heartbeat chatter --
                # not a third message per read.
                frames = cluster.metrics.count("net_frames_sent") \
                    - frames_before
                assert frames < 48 + len(batches) + 18, frames
                assert not client._audit_outbox
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_no_wrong_read_is_left_unflagged(self):
        """The benchmark drill's cluster and load, with its 'reported,
        not judged' count judged: a lie in flight when its slave's
        exclusion reaches the client used to be accepted a tick later
        and never flagged for rollback (1-3 reads in most runs)."""
        liar = "slave-00-00"

        async def scenario():
            content = {f"k{i:03d}": f"v{i}" for i in range(50)}
            config = fast_protocol_config(
                double_check_probability=0.1, max_latency=0.4,
                keepalive_interval=0.1, audit_grace=0.1)
            cluster = await LocalCluster.launch(NetDeploymentSpec(
                num_masters=1, slaves_per_master=2, num_clients=4,
                seed=3, protocol=config,
                store_factory=lambda: KeyValueStore(dict(content)),
                adversaries={0: AlwaysLie(), 1: BrokenSignature()}),
                settle=0.25)
            try:
                (master,) = cluster.masters
                stopped = False
                serial = iter(range(10 ** 9))

                def read(client):
                    if not stopped:
                        client.submit(
                            KVGet(key=f"k{next(serial) % 50:03d}"), None,
                            lambda _outcome: read(client))

                for client in cluster.clients:
                    # Depth 4: replies in flight whenever the notice lands.
                    for _ in range(4):
                        read(client)
                await cluster.wait_for(
                    lambda: liar in master.excluded_slaves
                    and all(liar not in c.assigned_slaves
                            for c in cluster.clients), timeout=15.0)
                await asyncio.sleep(0.3)  # let the stragglers arrive
                stopped = True
                wrong = classify_accepted_reads(cluster).wrong
                assert wrong, "the liar never got a lie accepted"
                tainted = {record.request_id
                           for client in cluster.clients
                           for record in client.tainted_reads}
                assert [record for record in wrong
                        if record["request_id"] not in tainted] == []
                assert all(record["slaves"] == (liar,) for record in wrong)
            finally:
                await cluster.aclose()

        run(scenario())


class TestSlaveCrash:
    def test_slave_crashed_with_a_parked_read_answers_after_restart(self):
        """The host goes down between a read being answered and the
        tick's flush: that reply is lost with the process, and once the
        slave is back its reads are accepted again (it used to count
        them served and never send another reply)."""
        async def scenario():
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=9,
                protocol=fast_protocol_config(double_check_probability=0.0),
                store_factory=lambda: KeyValueStore({"k": "v"}))
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                slave, client = cluster.slaves[0], cluster.clients[0]
                warm = await cluster.read(client, KVGet(key="k"))
                assert warm["status"] == "accepted"

                deliver = slave.on_message
                crashing: list[asyncio.Future] = []

                def crash_once_parked(src_id, message):
                    deliver(src_id, message)
                    if slave._pending_reads and not crashing:
                        # The task's first step (every tenant's
                        # ``crash()``) runs ahead of this tick's flush.
                        crashing.append(asyncio.ensure_future(
                            cluster.crash_node(slave.node_id)))

                slave.on_message = crash_once_parked
                sent = slave.messages_sent
                pending = asyncio.ensure_future(
                    cluster.read(client, KVGet(key="k"), timeout=30.0))
                await cluster.wait_for(lambda: bool(crashing), 5.0,
                                       what="a read parked on the slave")
                await crashing[0]
                assert slave.crashed and slave.messages_sent == sent

                await cluster.restart_node(slave.node_id)
                # The interrupted read is re-issued on request_timeout;
                # fresh ones are answered as soon as a keep-alive lands.
                assert (await pending)["status"] == "accepted"
                for _ in range(3):
                    reply = await cluster.read(client, KVGet(key="k"))
                    assert reply["status"] == "accepted"
                assert slave.messages_sent >= sent + 4
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


    def test_restarted_slave_says_its_stamp_in_full_again(self):
        """What a connection remembers goes with the connection: the
        restarted slave has a new pool, so its first pledge to the
        client carries the stamp whole and the next one names it, and
        the client's redial to the slave starts from nothing too."""
        async def scenario():
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=9,
                protocol=fast_protocol_config(double_check_probability=0.0),
                store_factory=lambda: KeyValueStore({"k": "v"}))
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                slave, client = cluster.slaves[0], cluster.clients[0]

                def in_full_and_by_name(flushes) -> list[tuple[bool, bool]]:
                    """(stamp in full?, stamp by name?) per pledge the
                    slave wrote to the client."""
                    return [(codec.encode_value(reply.pledge.stamp)
                             in payload,
                             b"r" + stamp_name(reply.pledge.stamp)
                             in payload)
                            for _dst, batch, payload in flushes
                            for reply in batch
                            if isinstance(reply, ReadReply)
                            and reply.pledge is not None]

                async def two_reads_under_one_stamp() -> None:
                    seen = slave.latest_stamp
                    await cluster.wait_for(
                        lambda: slave.latest_stamp is not seen, 2.0,
                        what="the next keep-alive", poll=0.002)
                    for _ in range(2):
                        reply = await cluster.read(client, KVGet(key="k"))
                        assert reply["status"] == "accepted"

                before = written_to(cluster.pools[slave.node_id])
                await two_reads_under_one_stamp()
                assert in_full_and_by_name(before) == [(True, False),
                                                       (False, True)]
                to_slave = cluster.pools[client.node_id]._peers[
                    slave.node_id]
                old_context = to_slave.context
                assert old_context is not None

                await cluster.crash_node(slave.node_id)
                await cluster.restart_node(slave.node_id)
                after = written_to(cluster.pools[slave.node_id])
                await two_reads_under_one_stamp()
                assert in_full_and_by_name(after) == [(True, False),
                                                      (False, True)]
                assert to_slave.context not in (None, old_context)
                assert cluster.metrics.count("net_frames_rejected") == 0
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_slave_down_past_the_budget_fails_the_read(self):
        """A read's retry budget ends over sockets too: with its one
        slave gone the read is ``failed`` -- once, within
        ``(max_read_retries + 2) * request_timeout`` -- instead of being
        re-submitted for ever; the rest of the cluster never notices."""
        async def scenario():
            timeout, retries = 0.3, 2
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=24,
                protocol=fast_protocol_config(double_check_probability=0.0,
                                              request_timeout=timeout,
                                              max_read_retries=retries),
                store_factory=lambda: KeyValueStore({"k": "v"}))
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                slave, client = cluster.slaves[0], cluster.clients[0]
                await cluster.crash_node(slave.node_id)
                started = cluster.scheduler.now
                outcome = await cluster.read(client, KVGet(key="k"))
                took = cluster.scheduler.now - started
                assert outcome == {"status": "failed", "reason": "timeout"}
                # Half a time-out of slack for a loaded event loop.
                assert (retries + 1) * timeout <= took \
                    <= (retries + 2.5) * timeout
                count = cluster.metrics.count
                assert count("reads_submitted") == 1
                assert count("reads_failed") == 1
                assert not client._reads

                await cluster.restart_node(slave.node_id)
                await cluster.wait_for(slave.is_fresh, 5.0,
                                       what="the slave back in sync")
                outcome = await cluster.read(client, KVGet(key="k"))
                assert outcome["status"] == "accepted"
                written = await cluster.write(client, KVPut(key="k2",
                                                            value=1))
                assert written["status"] == "committed"
                assert count("reads_submitted") == 2
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_slave_down_past_the_ops_log_installs_the_snapshot_as_sent(
            self, monkeypatch):
        """A slave that missed more than ``OPS_LOG_DEPTH`` writes gets a
        full state transfer.  The transfer is held back while the master
        commits once more: what the slave installs is the state at the
        snapshot's stamp, and from there it converges on the master."""
        monkeypatch.setattr(master_module, "OPS_LOG_DEPTH", 2)

        async def scenario():
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=12,
                protocol=fast_protocol_config(double_check_probability=0.0))
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                master, slave = cluster.masters[0], cluster.slaves[0]
                client = cluster.clients[0]
                await cluster.crash_node(slave.node_id)
                for i in range(4):
                    outcome = await cluster.write(
                        client, KVPut(key=f"w{i}", value=i))
                    assert outcome["status"] == "committed"

                send, held = master.send, []

                def hold_snapshots(dst_id, message, **kwargs):
                    if isinstance(message, SlaveSnapshot):
                        held.append((dst_id, message, kwargs))
                    else:
                        send(dst_id, message, **kwargs)

                master.send = hold_snapshots
                await cluster.restart_node(slave.node_id)
                await cluster.wait_for(lambda: bool(held), 5.0,
                                       what="a snapshot for the slave")
                late = await cluster.write(client, KVPut(key="late", value=1))
                assert late["status"] == "committed" and master.version == 5
                assert slave.version == 0

                deliver, installed = slave.on_message, []

                def record_install(src_id, message):
                    deliver(src_id, message)
                    if isinstance(message, SlaveSnapshot):
                        installed.append(
                            (slave.version, slave.store.state_digest()))

                slave.on_message = record_install
                master.send = send
                dst_id, message, kwargs = held[0]
                send(dst_id, message, **kwargs)
                await cluster.wait_for(
                    lambda: slave.version == master.version, 10.0,
                    what="the slave caught up with the master")
                assert installed[0] == \
                    (4, master.store_at(4).state_digest())
                assert slave.store.state_digest() == \
                    master.store.state_digest()
                counters = cluster.metrics.snapshot()
                assert counters["slave_snapshots_installed"] >= 1
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


def _delivered_from_two_masters(run_):
    """client-01 and client-02 are homed on master-00 and master-01, and
    the victim has committed one of their writes and been delivered the
    other."""
    victim = run_.node("master-02")
    homes = {run_.node(c).master_id for c in ("client-01", "client-02")}
    return Outcome(homes == {"master-00", "master-01"}
                   and victim.version == 1 and len(victim._write_states) == 2,
                   f"homes {sorted(homes)}, victim at {victim.version} with "
                   f"{len(victim._write_states)} writes delivered")


def _survivors_committed_while_victim_down(run_):
    versions = tuple(m.version for m in run_.cluster.masters)
    return Outcome(versions == (2, 2, 1), f"versions {versions}")


def _survivors_at_two_victim_repaired(run_):
    masters = run_.cluster.masters
    acked = run_.cluster.metrics.count("writes_committed")
    return Outcome(all(m.version == 2 for m in masters[:2])
                   and masters[2].broadcast.is_caught_up() and acked == 2,
                   f"versions {[m.version for m in masters]}, {acked:.0f} "
                   f"of 2 writes acknowledged committed")


#: "The lost commit" (docs/ROBUSTNESS.md): two masters take a write at
#: once, so the second commits ``max_latency`` (0.8 s) after the first;
#: the third master is crashed inside that window and restarted after.
#: The writes are probes: their clients' acknowledgements are counted.
LOST_COMMIT = (
    Write(None, "w{i}", 1, by=("client-01", "client-02")),
    WaitUntil(_delivered_from_two_masters, 5.0, check="one_of_two_delivered"),
    Crash("master-02"),
    WaitUntil(_survivors_committed_while_victim_down, 5.0,
              check="commit_fell_due_while_down"),
    Restart("master-02"),
    WaitUntil(_survivors_at_two_victim_repaired, 10.0, check="repaired"))


class TestMasterCrash:
    def test_master_down_when_a_spaced_commit_falls_due_still_commits(self):
        """The write was delivered to the victim, the broadcast never
        redelivers it, and it used to stay one version behind for good:
        the oracle's ``survivors_converged`` went red."""
        spec = NetDeploymentSpec(
            num_masters=3, slaves_per_master=1, num_clients=3,
            protocol=fast_protocol_config(double_check_probability=0.0))
        verdict = run(play_scenario(
            Scenario("lost_commit", (spec,), LOST_COMMIT), seed=11))
        failed = [check.to_json() for check in verdict.failures()]
        assert failed == []
        assert [check.name for check in verdict.checks] == [
            "one_of_two_delivered", "commit_fell_due_while_down", "repaired",
            "no_forged_reads", "consistency_window",
            "survivors_converged", "clients_on_live_masters"]
        assert verdict.counters.get("net_handler_errors", 0) == 0


    def test_master_crashed_with_a_write_in_flight_can_write_again(self):
        """The simulator's write-dead-master schedule over sockets: a
        follower cut off from the trusted set takes a write, crashes
        across the moment its request would have been retransmitted and
        restarts healed.  The retransmission used to die with the
        crash: the write only committed once the client timed out and
        re-homed, and the master never submitted a write again."""
        async def scenario():
            plane = FaultPlane(seed=11)
            spec = NetDeploymentSpec(
                num_masters=3, slaves_per_master=1, num_clients=3, seed=11,
                protocol=fast_protocol_config(double_check_probability=0.0))
            cluster = await LocalCluster.launch(spec, settle=0.6,
                                                plane=plane)
            try:
                home = {c.master_id: c for c in cluster.clients}
                victim = cluster.masters[1]
                assert not victim.broadcast.is_sequencer
                client = home[victim.node_id]
                for other in (*cluster.masters, *cluster.auditors):
                    if other is not victim:
                        plane.set_link(victim.node_id, other.node_id, CUT,
                                       symmetric=True)
                first = asyncio.ensure_future(
                    cluster.write(client, KVPut(key="a", value=1)))
                await cluster.wait_for(lambda: victim._write_inflight, 2.0,
                                       what="write taken by the victim")
                await asyncio.sleep(0.9)
                await cluster.crash_node(victim.node_id)
                await asyncio.sleep(0.3)
                plane.set_default(HEALTHY)
                await cluster.restart_node(victim.node_id)
                assert (await asyncio.wait_for(first, 3.0))["status"] \
                    == "committed"
                # The sequencer's answer may reach the client before the
                # order reaches the victim: its flag clears on its commit.
                await cluster.wait_for(
                    lambda: not victim._write_inflight, 2.0,
                    what="the victim free to submit again")
                assert not victim._write_queue
                await asyncio.sleep(cluster.config.max_latency)
                second = await cluster.write(
                    client, KVPut(key="b", value=2), timeout=2.0)
                assert second["status"] == "committed"
                assert client.master_id == victim.node_id
                assert cluster.metrics.count("write_timeouts") == 0
                assert cluster.metrics.count(
                    f"commits@{victim.node_id}") == 2
                await cluster.wait_for(
                    lambda: all(m.version == 2 for m in cluster.masters),
                    5.0, what="every master at version 2")
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


class TestCorruptSlave:
    def test_lie_detected_and_slave_excluded(self):
        async def scenario():
            # client-00's stable master preference (hash of its id) is
            # master-00, whose slaves (global indices 0 and 1) both lie
            # -- so its first double-checked read is guaranteed to hit a
            # liar.  slave-01-01 (index 3) stays honest so the retry
            # chain has somewhere correct to converge.
            config = fast_protocol_config(
                double_check_probability=0.5, audit_fraction=0.0,
                writers_allowed=frozenset({"client-00"}))
            spec = NetDeploymentSpec(
                num_masters=2, slaves_per_master=2, num_clients=2,
                seed=7, protocol=config,
                adversaries={0: AlwaysLie(), 1: AlwaysLie(),
                             2: AlwaysLie()},
                client_double_check_overrides={0: 1.0, 1: 1.0})
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                committed = await cluster.write(
                    cluster.clients[0], KVPut(key="k", value="true"))
                assert committed["status"] == "committed"
                await asyncio.sleep(cluster.config.max_latency
                                    + cluster.config.keepalive_interval)

                reply = await cluster.read(cluster.clients[0],
                                           KVGet(key="k"), timeout=60.0)
                # The corrupted answer must never be accepted; after the
                # liars are excluded the reassignment chain reaches the
                # honest slave and the read completes with the truth.
                assert reply["status"] == "accepted"
                assert reply["result"]["value"] == "true"

                counters = cluster.metrics.snapshot()
                assert counters["immediate_detections"] >= 1
                assert counters["slave_lies_served"] >= 1

                # The accusation crossed the wire, was re-verified by
                # the master and ended in a broadcast exclusion.
                deadline = asyncio.get_running_loop().time() + 20.0
                while not cluster.metrics.snapshot().get("exclusions"):
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("exclusion never happened")
                    await asyncio.sleep(0.1)
                excluded = set().union(
                    *(m.excluded_slaves for m in cluster.masters))
                assert excluded and "slave-01-01" not in excluded
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


class TestAnswerSubstitution:
    def test_a_valid_pledge_for_another_query_is_never_accepted(self):
        """The slave answers every read with a truthful, signed pledge
        for a decoy query, sending its seal over TCP.  The client
        rebuilds the pledge from its own query, the slave's signature
        does not cover it (``bad_signature``), and after the re-setup
        the honest slave answers: nothing wrong is accepted, and there
        is no evidence to audit or exclude on."""
        async def scenario():
            content = {f"k{i:03d}": f"v{i}" for i in range(10)}
            config = fast_protocol_config(double_check_probability=0.0,
                                          max_read_retries=2,
                                          request_timeout=1.0)
            cluster = await LocalCluster.launch(NetDeploymentSpec(
                num_masters=1, slaves_per_master=2, num_clients=1, seed=1,
                protocol=config,
                store_factory=lambda: KeyValueStore(dict(content)),
                adversaries={0: AnswerSubstitution(KVGet(key="k000"))}),
                settle=0.6)
            try:
                (client,) = cluster.clients
                # Seed 1 assigns the substituting slave first.
                assert client.assigned_slaves == ("slave-00-00",)
                outcomes = [await cluster.read(client, KVGet(key=f"k{i:03d}"),
                                               timeout=30.0)
                            for i in range(1, 7)]
                accepted = [(i, outcome) for i, outcome
                            in enumerate(outcomes, start=1)
                            if outcome["status"] == "accepted"]
                assert accepted
                assert all(outcome["result"]["value"] == f"v{i}"
                           for i, outcome in accepted)
                counters = cluster.metrics.snapshot()
                assert counters["slave_substituted_queries"] >= 1
                assert counters["read_reply_bad_signature"] \
                    == counters["slave_substituted_queries"]
                assert classify_accepted_reads(cluster).wrong == []
                assert counters.get("exclusions", 0) == 0
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


class TestDeterminism:
    def test_key_material_is_a_function_of_the_seed(self):
        async def build_fingerprints(seed: int):
            spec = NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                                     num_clients=1, seed=seed)
            cluster = LocalCluster(spec, asyncio.get_running_loop())
            await cluster._build()
            try:
                return (
                    cluster.owner.content_key_fingerprint(),
                    [repr(m.keys.public_key) for m in cluster.masters],
                    [repr(s.keys.public_key) for s in cluster.slaves],
                )
            finally:
                await cluster.aclose()

        async def scenario():
            a = await build_fingerprints(11)
            b = await build_fingerprints(11)
            c = await build_fingerprints(12)
            assert a == b  # same seed, same keys -- ports differ, keys don't
            assert a[0] != c[0]  # different seed, different identity

        run(scenario())
