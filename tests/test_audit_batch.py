"""The batched audit path: per-tick pledge forwarding, batch-at-a-time audit.

Two properties carry the change.  On the auditor, an ``AuditBatch`` of N
pledges must be indistinguishable -- counters, cache, detections,
accusations -- from N ``AuditSubmission`` messages, with no entry able
to hold back or poison its batch mates.  On the client, every accepted
read that was not double-checked must have its pledge reach an auditor
exactly once, whichever way the outbox is flushed.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Any, Callable

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import AlwaysLie
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    Accusation,
    AuditBatch,
    AuditSubmission,
    BcastWrite,
    ExclusionNotice,
    Pledge,
    SlaveAssignment,
    VersionStamp,
)
from repro.core.system import ReplicationSystem
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.sim.latency import ConstantLatency

from .conftest import make_system

AUDIT_COUNTERS = (
    "pledges_forwarded", "pledges_audited", "pledges_skipped",
    "audits_clean", "audits_bad_signature", "audits_unverifiable",
    "audits_unknown_slave", "audit_detections",
)


def make_pledge(system: ReplicationSystem, signer: KeyPair, version: int,
                key: str, request_id: str, lie: bool = False) -> Pledge:
    query = KVGet(key=key)
    store = system.masters[0].store_at(version)
    result_hash = sha1_hex("a lie" if lie or store is None
                           else store.execute_read(query).result)
    stamp = VersionStamp.make(system.masters[0].keys, version, system.now)
    return Pledge.make(signer, query.to_wire(), result_hash, stamp,
                       request_id)


def watch_messages(node: Any, kind: type) -> list[Any]:
    """Every ``kind`` message ``node`` is handed from now on."""
    seen: list[Any] = []
    original = node.on_message

    def on_message(src_id: str, message: Any) -> None:
        if isinstance(message, kind):
            seen.append(message)
        original(src_id, message)

    node.on_message = on_message
    return seen


def audited_request_ids(auditors: list[Any]) -> Counter[str]:
    """request_id -> how many times any auditor took delivery of it."""
    seen: Counter[str] = Counter()
    for auditor in auditors:
        original = auditor._intake

        def intake(pledges: Any, original: Callable[..., None] = original
                   ) -> None:
            seen.update(pledge.request_id for pledge in pledges)
            original(pledges)

        auditor._intake = intake
    return seen


def forwarded_reads(system: ReplicationSystem) -> list[str]:
    return [record.request_id for client in system.clients
            for record in client.accepted_log if not record.double_checked]


# -- (a) the auditor: a batch is N submissions -------------------------------


class TestBatchEqualsSubmissions:
    def _run(self, batched: bool) -> dict[str, Any]:
        config = ProtocolConfig(double_check_probability=0.0,
                                max_latency=1.0, keepalive_interval=0.5,
                                audit_grace=0.5, version_history_depth=2)
        system = make_system(protocol=config)
        system.start()
        for i in range(3):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
            system.run_for(3.0)
        auditor = system.auditor
        assert auditor.version == 3 and auditor.store_at(0) is None
        accusations = watch_messages(system.masters[0], Accusation)
        slave = system.slaves[0].keys
        stranger = KeyPair("slave-77-77", new_signer(
            "hmac", rng=random.Random(7)))
        clean = make_pledge(system, slave, 3, "k001", "c:r0")
        pledges = [
            clean,
            make_pledge(system, slave, 3, "k002", "c:r1", lie=True),
            dataclasses.replace(
                make_pledge(system, slave, 3, "k003", "c:r2"),
                signature=b"\x00garbage"),
            make_pledge(system, stranger, 3, "k004", "c:r3"),
            make_pledge(system, slave, 0, "k005", "c:r4"),   # out of history
            make_pledge(system, slave, 3, "k001", "c:r5"),   # cache hit
            make_pledge(system, slave, 2, "k006", "c:r6"),   # older version
        ]
        if batched:
            auditor.on_message("client-00", AuditBatch(tuple(pledges)))
        else:
            for pledge in pledges:
                auditor.on_message("client-00", AuditSubmission(pledge))
        system.run_for(0.5)
        # Nobody waited for the unknown slave: no enrolled certificate
        # names it, so it is counted at once.
        early = (auditor.pledges_audited,
                 system.metrics.count("audits_unknown_slave"))
        system.run_for(60.0)
        return {
            "early": early,
            "auditor": (auditor.pledges_received, auditor.pledges_audited,
                        auditor.pledges_skipped, auditor.detections,
                        auditor.cache_hits, auditor.cache_misses),
            "counters": {name: system.metrics.count(name)
                         for name in AUDIT_COUNTERS},
            "cache": dict(auditor._cache),
            "accused": [a.pledge.request_id for a in accusations],
            "excluded": sorted(system.masters[0].excluded_slaves),
        }

    def test_mixed_batch_matches_one_at_a_time(self):
        batch, singles = self._run(True), self._run(False)
        assert batch == singles
        assert batch["early"] == (5, 1)
        assert batch["auditor"] == (7, 5, 0, 1, 1, 4)
        assert batch["counters"] == {
            "pledges_forwarded": 7, "pledges_audited": 5,
            "pledges_skipped": 0, "audits_clean": 3,
            "audits_bad_signature": 1, "audits_unverifiable": 1,
            "audits_unknown_slave": 1, "audit_detections": 1}
        # Only the liar is accused: never the garbled signature.
        assert batch["accused"] == ["c:r1"]
        assert batch["excluded"] == ["slave-00-00"]

    def test_sampling_is_per_pledge(self):
        """(c) ``audit_fraction`` draws once per pledge, not per message."""
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, audit_fraction=0.5))
        system.start()
        auditor = system.auditor
        pledges = tuple(
            make_pledge(system, system.slaves[0].keys, 0, f"k{i:03d}",
                        f"c:r{i}") for i in range(64))
        auditor.on_message("client-00", AuditBatch(pledges[:40]))
        auditor.on_message("client-00", AuditBatch(pledges[40:]))
        system.run_for(5.0)
        assert auditor.pledges_received == 64
        assert 0 < auditor.pledges_skipped < 64
        assert auditor.pledges_received == \
            auditor.pledges_audited + auditor.pledges_skipped
        assert system.metrics.count("pledges_skipped") == \
            auditor.pledges_skipped

    def test_released_backlog_is_one_timer(self):
        """(d) a version's parked pledges are released as one batch."""
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        auditor = system.auditor
        system.masters[0].commit_op(KVPut(key="x", value=1).to_wire())
        pledges = tuple(
            make_pledge(system, system.slaves[0].keys, 1, f"k{i:03d}",
                        f"c:r{i}") for i in range(50))
        auditor.on_message("client-00", AuditBatch(pledges))
        assert len(auditor._parked[1]) == 50
        scheduled: list[float] = []
        schedule = system.simulator.schedule

        def counting(delay: float, callback: Any, *args: Any) -> Any:
            scheduled.append(delay)
            return schedule(delay, callback, *args)

        system.simulator.schedule = counting  # type: ignore[method-assign]
        auditor._apply_write("master-00", BcastWrite(
            client_id="client-00", request_id="w",
            op_wire=KVPut(key="x", value=1).to_wire()))
        del system.simulator.schedule
        assert len(scheduled) == 1
        # ... charged what fifty single audits would have cost in all.
        config = system.config
        assert scheduled[0] == pytest.approx(50 * (
            2 * config.verify_time + config.hash_time
            + config.service_time_per_unit))
        system.run_for(1.0)
        assert auditor.pledges_audited == 50 and not auditor._parked
        assert auditor.detections == 0


# -- (b) the client: every pledge reaches an auditor exactly once ----------


def burst(system: ReplicationSystem, client: Any, count: int) -> list[dict]:
    outcomes: list[dict] = []
    for i in range(count):
        client.submit_read(KVGet(key=f"k{i:03d}"), callback=outcomes.append)
    return outcomes


def assert_forwarded_exactly_once(system: ReplicationSystem,
                                  seen: Counter[str]) -> None:
    assert seen == Counter(forwarded_reads(system))


class TestEveryPledgeForwardedOnce:
    CONFIG = ProtocolConfig(double_check_probability=0.0,
                            simulate_service_times=False)

    def test_single_read_flushes_in_its_own_tick(self):
        system = make_system(protocol=self.CONFIG)
        system.start()
        client = system.clients[0]
        batches = watch_messages(system.auditor, AuditBatch)
        seen = audited_request_ids(system.auditors)
        accepted_at: list[float] = []
        arrived_at: list[float] = []
        intake = system.auditor._intake

        def arriving(pledges: Any) -> None:
            arrived_at.append(system.now)
            intake(pledges)

        system.auditor._intake = arriving
        client.submit_read(KVGet(key="k001"),
                           callback=lambda _o: accepted_at.append(system.now))
        system.run_for(1.0)
        assert [len(batch.pledges) for batch in batches] == [1]
        assert not client._audit_outbox
        # Forwarded in the accepting tick, no timer: it arrives exactly
        # one (10 ms) link delay after the accept.
        assert arrived_at == [pytest.approx(accepted_at[0] + 0.01)]
        assert_forwarded_exactly_once(system, seen)

    def test_same_tick_accepts_share_one_message(self):
        system = make_system(protocol=self.CONFIG)
        system.start()
        client = system.clients[0]
        batches = watch_messages(system.auditor, AuditBatch)
        seen = audited_request_ids(system.auditors)
        sent_before = client.messages_sent
        outcomes = burst(system, client, 8)
        system.run_for(1.0)
        assert [o["status"] for o in outcomes] == ["accepted"] * 8
        assert [len(batch.pledges) for batch in batches] == [8]
        # Eight requests and one audit message, not sixteen.
        assert client.messages_sent - sent_before == 9
        assert_forwarded_exactly_once(system, seen)

    def test_straggler_behind_a_burst_is_flushed_by_the_timer(self):
        """Seven accepts with an eighth read still in flight: nobody is
        'last', so the end-of-tick timer must carry the batch."""
        system = make_system(protocol=self.CONFIG)
        system.start()
        client = system.clients[0]
        batches = watch_messages(system.auditor, AuditBatch)
        seen = audited_request_ids(system.auditors)
        burst(system, client, 7)
        system.simulator.schedule(0.005, client.submit_read,
                                  KVGet(key="k050"))
        system.run_for(1.0)
        assert [len(batch.pledges) for batch in batches] == [7, 1]
        assert_forwarded_exactly_once(system, seen)

    def test_reassignment_with_a_loaded_outbox(self):
        system = make_system(protocol=self.CONFIG, num_auditors=2)
        system.start()
        client = system.clients[0]
        seen = audited_request_ids(system.auditors)
        other = next(a.node_id for a in system.auditors
                     if a.node_id != client.auditor_id)
        pledge = make_pledge(system, system.slaves[0].keys, 0, "k001",
                             "held")
        client._audit_outbox.append(pledge)
        replacement = SlaveAssignment(
            slave_certificates=tuple(client.slave_certs.values()),
            auditor_id=other)
        client.on_message(client.master_id, ExclusionNotice(
            excluded_slave_id="", replacement=replacement))
        burst(system, client, 3)
        system.run_for(1.0)
        # Nothing stranded, nothing doubled; all of it at the new auditor.
        assert not client._audit_outbox
        assert seen == Counter(forwarded_reads(system) + ["held"])
        assert system.node(other).pledges_received == 4

    def test_rehome_forwards_to_the_old_home_first(self):
        system = make_system(protocol=self.CONFIG)
        system.start()
        client = system.clients[0]
        seen = audited_request_ids(system.auditors)
        client._audit_outbox.append(make_pledge(
            system, system.slaves[0].keys, 0, "k001", "held"))
        client.rehome()
        assert not client._audit_outbox
        system.run_for(2.0)
        assert seen == Counter(["held"])

    def test_crash_with_a_loaded_outbox(self):
        system = make_system(protocol=self.CONFIG)
        system.start()
        client = system.clients[0]
        seen = audited_request_ids(system.auditors)
        burst(system, client, 4)
        # Crash in the accepting tick, between the accepts and the
        # end-of-tick flush: three are accepted, one is still in flight.
        original = client._finish_read
        accepts = []

        def finish(attempt: Any, **kwargs: Any) -> None:
            original(attempt, **kwargs)
            accepts.append(attempt.request_id)
            if len(accepts) == 3:
                client.crash()

        client._finish_read = finish
        system.run_for(1.0)
        assert len(client.accepted_log) == 3 and client.crashed
        assert not client._audit_outbox
        client.recover()
        burst(system, client, 2)
        system.run_for(30.0)
        assert_forwarded_exactly_once(system, seen)

    def test_auditor_failover(self):
        system = make_system(protocol=self.CONFIG, num_auditors=2)
        system.start()
        seen = audited_request_ids(system.auditors)
        client = system.clients[0]
        first = client.auditor_id
        burst(system, client, 4)
        system.run_for(1.0)
        system.node(first).crash()
        system.run_for(10.0)  # masters notice and re-point the client
        assert client.auditor_id != first
        burst(system, client, 4)
        system.run_for(2.0)
        assert len(client.accepted_log) == 8
        assert_forwarded_exactly_once(system, seen)
        assert sum(a.pledges_received for a in system.auditors) == 8


# -- (e) tracing: a batch travels under one context -------------------------


def test_audit_events_name_their_read_under_tracing():
    system = make_system(protocol=ProtocolConfig(
        double_check_probability=0.0, simulate_service_times=False),
        obs_enabled=True)
    system.start()
    for client in system.clients[:2]:
        burst(system, client, 6)
    system.run_for(30.0)
    assert system.obs is not None
    audits = [span for span in system.obs.collector.spans()
              if span.op == "auditor.audit"]
    assert sorted(span.attrs["request_id"] for span in audits) == \
        sorted(forwarded_reads(system))
    assert len(audits) == 12


# -- (g) no verification dropped, as an exact count ------------------------


def test_verify_calls_per_read_are_exact(monkeypatch: pytest.MonkeyPatch):
    reads = 40
    system = make_system(
        protocol=ProtocolConfig(double_check_probability=0.0,
                                audit_fraction=1.0,
                                simulate_service_times=False),
        latency=ConstantLatency(0.01))
    system.start()
    calls: Counter[str] = Counter()
    verify = KeyPair.verify

    def counting(self: KeyPair, *args: Any, **kwargs: Any) -> bool:
        calls[self.owner_id.rstrip("-0123456789")] += 1
        return verify(self, *args, **kwargs)

    monkeypatch.setattr(KeyPair, "verify", counting)
    outcomes: list[dict] = []
    rng = random.Random(5)
    for i in range(reads):
        # A mix of lone reads (immediate flush) and same-tick bursts.
        system.schedule_op(system.clients[i % 2],
                           system.now + 0.5 * (i // 8),
                           KVGet(key=f"k{rng.randrange(100):03d}"),
                           callback=outcomes.append)
    system.run_for(30.0)
    assert [o["status"] for o in outcomes] == ["accepted"] * reads
    assert system.auditor.pledges_audited == reads
    # Client: the pledge and the stamp inside it.  Auditor: the pledge.
    assert calls["client"] == 2 * reads
    assert calls["zz-auditor"] == reads


# -- the in-flight liar (Section 3.5) ---------------------------------------


class TestExcludedSlaveIsNeverBelieved:
    def _liar_system(self) -> ReplicationSystem:
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    request_timeout=1.0),
            adversaries={0: AlwaysLie()})
        system.start()
        return system

    def test_reply_in_flight_across_the_exclusion_is_refused(self):
        system = self._liar_system()
        liar = system.slaves[0].node_id
        client = next(c for c in system.clients
                      if c.assigned_slaves == (liar,))
        outcomes: list[dict] = []
        client.submit_read(KVGet(key="k001"), callback=outcomes.append)
        # The lie is on the wire (10 ms links); the exclusion overtakes it.
        system.run_for(0.012)
        assert not outcomes
        honest = system.slaves[1]
        master = system.node(client.master_id)
        replacement = SlaveAssignment(
            slave_certificates=(master.find_slave_cert(honest.node_id),),
            auditor_id=client.auditor_id)
        client.on_message(client.master_id, ExclusionNotice(
            excluded_slave_id=liar, replacement=replacement))
        system.run_for(5.0)
        assert [o["status"] for o in outcomes] == ["accepted"]
        (record,) = client.accepted_log
        assert record.slave_ids == (honest.node_id,)
        assert system.metrics.count("read_replies_unassigned") == 1
        assert system.classify_accepted_reads()["accepted_wrong"] == 0

    def test_reply_held_across_the_exclusion_is_refused(self):
        """A lie parked behind two timed-out double-checks falls back to
        the audit path -- after its slave was excluded."""
        system = self._liar_system()
        liar = system.slaves[0].node_id
        client = next(c for c in system.clients
                      if c.assigned_slaves == (liar,))
        client.double_check_override = 0.999999
        master = system.node(client.master_id)
        # The double-check is never answered (a partition here; a master
        # throttling a greedy client looks the same) ...
        system.network.partition(client.node_id, master.node_id)
        outcomes: list[dict] = []
        client.submit_read(KVGet(key="k001"), callback=outcomes.append)
        system.run_for(0.05)
        (attempt,) = client._reads.values()
        assert attempt.state == "double_checking"
        assert liar in attempt.replies
        # ... and meanwhile another client's accusation lands.
        attempt.probability = 0.0
        replacement = SlaveAssignment(
            slave_certificates=(master.find_slave_cert(
                system.slaves[1].node_id),),
            auditor_id=client.auditor_id)
        client.on_message(client.master_id, ExclusionNotice(
            excluded_slave_id=liar, replacement=replacement))
        system.run_for(60.0)
        assert [o["status"] for o in outcomes] == ["accepted"]
        assert all(liar not in record.slave_ids
                   for record in client.accepted_log)
        assert system.metrics.count("read_replies_unassigned") >= 1

    def test_no_wrong_read_goes_unflagged(self):
        """The drill's 'reported, not judged' figure, judged: every wrong
        result a client holds is flagged for rollback."""
        system = self._liar_system()
        rng = random.Random(3)
        at = system.now
        for i in range(400):
            at += 0.01
            system.schedule_op(system.clients[i % 4], at,
                               KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(120.0)
        wrong = system.classify_accepted_reads()["wrong_records"]
        assert wrong, "the liar never got a lie accepted"
        tainted = {record.request_id for client in system.clients
                   for record in client.tainted_reads}
        unflagged = [record for record in wrong
                     if record["request_id"] not in tainted]
        assert not unflagged
        assert system.slaves[0].node_id in \
            system.masters[0].excluded_slaves
