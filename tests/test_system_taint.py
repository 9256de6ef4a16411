"""Integration tests: taint tracking and rollback (Section 3.5).

"In the case of delayed discovery, the situation is more complex, since
at least one client has already accepted an incorrect answer.  In some
applications, the harm may be undone, by rolling back the client to the
state before that particular read."
"""

from __future__ import annotations

import random

from repro.content.kvstore import KVGet
from repro.core.adversary import AlwaysLie, BrokenSignature
from repro.core.client import AcceptedRead
from repro.core.config import ProtocolConfig
from repro.core.messages import ExclusionNotice, SlaveAssignment

from .conftest import make_system


def drive(system, count, rate=10.0, seed=1):
    rng = random.Random(seed)
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        system.schedule_op(system.clients[i % len(system.clients)], t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestTaintTracking:
    def test_accepted_lies_marked_tainted_after_exclusion(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive(system, 60)
        system.run_for(90.0)
        tainted = [r for c in system.clients for r in c.tainted_reads]
        wrong = system.classify_accepted_reads()["accepted_wrong"]
        assert wrong >= 1
        assert system.metrics.count("reads_tainted") == len(tainted)
        # Every tainted record names the excluded slave.
        for record in tainted:
            assert "slave-00-00" in record.slave_ids

    def test_rollback_handler_invoked(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        rolled_back = []
        for client in system.clients:
            client.rollback_handler = rolled_back.append
        drive(system, 60)
        system.run_for(90.0)
        assert len(rolled_back) == \
            int(system.metrics.count("reads_tainted"))
        assert len(rolled_back) >= 1

    def test_honest_run_taints_nothing(self):
        system = make_system()
        system.start()
        drive(system, 40)
        system.run_for(60.0)
        assert system.metrics.count("reads_tainted") == 0
        assert all(not c.tainted_reads for c in system.clients)

    def test_double_checked_reads_never_tainted(self):
        """A read confirmed by a master needs no rollback."""
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.5,
                                    greedy_allowance_rate=100.0,
                                    greedy_burst=1000.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive(system, 80)
        system.run_for(90.0)
        for client in system.clients:
            for record in client.tainted_reads:
                assert not record.double_checked


class TestTaintSweep:
    def test_each_record_is_tainted_and_rolled_back_once(self,
                                                         monkeypatch):
        """An exclusion notice -- and the same notice again -- taints
        every read accepted on the excluded slave's word alone exactly
        once, and the sweep scans the log's columns: it never compares
        two records field by field (O(reads x taints) a notice)."""
        system = make_system()
        system.start()
        client = system.clients[0]
        excluded = client.assigned_slaves[0]
        records = [AcceptedRead(
            request_id=f"{client.node_id}:r{n}", query_wire={"key": n},
            result_hash="00" * 20, version=0, accepted_at=0.0,
            double_checked=n % 3 == 0,
            slave_ids=(excluded,) if n % 2 == 0 else ("slave-99-99",))
            for n in range(300)]
        client.accepted_log.extend(records)
        rolled_back = []
        client.rollback_handler = rolled_back.append
        compared = []
        monkeypatch.setattr(AcceptedRead, "__eq__",
                            lambda a, b: compared.append((a, b)) or a is b)
        notice = ExclusionNotice(
            excluded_slave_id=excluded,
            replacement=SlaveAssignment(slave_certificates=(),
                                        auditor_id=""))
        for _ in range(2):
            client.on_message(client.master_id, notice)
        expected = [record for record in records
                    if record.slave_ids == (excluded,)
                    and not record.double_checked]
        assert len(expected) == 100
        expected_ids = [record.request_id for record in expected]
        assert [r.request_id for r in client.tainted_reads] == expected_ids
        assert [r.request_id for r in rolled_back] == expected_ids
        assert system.metrics.count("reads_tainted") == 100
        assert compared == []


class TestBrokenSignatureAdversary:
    def test_garbage_signatures_rejected_not_accepted(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    max_read_retries=2),
            adversaries={0: BrokenSignature()})
        system.start()
        drive(system, 40, rate=2.0)
        system.run_for(180.0)
        assert system.metrics.count("read_reply_bad_signature") >= 1
        # No wrong answer was ever accepted.
        assert system.classify_accepted_reads()["accepted_wrong"] == 0

    def test_no_evidence_no_exclusion(self):
        """Without a valid signature there is nothing to incriminate --
        the strategy degrades service but survives (a liveness, not a
        safety, attack)."""
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    max_read_retries=2),
            adversaries={0: BrokenSignature()})
        system.start()
        drive(system, 40, rate=2.0)
        system.run_for(180.0)
        assert system.metrics.count("exclusions") == 0
        assert system.metrics.count("slave_garbled_signatures") >= 1

    def test_clients_recover_via_retry_and_resetup(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    max_read_retries=2),
            adversaries={0: BrokenSignature()})
        system.start()
        drive(system, 40, rate=2.0)
        system.run_for(300.0)
        accepted = system.metrics.count("reads_accepted")
        assert accepted >= 35  # clients route around the broken slave

    def test_partial_garbling(self):
        import random as _random

        strategy = BrokenSignature(garble_rate=0.5,
                                   rng=_random.Random(4))
        garbled = sum(strategy.garble_signature() for _ in range(1000))
        assert 400 < garbled < 600
