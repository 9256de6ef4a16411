"""Unit tests for master-server internals (isolated node)."""

from __future__ import annotations

import pytest

from repro.content.kvstore import KVGet, KeyValueStore
from repro.core.config import ProtocolConfig
from repro.core.master import MasterServer
from repro.qos.tokens import TokenBucket
from repro.core.messages import BcastExcludeSlave, Pledge, VersionStamp
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import HMACSigner
from repro.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.simulator import Simulator


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert all(bucket.try_consume(0.0) for _ in range(3))
        assert not bucket.try_consume(0.0)

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=0.5, burst=2.0, now=0.0)
        bucket.try_consume(0.0)
        bucket.try_consume(0.0)
        assert not bucket.try_consume(1.0)  # only 0.5 refilled
        assert bucket.try_consume(2.0)      # 1.0 refilled by t=2

    def test_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_consume(0.0)
        # Long idle: tokens cap at burst, not rate * dt.
        assert bucket.try_consume(100.0)
        assert bucket.try_consume(100.0)
        assert not bucket.try_consume(100.0)


@pytest.fixture
def master():
    sim = Simulator(seed=4)
    net = Network(sim)
    config = ProtocolConfig(version_history_depth=8)
    server = MasterServer("master-00", sim, net, config,
                          KeyValueStore({"a": 1, "b": 2}), ["master-00"],
                          MetricsRegistry())
    return server


@pytest.fixture
def slave_keys(master):
    keys = KeyPair("slave-00-00", HMACSigner())
    master.enroll([master.register_slave("slave-00-00", "addr",
                                         keys.public_key)])
    return keys


def make_pledge(master, slave_keys, query, result, version=0):
    stamp = VersionStamp.make(master.keys, version, master.now)
    return Pledge.make(slave_keys, query.to_wire(), sha1_hex(result),
                       stamp, "client-00:r0")


class TestEvaluatePledge:
    def test_truthful_pledge_innocent(self, master, slave_keys):
        query = KVGet(key="a")
        result = master.store.execute_read(query).result
        pledge = make_pledge(master, slave_keys, query, result)
        assert master.evaluate_pledge(pledge) == "innocent"

    def test_lying_pledge_guilty(self, master, slave_keys):
        pledge = make_pledge(master, slave_keys, KVGet(key="a"),
                             {"forged": True})
        assert master.evaluate_pledge(pledge) == "guilty"

    def test_unsigned_pledge_forged(self, master, slave_keys):
        import dataclasses

        pledge = make_pledge(master, slave_keys, KVGet(key="a"),
                             {"forged": True})
        tampered = dataclasses.replace(pledge, signature=b"nope")
        assert master.evaluate_pledge(tampered) == "forged"

    def test_unknown_slave_unverifiable(self, master):
        stranger = KeyPair("slave-99-99", HMACSigner())
        stamp = VersionStamp.make(master.keys, 0, 0.0)
        pledge = Pledge.make(stranger, KVGet(key="a").to_wire(),
                             "00" * 20, stamp, "client-00:r0")
        assert master.evaluate_pledge(pledge) == "unverifiable"

    def test_pruned_version_unverifiable(self, master, slave_keys):
        from repro.content.kvstore import KVPut

        # Push 10 versions through with depth 8: version 0 is pruned.
        for i in range(10):
            master.commit_op(KVPut(key=f"w{i}", value=i).to_wire())
        pledge = make_pledge(master, slave_keys, KVGet(key="a"),
                             {"found": True, "value": 1}, version=0)
        assert master.evaluate_pledge(pledge) == "unverifiable"

    def test_historical_version_checked_against_snapshot(self, master,
                                                         slave_keys):
        from repro.content.kvstore import KVPut

        master.commit_op(KVPut(key="a", value=100).to_wire())
        # A pledge made at version 0 with the OLD value is innocent...
        old_result = {"found": True, "value": 1}
        pledge_v0 = make_pledge(master, slave_keys, KVGet(key="a"),
                                old_result, version=0)
        assert master.evaluate_pledge(pledge_v0) == "innocent"
        # ...but the same answer pledged at version 1 is guilty.
        pledge_v1 = make_pledge(master, slave_keys, KVGet(key="a"),
                                old_result, version=1)
        assert master.evaluate_pledge(pledge_v1) == "guilty"


class TestAssignment:
    def test_no_slaves_yields_none(self, master):
        master.enroll([], ["zz-auditor-00"])
        assert master.view.auditor_for("client-00") == "zz-auditor-00"
        assert master._make_assignment("client-00") is None

    def test_assignment_excludes_excluded(self, master, slave_keys):
        master.enroll([], ["zz-auditor-00"])
        keys2 = KeyPair("slave-00-01", HMACSigner())
        master.enroll([master.register_slave("slave-00-01", "addr2",
                                             keys2.public_key)])
        assert master.slaves == ["slave-00-00", "slave-00-01"]
        master._on_deliver(0, "master-00", BcastExcludeSlave(
            slave_id="slave-00-00", discovery="audit"))
        assert master.excluded_slaves == {"slave-00-00"}
        for _ in range(10):
            assignment = master._make_assignment("client-00")
            assert assignment is not None
            ids = [c.subject_id for c in assignment.slave_certificates]
            assert ids == ["slave-00-01"]
            assert assignment.auditor_id == "zz-auditor-00"

    def test_auditor_partition_stable(self, master):
        auditors = ("zz-auditor-00", "zz-auditor-01", "zz-auditor-02")
        master.enroll([], auditors)
        first = master.view.auditor_for("client-07")
        assert first in auditors
        assert all(master.view.auditor_for("client-07") == first
                   for _ in range(5))
        assert master._make_assignment("client-07") is None

    def test_auditor_failover_skips_dead(self):
        """The delivered view decides: a ``down`` moves the dead
        auditor's clients to the survivor, the ``up`` hands them back,
        and with no auditor up each keeps its hash auditor."""
        auditors = ("zz-auditor-00", "zz-auditor-01")
        sim = Simulator(seed=4)
        master = MasterServer("master-00", sim, Network(sim),
                              ProtocolConfig(), KeyValueStore(),
                              ["master-00", *auditors], MetricsRegistry())
        master.enroll([], auditors)
        clients = [f"client-{i:02d}" for i in range(10)]
        before = {c: master.view.auditor_for(c) for c in clients}
        assert set(before.values()) == set(auditors)
        master.broadcast._member_down_delivered("zz-auditor-00")
        after = {master.view.auditor_for(c) for c in clients}
        assert after == {"zz-auditor-01"}
        master.broadcast._member_up_delivered("zz-auditor-00")
        assert {c: master.view.auditor_for(c) for c in clients} == before
        for auditor in auditors:
            master.broadcast._member_down_delivered(auditor)
        assert {c: master.view.auditor_for(c) for c in clients} == before
