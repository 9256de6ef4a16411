"""Integration tests: the happy path of the full system.

Builds complete deployments (owner, directory, masters, auditor, slaves,
clients) on the simulator and exercises Section 2's setup phase plus the
read/write protocols of Sections 3.1-3.2 with everyone honest.
"""

from __future__ import annotations

import random

import pytest

from repro.content.filesystem import FSGrep, FSWrite, MemoryFileSystem
from repro.content.kvstore import KVAggregate, KVGet, KVPut
from repro.content.minidb import DBAggregate, DBJoin, MiniDB
from repro.core.system import AUDITOR_NODE_ID
from repro.workloads import filesystem_dataset, publications_dataset

from .conftest import make_system


class TestSetupPhase:
    def test_every_client_completes_setup(self, small_system):
        for client in small_system.clients:
            assert client.ready
            assert client.master_id is not None
            assert len(client.assigned_slaves) == 1
            assert client.auditor_id == AUDITOR_NODE_ID

    def test_clients_verified_master_certs(self, small_system):
        client = small_system.clients[0]
        assert set(client.master_certs) == {"master-00", "master-01"}
        assert small_system.metrics.count("client_bad_master_certs") == 0

    def test_slave_assignment_is_certified(self, small_system):
        client = small_system.clients[0]
        slave = client.assigned_slaves[0]
        cert = client.slave_certs[slave]
        assert cert.issuer_id == client.master_id

    def test_auditor_elected_everywhere(self, small_system):
        for master in small_system.masters:
            assert master.view.auditors == (AUDITOR_NODE_ID,)
        assert small_system.auditor.view.auditors == (AUDITOR_NODE_ID,)

    def test_directory_served_lookups(self, small_system):
        assert small_system.directory.lookups_served >= len(
            small_system.clients)


class TestReadPath:
    def test_read_returns_correct_value(self, small_system):
        outcomes = []
        client = small_system.clients[0]
        client.submit_read(KVGet(key="k007"), callback=outcomes.append)
        small_system.run_for(5.0)
        assert outcomes[0]["status"] == "accepted"
        assert outcomes[0]["result"] == {"found": True, "value": 7}

    def test_missing_key_read(self, small_system):
        outcomes = []
        small_system.clients[1].submit_read(KVGet(key="nope"),
                                            callback=outcomes.append)
        small_system.run_for(5.0)
        assert outcomes[0]["result"]["found"] is False

    def test_aggregate_read(self, small_system):
        outcomes = []
        small_system.clients[2].submit_read(
            KVAggregate(prefix="k", func="count"), callback=outcomes.append)
        small_system.run_for(5.0)
        assert outcomes[0]["result"]["value"] == 100

    def test_pledges_reach_auditor_and_audit_clean(self, small_system):
        for i, client in enumerate(small_system.clients):
            client.submit_read(KVGet(key=f"k{i:03d}"))
        small_system.run_for(20.0)
        auditor = small_system.auditor
        not_checked = (small_system.metrics.count("reads_accepted")
                       - small_system.metrics.count("double_checks_confirmed"))
        assert auditor.pledges_received == not_checked
        assert auditor.detections == 0
        assert small_system.metrics.count("audits_clean") == \
            auditor.pledges_audited

    def test_all_accepted_reads_classified_correct(self, small_system):
        rng = random.Random(5)
        t = small_system.now
        for i in range(60):
            t += 0.1
            client = small_system.clients[i % 4]
            small_system.schedule_op(client, t,
                                     KVGet(key=f"k{rng.randrange(100):03d}"))
        small_system.run_for(30.0)
        result = small_system.classify_accepted_reads()
        assert result["accepted_total"] == 60
        assert result["accepted_wrong"] == 0


class TestWritePath:
    def test_write_then_read_sees_value(self, small_system):
        client = small_system.clients[0]
        write_results = []
        client.submit_write(KVPut(key="fresh", value="data"),
                            callback=write_results.append)
        small_system.run_for(10.0)
        assert write_results[0]["status"] == "committed"
        assert write_results[0]["version"] == 1

        read_results = []
        client.submit_read(KVGet(key="fresh"), callback=read_results.append)
        small_system.run_for(10.0)
        assert read_results[0]["result"]["value"] == "data"

    def test_all_masters_converge(self, small_system):
        client = small_system.clients[0]
        for i in range(3):
            client.submit_write(KVPut(key=f"w{i}", value=i))
        small_system.run_for(60.0)
        digests = {m.store.state_digest() for m in small_system.masters}
        assert len(digests) == 1
        versions = {m.version for m in small_system.masters}
        assert versions == {3}

    def test_slaves_converge_after_lazy_update(self, small_system):
        small_system.clients[0].submit_write(KVPut(key="lazy", value=1))
        small_system.run_for(30.0)
        master_digest = small_system.masters[0].store.state_digest()
        for slave in small_system.slaves:
            assert slave.store.state_digest() == master_digest
            assert slave.version == 1

    def test_auditor_lags_then_catches_up(self, small_system):
        small_system.clients[0].submit_write(KVPut(key="x", value=1))
        small_system.run_for(2.0)
        # Masters commit quickly; the auditor must still be at version 0
        # (it waits max_latency + grace = 7s by default).
        assert small_system.masters[0].version == 1
        assert small_system.auditor.version == 0
        small_system.run_for(30.0)
        assert small_system.auditor.version == 1

    def test_writes_from_different_clients_totally_ordered(self,
                                                           small_system):
        for i, client in enumerate(small_system.clients):
            client.submit_write(KVPut(key="contested", value=i))
        small_system.run_for(60.0)
        values = {m.store.execute_read(
            KVGet(key="contested")).result["value"]
            for m in small_system.masters}
        assert len(values) == 1  # all replicas agree on the winner

    def test_consistency_window_holds(self, small_system):
        client = small_system.clients[0]
        rng = random.Random(2)
        t = small_system.now
        for i in range(5):
            small_system.schedule_op(client, t + i * 8.0,
                                     KVPut(key="k005", value=f"v{i}"))
        for i in range(100):
            reader = small_system.clients[rng.randrange(4)]
            small_system.schedule_op(reader, t + rng.uniform(0, 60),
                                     KVGet(key="k005"))
        small_system.run_for(90.0)
        assert small_system.check_consistency_window() == []


class TestOtherContentEngines:
    def test_filesystem_grep_end_to_end(self):
        rng = random.Random(3)
        files = filesystem_dataset(30, rng)
        system = make_system(
            store_factory=lambda: MemoryFileSystem(files))
        system.start()
        outcomes = []
        system.clients[0].submit_read(FSGrep(pattern="TODO", path="/src"),
                                      callback=outcomes.append)
        system.run_for(5.0)
        assert outcomes[0]["status"] == "accepted"
        assert len(outcomes[0]["result"]) > 0

    def test_filesystem_write_propagates(self):
        system = make_system(store_factory=MemoryFileSystem)
        system.start()
        system.clients[0].submit_write(
            FSWrite(path="/new/file.txt", content="TODO grep me"))
        system.run_for(20.0)
        outcomes = []
        system.clients[1].submit_read(FSGrep(pattern="grep me", path="/"),
                                      callback=outcomes.append)
        system.run_for(5.0)
        assert outcomes[0]["result"] == [("/new/file.txt", 1,
                                          "TODO grep me")]

    def test_minidb_join_end_to_end(self):
        rng = random.Random(4)

        def seeded_db():
            db = MiniDB()
            for op in publications_dataset(20, rng.__class__(4)):
                db.apply_write(op)
            return db

        system = make_system(store_factory=seeded_db)
        system.start()
        outcomes = []
        system.clients[0].submit_read(
            DBJoin(left="papers", right="authors",
                   left_col="author_id", right_col="id",
                   columns=("papers.title", "authors.name"),
                   order_by="papers.title"),
            callback=outcomes.append)
        system.clients[1].submit_read(
            DBAggregate(table="papers", func="count", group_by=("venue",)),
            callback=outcomes.append)
        system.run_for(5.0)
        assert len(outcomes) == 2
        assert all(o["status"] == "accepted" for o in outcomes)
        join_rows = [o for o in outcomes if isinstance(o["result"], list)
                     and o["result"] and isinstance(o["result"][0], tuple)]
        assert join_rows


class TestDeterminism:
    def test_same_seed_same_counters(self):
        def run():
            system = make_system(seed=99)
            system.start()
            rng = random.Random(1)
            t = system.now
            for i in range(40):
                client = system.clients[i % 4]
                system.schedule_op(client, t + i * 0.3,
                                   KVGet(key=f"k{rng.randrange(100):03d}"))
            system.run_for(30.0)
            return system.metrics.snapshot()

        assert run() == run()

    def test_different_seed_differs_somewhere(self):
        def run(seed):
            system = make_system(seed=seed)
            system.start()
            t = system.now
            for i in range(40):
                system.schedule_op(system.clients[i % 4], t + i * 0.3,
                                   KVGet(key=f"k{i % 100:03d}"))
            system.run_for(30.0)
            return system.metrics.count("double_checks_sent")

        results = {run(seed) for seed in (1, 2, 3, 4, 5)}
        assert len(results) > 1
