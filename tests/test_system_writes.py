"""Integration tests: write protocol, spacing, ACL, throughput ceiling."""

from __future__ import annotations

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.config import ProtocolConfig
from repro.core.messages import WriteRequest
from repro.sim.latency import ConstantLatency

from .conftest import make_system

LINK = 0.01


class TestWriteSpacing:
    def test_commits_at_least_max_latency_apart(self):
        config = ProtocolConfig(max_latency=3.0, keepalive_interval=1.0)
        system = make_system(protocol=config)
        system.start()
        # Fire 5 writes as fast as possible from different clients.
        for i in range(5):
            system.clients[i % 4].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(120.0)
        commit_times = sorted(system.masters[0].history.times.values())[1:]
        gaps = [b - a for a, b in zip(commit_times, commit_times[1:])]
        assert len(commit_times) == 5
        assert all(gap >= 3.0 - 1e-9 for gap in gaps)

    def test_write_throughput_bounded_by_max_latency(self):
        config = ProtocolConfig(max_latency=2.0, keepalive_interval=0.5)
        system = make_system(protocol=config)
        system.start()
        start = system.now
        for i in range(30):
            system.clients[i % 4].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(30.0)
        committed = system.metrics.count("writes_committed")
        elapsed = system.now - start
        # Ceiling: 1 write per max_latency.
        assert committed <= elapsed / config.max_latency + 1

    def test_queued_writes_eventually_all_commit(self):
        config = ProtocolConfig(max_latency=1.0, keepalive_interval=0.5)
        system = make_system(protocol=config)
        system.start()
        for i in range(10):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(60.0)
        assert system.metrics.count("writes_committed") == 10
        assert system.masters[0].version == 10

    def test_versions_strictly_increase_with_commits(self):
        system = make_system()
        system.start()
        for i in range(3):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(60.0)
        times = system.masters[0].history.times
        assert sorted(times) == list(range(len(times)))
        ordered = [times[v] for v in sorted(times)]
        assert ordered == sorted(ordered)


def write_latencies(system, client, count, wait=0.0):
    """Commit ``count`` writes from ``client`` one at a time, each after
    the last one's W2 spacing has passed (and ``wait`` more); their
    latencies."""
    latencies = []
    for i in range(count):
        outcomes = []
        client.submit_write(KVPut(key=f"{client.node_id}-{i}", value=i),
                            callback=outcomes.append)
        system.run_for(system.config.max_latency + 1.0 + wait)
        (outcome,) = outcomes
        assert outcome["status"] == "committed"
        latencies.append(outcome["latency"])
    return latencies


class TestWriteLinkCount:
    """A write costs two links -- client to the master that orders it and
    back -- once the client knows which master that is; the first write
    of a client homed off the sequencer costs three (client, its master,
    the sequencer, which answers).  Four links is a reply waiting for
    the order to travel back to the origin."""

    @pytest.fixture
    def system(self):
        system = make_system(
            seed=0, num_masters=3, num_clients=3,
            latency=ConstantLatency(LINK),
            protocol=ProtocolConfig(double_check_probability=0.0))
        system.start()
        return system

    def homed(self, system, on_sequencer):
        sequencer = system.masters[0].broadcast.sequencer_id
        return next(c for c in system.clients
                    if (c.master_id == sequencer) == on_sequencer)

    def test_client_homed_on_the_sequencer(self, system):
        client = self.homed(system, on_sequencer=True)
        assert write_latencies(system, client, 3) == \
            [pytest.approx(2 * LINK, abs=1e-9)] * 3

    def test_client_homed_off_the_sequencer(self, system):
        client = self.homed(system, on_sequencer=False)
        home = client.master_id
        assert write_latencies(system, client, 3) == [
            pytest.approx(3 * LINK, abs=1e-9),
            pytest.approx(2 * LINK, abs=1e-9),
            pytest.approx(2 * LINK, abs=1e-9)]
        assert client.master_id == home  # reads still go home

    def test_sequencer_crash_falls_back_to_the_clients_master(self, system):
        client = self.homed(system, on_sequencer=False)
        home = client.master_id
        write_latencies(system, client, 1)
        sequencer = next(m for m in system.masters
                         if m.broadcast.is_sequencer)
        setups = system.metrics.count("client_setups")
        sequencer.crash()
        timeout = 3 * system.config.request_timeout
        (latency,) = write_latencies(system, client, 1, wait=timeout)
        # One time-out at the dead orderer, then two links: the client's
        # master orders the write itself by then.
        assert latency == pytest.approx(timeout + 2 * LINK, abs=1e-9)
        assert system.metrics.count("write_timeouts") == 1
        assert system.metrics.count("client_setups") == setups
        assert client.master_id == home
        assert write_latencies(system, client, 1) == \
            [pytest.approx(2 * LINK, abs=1e-9)]

    def test_setup_and_rehome_forget_the_orderer(self, system):
        client = self.homed(system, on_sequencer=False)
        write_latencies(system, client, 1)
        client.rehome()
        system.run_for(1.0)
        assert client.ready
        assert write_latencies(system, client, 1) == \
            [pytest.approx(3 * LINK, abs=1e-9)]


class TestAccessControl:
    def test_unauthorised_writer_rejected(self):
        config = ProtocolConfig(
            writers_allowed=frozenset({"client-00"}))
        system = make_system(protocol=config)
        system.start()
        results = []
        system.clients[1].submit_write(KVPut(key="x", value=1),
                                       callback=results.append)
        system.run_for(20.0)
        assert results[0]["status"] == "rejected"
        assert results[0]["reason"] == "access denied"
        assert system.metrics.count("writes_denied") == 1
        assert system.masters[0].version == 0

    def test_authorised_writer_accepted(self):
        config = ProtocolConfig(
            writers_allowed=frozenset({"client-00"}))
        system = make_system(protocol=config)
        system.start()
        results = []
        system.clients[0].submit_write(KVPut(key="x", value=1),
                                       callback=results.append)
        system.run_for(20.0)
        assert results[0]["status"] == "committed"

    def test_reads_unrestricted(self):
        """The ACL 'is only concerned with operations that modify the
        content' (Section 2)."""
        config = ProtocolConfig(writers_allowed=frozenset())
        system = make_system(protocol=config)
        system.start()
        results = []
        system.clients[2].submit_read(KVGet(key="k001"),
                                      callback=results.append)
        system.run_for(10.0)
        assert results[0]["status"] == "accepted"


class TestTheWriterIsTheSender:
    """W3 keys a write by the sender its master admitted it from, from
    the ACL through the broadcast's dedup to the reply."""

    def test_a_request_id_another_client_used_first_still_commits(self):
        # A request that named its client beside its sender once let
        # client-01 use up client-00's first request id: client-00's own
        # write then came back "committed" as a duplicate, at version 1,
        # and no replica ever applied it.
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        system.run_for(2.0)
        mallory, victim = system.clients[1], system.clients[0]
        mallory.send(mallory.master_id, WriteRequest(
            request_id="client-00:w0",
            op_wire=KVPut(key="k001", value="mallory").to_wire()))
        system.run_for(20.0)
        outcomes = []
        victim.submit_write(KVPut(key="k002", value="honest"),
                            callback=outcomes.append)
        system.run_for(20.0)
        assert [(o["status"], o["version"]) for o in outcomes] \
            == [("committed", 2)]
        assert system.metrics.count("writes_duplicate_confirmed") == 0
        replicas = [*system.masters, *system.auditors, *system.slaves]
        assert {node.node_id: node.store.execute_read(
                    KVGet(key="k002")).result["value"]
                for node in replicas} \
            == {node.node_id: "honest" for node in replicas}


class TestWriteVisibility:
    def test_committed_write_visible_within_window(self):
        config = ProtocolConfig(max_latency=3.0, keepalive_interval=1.0,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        done = []
        system.clients[0].submit_write(KVPut(key="visible", value=42),
                                       callback=done.append)
        system.run_for(20.0)
        commit_at = system.masters[0].history.times[1]
        assert done[0]["status"] == "committed"
        # Read strictly after commit + max_latency must see the write.
        assert system.now > commit_at + config.max_latency
        outcomes = []
        system.clients[3].submit_read(KVGet(key="visible"),
                                      callback=outcomes.append)
        system.run_for(10.0)
        assert outcomes[0]["result"] == {"found": True, "value": 42}
        assert system.check_consistency_window() == []
