"""Integration tests: full-state snapshot transfer for far-behind slaves."""

from __future__ import annotations

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core import master as master_module
from repro.core.config import ProtocolConfig

from .conftest import make_system


@pytest.fixture(autouse=True)
def short_ops_log(monkeypatch):
    """Masters resync a slave by ops only within 3 writes."""
    monkeypatch.setattr(master_module, "OPS_LOG_DEPTH", 3)
    return monkeypatch


def tight_config(**overrides):
    defaults = dict(max_latency=1.0, keepalive_interval=0.5,
                    double_check_probability=0.0)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


class TestSnapshotTransfer:
    def isolate(self, system, slave):
        for master in system.masters:
            system.network.partition(slave.node_id, master.node_id)

    def test_slave_beyond_ops_log_gets_snapshot(self):
        system = make_system(protocol=tight_config())
        system.start()
        slave = system.slaves[0]
        self.isolate(system, slave)
        # 6 writes with an ops_log_depth of 3: incremental resync from
        # version 0 is impossible afterwards.
        for i in range(6):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(30.0)
        assert slave.version == 0
        system.network.heal_all()
        system.run_for(10.0)
        assert system.metrics.count("slave_snapshots_sent") >= 1
        assert system.metrics.count("slave_snapshots_installed") >= 1
        assert slave.version == 6
        assert slave.store.state_digest() == \
            system.masters[0].store.state_digest()

    def test_slave_within_ops_log_resyncs_incrementally(self, short_ops_log):
        short_ops_log.setattr(master_module, "OPS_LOG_DEPTH", 100)
        system = make_system(protocol=tight_config())
        system.start()
        slave = system.slaves[0]
        self.isolate(system, slave)
        for i in range(4):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(20.0)
        system.network.heal_all()
        system.run_for(10.0)
        assert system.metrics.count("slave_snapshots_sent") == 0
        assert slave.version == 4

    def test_snapshotted_slave_serves_fresh_reads(self):
        system = make_system(protocol=tight_config())
        system.start()
        slave = system.slaves[0]
        self.isolate(system, slave)
        for i in range(6):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(30.0)
        system.network.heal_all()
        system.run_for(10.0)
        client = next(c for c in system.clients
                      if slave.node_id in c.assigned_slaves)
        outcomes = []
        client.submit_read(KVGet(key="w5"), callback=outcomes.append)
        system.run_for(10.0)
        assert outcomes and outcomes[0]["status"] == "accepted"
        assert outcomes[0]["result"] == {"found": True, "value": 5}

    def test_write_committed_while_snapshot_in_flight_does_not_leak(self):
        """The master sends a frozen view, not its live store: what the
        slave installs is the state at the snapshot's stamp, whatever
        the master committed before delivery."""
        from repro.core.messages import ResyncRequest

        system = make_system(protocol=tight_config())
        system.start()
        slave, master = system.slaves[0], system.masters[0]
        self.isolate(system, slave)
        for i in range(6):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(30.0)
        in_flight = []
        master.send = lambda dst_id, message, **kw: in_flight.append(message)
        master._handle_resync(slave.node_id, ResyncRequest(have_version=0))
        del master.send
        [snapshot] = in_flight
        at_send = master.store.state_digest()
        system.clients[0].submit_write(KVPut(key="late", value=1))
        system.run_for(10.0)
        assert master.version == 7 and snapshot.stamp.version == 6
        slave.on_message(master.node_id, snapshot)
        assert slave.version == 6
        assert slave.store.state_digest() == at_send
        assert slave.store.execute_read(KVGet(key="late")).result == \
            {"found": False, "value": None}
        # The installed store is the slave's own: it takes the update.
        system.network.heal_all()
        system.run_for(10.0)
        assert slave.version == 7
        assert slave.store.state_digest() == master.store.state_digest()

    def test_stale_snapshot_ignored(self):
        """A snapshot older than the slave's state must not roll it back."""
        from repro.core.messages import SlaveSnapshot

        system = make_system(protocol=tight_config())
        system.start()
        system.clients[0].submit_write(KVPut(key="w0", value=0))
        system.run_for(20.0)
        slave = system.slaves[0]
        assert slave.version == 1
        master = system.masters[0]
        old_store = system.initial_store.clone()
        from repro.core.messages import VersionStamp

        stale = SlaveSnapshot(
            store=old_store,
            stamp=VersionStamp.make(master.keys, 0, system.now))
        slave.on_message(master.node_id, stale)
        assert slave.version == 1  # unchanged

    def test_snapshot_with_bad_stamp_rejected(self):
        from repro.core.messages import SlaveSnapshot, VersionStamp

        system = make_system(protocol=tight_config())
        system.start()
        slave = system.slaves[0]
        # Signed by another slave, not a certified master.
        impostor = system.slaves[1]
        forged = SlaveSnapshot(
            store=system.initial_store.clone(),
            stamp=VersionStamp.make(impostor.keys, 99, system.now))
        slave.on_message(impostor.node_id, forged)
        assert slave.version == 0
        assert system.metrics.count("slave_bad_stamps") == 1

    def test_ops_log_pruned_but_oracle_intact(self):
        system = make_system(protocol=tight_config())
        system.start()
        for i in range(8):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(40.0)
        master = system.masters[0]
        # OPS_LOG_DEPTH = 3: older ops are no longer served incrementally.
        assert master.version == 8
        depth = master_module.OPS_LOG_DEPTH
        assert len(master.history.ops_between(8 - depth, 8, depth)) == depth
        assert master.history.ops_between(8 - depth - 1, 8, depth) is None
        # The measurement oracle still reconstructs all versions.
        stores = system.trusted_version_stores()
        assert sorted(stores) == list(range(9))
