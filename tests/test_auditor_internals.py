"""Unit tests for auditor internals: apply queue, drain timer, sparkline."""

from __future__ import annotations

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.config import ProtocolConfig
from repro.core.messages import BcastWrite
from repro.metrics import Timeline

from .conftest import make_system


class TestApplyQueue:
    def test_writes_apply_after_window_not_before(self):
        config = ProtocolConfig(max_latency=2.0, keepalive_interval=0.5,
                                audit_grace=1.0,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        system.clients[0].submit_write(KVPut(key="x", value=1))
        system.run_for(1.0)
        auditor = system.auditor
        assert len(auditor._apply_queue) == 1
        # Window = commit + max_latency + grace ~ commit + 3.
        system.run_for(1.5)
        assert auditor.version == 0
        system.run_for(10.0)
        assert auditor.version == 1
        assert not auditor._apply_queue

    def test_queue_preserves_order(self):
        config = ProtocolConfig(max_latency=1.0, keepalive_interval=0.5,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        for i in range(3):
            system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
        system.run_for(30.0)
        assert system.auditor.version == 3
        assert system.auditor.store.state_digest() == \
            system.masters[0].store.state_digest()

    def test_loop_epoch_prevents_double_drain(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        auditor = system.auditor
        system.clients[0].submit_write(KVPut(key="x", value=1))
        system.run_for(1.0)
        assert auditor._apply_queue
        # A spurious extra drain (there is no epoch any more: the one
        # armed timer is the guard) must not double-schedule.
        before = system.simulator.pending_events()
        auditor._drain()
        assert system.simulator.pending_events() == before

    def test_write_delivered_twice_advances_once(self):
        """A client that times out resubmits its write through another
        master, so the broadcast can order it twice; the masters skip
        the second delivery and the auditor used not to -- it ended one
        version ahead of them for good, auditing every pledge against
        the wrong snapshot."""
        config = ProtocolConfig(max_latency=1.0, keepalive_interval=0.5,
                                audit_grace=0.5,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        write = BcastWrite(client_id="client-00", request_id="client-00:w0",
                           op_wire=KVPut(key="x", value=1).to_wire())
        system.masters[0].broadcast.broadcast(write)
        system.masters[1].broadcast.broadcast(write)
        system.run_for(10.0)
        assert [m.version for m in system.masters] == [1, 1]
        assert system.auditor.version == 1

    def test_recovery_restarts_drain(self):
        config = ProtocolConfig(max_latency=1.0, keepalive_interval=0.5,
                                audit_grace=0.5,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        auditor = system.auditor
        system.clients[0].submit_write(KVPut(key="x", value=1))
        system.run_for(0.5)
        # Crash exactly through the apply window.
        system.failures.crash_for(auditor, system.now, 10.0)
        system.run_for(15.0)
        assert auditor.version == 1  # drained after recovery


class TestAuditorParking:
    def test_parked_pledge_audited_on_version_arrival(self):
        config = ProtocolConfig(max_latency=2.0, keepalive_interval=0.5,
                                audit_grace=3.0,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        system.clients[0].submit_write(KVPut(key="k001", value="new"))
        system.run_for(4.0)  # committed on masters; auditor behind
        assert system.masters[0].version == 1
        assert system.auditor.version == 0
        outcomes = []
        system.clients[1].submit_read(KVGet(key="k001"),
                                      callback=outcomes.append)
        system.run_for(1.0)
        assert outcomes and outcomes[0]["status"] == "accepted"
        parked = sum(len(q) for q in system.auditor._parked.values())
        assert parked == 1
        system.run_for(30.0)
        assert system.auditor.pledges_audited == \
            system.auditor.pledges_received
        assert system.auditor.detections == 0


class TestSparkline:
    def test_shape(self):
        timeline = Timeline()
        for i, v in enumerate([0, 1, 4, 9, 4, 1, 0]):
            timeline.record(float(i), float(v))
        line = timeline.sparkline(width=7)
        assert len(line) == 7
        assert line[3] == "█"          # peak in the middle
        assert line[0] in " ▁"

    def test_flat_zero(self):
        timeline = Timeline()
        timeline.record(0.0, 0.0)
        timeline.record(1.0, 0.0)
        assert set(timeline.sparkline(width=10)) == {" "}

    def test_empty(self):
        assert Timeline().sparkline() == ""

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Timeline().sparkline(width=0)

    def test_single_point(self):
        timeline = Timeline()
        timeline.record(5.0, 3.0)
        line = timeline.sparkline(width=5)
        assert len(line) == 5
        assert "█" in line
