"""Unit tests for trusted-server internals: WorkQueue, version history,
the deferred-apply queue."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.core.config import ProtocolConfig
from repro.core.messages import BcastWrite, VersionStamp
from repro.core.trusted import TrustedServer, WorkQueue
from repro.metrics import MetricsRegistry
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator


class Idle(Node):
    def on_message(self, src_id, message):
        pass


@pytest.fixture
def node():
    sim = Simulator()
    net = Network(sim)
    return Idle("worker", sim, net)


class TestWorkQueue:
    def test_single_job_completes_after_service_time(self, node):
        queue = WorkQueue(node)
        done = []
        queue.submit(2.0, done.append, "a")
        node.simulator.run_until(1.9)
        assert done == []
        node.simulator.run_until(2.1)
        assert done == ["a"]

    def test_fifo_jobs_queue_behind_each_other(self, node):
        queue = WorkQueue(node)
        done = []
        queue.submit(1.0, lambda: done.append(node.now))
        queue.submit(1.0, lambda: done.append(node.now))
        queue.submit(1.0, lambda: done.append(node.now))
        node.simulator.run_until(10.0)
        assert done == [1.0, 2.0, 3.0]

    def test_backlog_reports_queued_work(self, node):
        queue = WorkQueue(node)
        queue.submit(3.0, lambda: None)
        queue.submit(2.0, lambda: None)
        assert queue.backlog() == 5.0
        node.simulator.run_until(4.0)
        assert queue.backlog() == pytest.approx(1.0)

    def test_idle_time_not_counted(self, node):
        queue = WorkQueue(node)
        queue.submit(1.0, lambda: None)
        node.simulator.run_until(10.0)
        queue.submit(1.0, lambda: None)  # starts now, not at t=1
        node.simulator.run_until(12.0)
        assert queue.total_busy == 2.0
        assert queue.utilisation(elapsed=12.0) == pytest.approx(2.0 / 12)

    def test_negative_service_time_rejected(self, node):
        with pytest.raises(ValueError):
            WorkQueue(node).submit(-1.0, lambda: None)

    def test_utilisation_zero_elapsed(self, node):
        assert WorkQueue(node).utilisation(0.0) == 0.0


class _BareTrusted(TrustedServer):
    """Concrete trusted server exposing the base machinery for tests."""

    def handle_protocol_message(self, src_id, message):
        pass

    def deliver_write(self, seq, origin, payload):
        pass

    def _apply_write(self, origin, payload):
        self.commit_op(payload.op_wire)


@pytest.fixture
def trusted():
    sim = Simulator(seed=3)
    net = Network(sim)
    config = ProtocolConfig(version_history_depth=3)
    store = KeyValueStore({"a": 1})
    return _BareTrusted("master-00", sim, net, config, store,
                        ["master-00"], MetricsRegistry())


class TestVersionHistory:
    def test_commit_advances_version_and_archives(self, trusted):
        trusted.commit_op(KVPut(key="x", value=1).to_wire())
        assert trusted.version == 1
        assert trusted.store_at(0) is not None
        assert trusted.store_at(1) is not None
        # The archived v0 snapshot does not contain the write.
        v0 = trusted.store_at(0)
        assert v0.execute_read(KVGet(key="x")).result["found"] is False

    def test_history_bounded_by_depth(self, trusted):
        for i in range(6):
            trusted.commit_op(KVPut(key=f"k{i}", value=i).to_wire())
        assert trusted.version == 6
        # Depth 3: only the newest three snapshots retained.
        assert trusted.store_at(6) is not None
        assert trusted.store_at(4) is not None
        assert trusted.store_at(2) is None

    def test_ops_log_complete(self, trusted):
        for i in range(4):
            trusted.commit_op(KVPut(key=f"k{i}", value=i).to_wire())
        assert len(trusted.history.ops) == len(trusted.history) == 4

    def test_commit_times_recorded(self, trusted):
        trusted.simulator.run_until(5.0)
        trusted.commit_op(KVPut(key="x", value=1).to_wire())
        assert trusted.history.times[1] == 5.0

    def test_snapshots_are_independent(self, trusted):
        trusted.commit_op(KVPut(key="x", value=1).to_wire())
        snapshot = trusted.store_at(1)
        trusted.commit_op(KVPut(key="x", value=2).to_wire())
        assert snapshot.execute_read(KVGet(key="x")).result["value"] == 1

    def test_commit_copies_nothing_and_retains_nothing(self, monkeypatch):
        """ROADMAP item 5, as counts: a commit never copies the store,
        and once the window is full what a server retains stops growing
        (beyond the op list and the commit times)."""
        sim = Simulator(seed=3)
        server = _BareTrusted(
            "master-00", sim, Network(sim),
            ProtocolConfig(version_history_depth=16),
            KeyValueStore({f"k{i:05d}": i for i in range(30_000)}),
            ["master-00"], MetricsRegistry())
        wires = [KVPut(key=f"k{i * 7:05d}", value=-i).to_wire()
                 for i in range(200)]
        copies = []

        def count_calls(name):
            original = getattr(KeyValueStore, name)

            def counted(*args, **kwargs):
                copies.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(KeyValueStore, name, counted)

        count_calls("clone")
        count_calls("__init__")
        tracemalloc.start()
        try:
            for wire in wires[:50]:
                server.commit_op(wire)
            warm, _peak = tracemalloc.get_traced_memory()
            for wire in wires[50:]:
                server.commit_op(wire)
            end, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert server.version == 200 and copies == []
        assert server.store_at(200 - 15).execute_read(
            KVGet(key="k01393")).result["value"] == 1393  # put at 200
        assert server.store_at(200 - 16) is None
        assert abs(end - warm) < 64 * 1024

    def test_sign_stamp_signed_and_fresh(self, trusted):
        trusted.simulator.run_until(7.0)
        stamps = []
        trusted.sign_stamp(stamps.append)  # the simulator: at once
        [stamp] = stamps
        assert stamp.version == 0
        assert stamp.timestamp == 7.0
        assert stamp.master_id == trusted.node_id
        assert stamp.verify(trusted.keys, trusted.keys.public_key)
        assert stamp == VersionStamp.make(trusted.keys, 0, 7.0)

    def test_crashed_server_gets_no_stamp(self, trusted):
        trusted.crash()
        stamps = []
        trusted.sign_stamp(stamps.append)
        assert stamps == []

    def test_execution_time_scales_with_cost(self, trusted):
        assert trusted.execution_time(10.0) == \
            pytest.approx(10 * trusted.config.service_time_per_unit)


def _write(i):
    return BcastWrite(client_id="c", request_id=f"w{i}",
                      op_wire=KVPut(key=f"k{i}", value=i).to_wire())


class TestDeferredApply:
    """One queue, one timer: the path from delivery to a version."""

    def test_one_timer_however_many_are_queued(self, trusted):
        sim = trusted.simulator
        idle = sim.pending_events()
        for i in range(5):
            trusted._defer(10.0 + i, "master-00", _write(i))
        assert sim.pending_events() == idle + 1
        trusted._drain()  # spurious: nothing due, a timer already armed
        assert sim.pending_events() == idle + 1
        assert trusted.version == 0
        sim.run_until(12.5)
        assert trusted.version == 3
        assert sim.pending_events() == idle + 1  # re-armed for the head
        sim.run_until(20.0)
        assert trusted.version == 5
        assert sim.pending_events() == idle

    def test_delivery_order_outranks_due_time(self, trusted):
        # A catch-up replay is due "now" but was delivered second.
        trusted._defer(5.0, "master-00", _write(0))
        trusted._defer(0.0, "master-00", _write(1))
        trusted.simulator.run_until(4.0)
        assert trusted.version == 0
        trusted.simulator.run_until(5.0)
        assert trusted.history.ops == [_write(0).op_wire, _write(1).op_wire]

    def test_timer_that_fires_early_rearms(self, trusted):
        # An event loop may fire a handle one clock resolution early.
        trusted._defer(5.0, "master-00", _write(0))
        trusted.simulator.run_until(4.999)
        trusted._drain_timer.cancel()
        trusted._drain(timer_gone=True)
        assert trusted.version == 0
        trusted.simulator.run_until(5.0)
        assert trusted.version == 1

    @pytest.mark.parametrize("down_for", [2.0, 20.0])
    def test_crash_loses_the_timer_not_the_queue(self, trusted, down_for):
        sim = trusted.simulator
        trusted._defer(5.0, "master-00", _write(0))
        trusted._defer(6.0, "master-00", _write(1))
        sim.run_until(1.0)
        trusted.crash()
        sim.run_until(1.0 + down_for)
        assert trusted.version == 0
        trusted.recover()
        sim.run_until(max(sim.now, 6.0))
        assert trusted.version == 2
        assert not trusted._apply_queue
