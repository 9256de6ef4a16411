"""Unit tests for latency models, the network fabric and failure injection."""

from __future__ import annotations

import pytest

from repro.sim.failures import FailureInjector
from repro.sim.latency import (
    ConstantLatency,
    LatencyMatrix,
    LogNormalLatency,
    UniformLatency,
)
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator


class Echo(Node):
    """Test node recording everything it receives."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inbox = []

    def on_message(self, src_id, message):
        self.inbox.append((self.now, src_id, message))


def build(latency=None, loss=0.0, nodes=("a", "b"), seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or ConstantLatency(0.5),
                  loss_probability=loss)
    created = [Echo(name, sim, net) for name in nodes]
    return sim, net, created


class TestLatencyModels:
    def test_constant(self, rng):
        assert ConstantLatency(0.2).sample("a", "b", rng) == 0.2

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_within_bounds(self, rng):
        model = UniformLatency(0.1, 0.3)
        for _ in range(100):
            assert 0.1 <= model.sample("a", "b", rng) <= 0.3

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.1)
        with pytest.raises(ValueError):
            UniformLatency(-0.1, 0.3)

    def test_lognormal_positive_and_spread(self, rng):
        model = LogNormalLatency(median=0.05, sigma=0.6)
        samples = [model.sample("a", "b", rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert min(samples) < 0.05 < max(samples)

    def test_lognormal_sigma_zero_is_constant(self, rng):
        model = LogNormalLatency(median=0.05, sigma=0.0)
        assert model.sample("a", "b", rng) == pytest.approx(0.05)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.1, sigma=-1)

    def test_matrix_overrides_pair(self, rng):
        matrix = LatencyMatrix(ConstantLatency(0.1))
        matrix.set_pair("a", "b", ConstantLatency(9.0))
        assert matrix.sample("a", "b", rng) == 9.0
        assert matrix.sample("b", "a", rng) == 0.1  # directed
        assert matrix.sample("a", "c", rng) == 0.1

    def test_matrix_set_node_both_directions(self, rng):
        matrix = LatencyMatrix(ConstantLatency(0.1))
        matrix.set_node("slow", ConstantLatency(2.0), peers=["a", "b"])
        assert matrix.sample("slow", "a", rng) == 2.0
        assert matrix.sample("b", "slow", rng) == 2.0


class TestNetwork:
    def test_delivery_after_latency(self):
        sim, _net, (a, b) = build()
        a.send("b", "hello")
        sim.run_until(1.0)
        assert b.inbox == [(0.5, "a", "hello")]

    def test_duplicate_node_id_rejected(self):
        sim, net, _ = build()
        with pytest.raises(ValueError, match="duplicate"):
            Echo("a", sim, net)

    def test_unknown_destination_raises(self):
        sim, _net, (a, _b) = build()
        with pytest.raises(KeyError):
            a.send("ghost", "x")
        sim.run_until(1.0)

    def test_crashed_sender_sends_nothing(self):
        sim, _net, (a, b) = build()
        a.crash()
        a.send("b", "x")
        sim.run_until(1.0)
        assert b.inbox == []

    def test_crashed_receiver_drops_message(self):
        sim, net, (a, b) = build()
        b.crash()
        a.send("b", "x")
        sim.run_until(1.0)
        assert b.inbox == []
        assert net.messages_dropped == 1

    def test_recovered_receiver_gets_new_messages(self):
        sim, _net, (a, b) = build()
        b.crash()
        a.send("b", "lost")
        sim.run_until(1.0)
        b.recover()
        a.send("b", "found")
        sim.run_until(2.0)
        assert [m for _t, _s, m in b.inbox] == ["found"]

    def test_partition_blocks_both_directions(self):
        sim, net, (a, b) = build()
        net.partition("a", "b")
        a.send("b", "x")
        b.send("a", "y")
        sim.run_until(1.0)
        assert a.inbox == [] and b.inbox == []

    def test_heal_restores_connectivity(self):
        sim, net, (a, b) = build()
        net.partition("a", "b")
        net.heal("a", "b")
        a.send("b", "x")
        sim.run_until(1.0)
        assert len(b.inbox) == 1

    def test_loss_probability_drops_some(self):
        sim, net, (a, b) = build(loss=0.5, seed=3)
        for _ in range(200):
            a.send("b", "x")
        sim.run_until(1.0)
        assert 50 < len(b.inbox) < 150
        assert net.messages_dropped + net.messages_delivered == 200

    def test_invalid_loss_probability(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, loss_probability=1.5)

    def test_counters(self):
        sim, net, (a, b) = build()
        a.send("b", "x", size_bytes=100)
        sim.run_until(1.0)
        assert a.messages_sent == 1 and a.bytes_sent == 100
        assert b.messages_received == 1
        assert net.messages_delivered == 1

    def test_after_timer_inert_while_crashed(self):
        sim, _net, (a, _b) = build()
        fired = []
        a.after(1.0, fired.append, "x")
        a.crash()
        sim.run_until(2.0)
        assert fired == []


class TestNodeTimers:
    """A timer belongs to the node life that armed it; periodic work is
    declared once with ``every`` and survives a crash as one chain."""

    def test_timer_armed_before_a_crash_never_fires(self):
        sim, _net, (a, _b) = build()
        fired = []
        a.after(1.0, fired.append, "stale")
        a.crash()
        sim.run_until(0.5)
        a.recover()  # back up well before the timer is due
        sim.run_until(2.0)
        assert fired == []

    def test_timer_armed_after_recovery_fires(self):
        sim, _net, (a, _b) = build()
        fired = []
        a.crash()
        a.recover()
        a.after(1.0, fired.append, "fresh")
        sim.run_until(2.0)
        assert fired == ["fresh"]

    def test_every_runs_now_and_on_its_interval(self):
        sim, _net, (a, _b) = build()
        ticks = []
        a.every(0.5, lambda: ticks.append(sim.now))
        sim.run_until(2.2)
        assert ticks == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("down_for", [0.05, 0.2, 0.5, 3.0])
    def test_every_stops_at_the_crash_and_resumes_as_one_chain(
            self, down_for):
        sim, _net, (a, _b) = build()
        ticks = []
        a.every(0.5, lambda: ticks.append(sim.now))
        sim.run_until(1.2)
        before = sim.pending_events()
        for _ in range(3):  # crashes shorter and longer than the interval
            a.crash()
            crashed_at = sim.now
            sim.run_for(down_for)
            assert [t for t in ticks if t > crashed_at] == []
            a.recover()
            assert ticks[-1] == sim.now  # the round restarts at once
            sim.run_for(0.7)
        sim.run_for(5.0)
        # Exactly one chain again: one tick per interval, one timer armed.
        recent = [t for t in ticks if t > sim.now - 5.0]
        assert len(recent) == 10
        assert sim.pending_events() == before

    def test_every_is_armed_through_after(self):
        """The benchmark's tracer books node timers by patching
        ``Node.after``; a periodic round must stay visible to it."""
        sim, _net, (a, _b) = build()
        armed = []
        original = a.after

        def after(delay, callback, *args):
            armed.append(delay)
            return original(delay, callback, *args)

        a.after = after
        a.every(0.5, lambda: None)
        sim.run_until(1.2)
        assert armed == [0.5, 0.5, 0.5]


class TestFailureInjector:
    def test_crash_and_recover_schedule(self):
        sim, _net, (a, _b) = build()
        injector = FailureInjector(sim)
        injector.crash_for(a, when=1.0, duration=2.0)
        sim.run_until(0.5)
        assert not a.crashed
        sim.run_until(1.5)
        assert a.crashed
        sim.run_until(3.5)
        assert not a.crashed
        assert [e.kind for e in injector.log] == ["crash", "recover"]

    def test_exponential_churn_produces_alternating_events(self):
        sim, _net, (a, _b) = build()
        injector = FailureInjector(sim)
        injector.exponential_churn(a, mtbf=5.0, mttr=1.0, until=200.0)
        sim.run_until(200.0)
        kinds = [e.kind for e in injector.log]
        assert len(kinds) > 5
        for first, second in zip(kinds, kinds[1:]):
            assert first != second  # strict alternation

    def test_churn_validates_params(self):
        sim, _net, (a, _b) = build()
        injector = FailureInjector(sim)
        with pytest.raises(ValueError):
            injector.exponential_churn(a, mtbf=0, mttr=1, until=10)
