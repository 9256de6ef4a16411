"""Unit tests for the sequencer-based total-order broadcast."""

from __future__ import annotations

import pytest

from repro.broadcast import totalorder
from repro.broadcast.totalorder import BroadcastEnvelope, TotalOrderBroadcast
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator


class Member(Node):
    """A broadcast member recording its delivery sequence."""

    def __init__(self, node_id, sim, net, member_ids, **engine_kwargs):
        super().__init__(node_id, sim, net)
        self.delivered = []
        self.engine = TotalOrderBroadcast(
            self, member_ids,
            on_deliver=lambda seq, origin, payload: self.delivered.append(
                (seq, origin, payload)),
            **engine_kwargs)

    def on_message(self, src_id, message):
        assert isinstance(message, BroadcastEnvelope)
        self.engine.handle_message(src_id, message)

    def start(self):
        self.engine.start()

    def on_crash(self):
        self.engine.stop()

    def on_recover(self):
        self.engine.announce_recovery()


def build_group(n=3, latency=None, seed=0, before_start=None,
                **engine_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=latency or ConstantLatency(0.01))
    ids = [f"m{i}" for i in range(n)]
    members = [Member(i, sim, net, ids, **engine_kwargs) for i in ids]
    for member in members:
        if before_start is not None:
            before_start(member)
        member.start()
    return sim, net, members


def payloads(member):
    return [p for _seq, _o, p in member.delivered]


class TestOrdering:
    def test_single_broadcast_reaches_all(self):
        sim, _net, members = build_group()
        members[0].engine.broadcast("hello")
        sim.run_for(1.0)
        for member in members:
            assert payloads(member) == ["hello"]

    def test_all_members_deliver_same_order(self):
        sim, _net, members = build_group(n=4)
        for i, member in enumerate(members):
            for j in range(5):
                member.engine.broadcast(f"{member.node_id}:{j}")
        sim.run_for(5.0)
        reference = members[0].delivered
        assert len(reference) == 20
        for member in members[1:]:
            assert member.delivered == reference

    def test_sequence_numbers_contiguous_from_zero(self):
        sim, _net, members = build_group()
        for j in range(7):
            members[1].engine.broadcast(j)
        sim.run_for(5.0)
        seqs = [seq for seq, _o, _p in members[2].delivered]
        assert seqs == list(range(7))

    def test_origin_recorded(self):
        sim, _net, members = build_group()
        members[2].engine.broadcast("x")
        sim.run_for(1.0)
        assert members[0].delivered[0][1] == "m2"

    def test_same_order_under_jittery_links(self):
        sim, _net, members = build_group(
            n=3, latency=UniformLatency(0.005, 0.3), seed=11)
        for i in range(10):
            members[i % 3].engine.broadcast(i)
        sim.run_for(10.0)
        reference = payloads(members[0])
        assert sorted(reference) == list(range(10))
        for member in members[1:]:
            assert payloads(member) == reference

    def test_sequencer_is_lowest_ranked(self):
        _sim, _net, members = build_group()
        assert members[0].engine.is_sequencer
        assert not members[1].engine.is_sequencer
        assert members[1].engine.sequencer_id == "m0"

    def test_member_must_be_in_list(self):
        sim = Simulator()
        net = Network(sim)
        node = Member("outsider", sim, net, ["outsider"])
        with pytest.raises(ValueError):
            TotalOrderBroadcast(node, ["m0", "m1"], lambda *a: None)

    def test_unknown_envelope_kind_raises(self):
        _sim, _net, members = build_group()
        with pytest.raises(ValueError, match="unknown broadcast envelope"):
            members[0].engine.handle_message(
                "m1", BroadcastEnvelope(kind="gibberish"))


class RecordingTransport:
    """A host that only records, in one log: every send, and (through
    the engine's ``on_deliver``) every delivery."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.now = 0.0
        self.log = log

    def send(self, dst_id, message, size_bytes=256):
        self.log.append(("send", dst_id, message.kind))

    def every(self, interval, callback):
        pass


class TestOrderBeforeAcknowledgement:
    """The sequencer sends the order to every other member before it
    delivers locally: what its own delivery sends -- a commit's reply --
    must not overtake the order it acknowledges."""

    def sequencer(self, on_deliver=None):
        log = []
        engine = TotalOrderBroadcast(
            RecordingTransport("m0", log), ["m0", "m1", "m2"],
            on_deliver=on_deliver or (
                lambda seq, origin, payload: log.append(
                    ("deliver", origin, payload))))
        return engine, log

    def test_a_members_request(self):
        engine, log = self.sequencer()
        engine.handle_message("m2", BroadcastEnvelope(
            kind="request", origin="m2", local_seq=0, payload="w"))
        assert log == [("send", "m1", "order"), ("send", "m2", "order"),
                       ("deliver", "m2", "w")]

    def test_its_own_request(self):
        engine, log = self.sequencer()
        engine.broadcast("w")
        assert log == [("send", "m1", "order"), ("send", "m2", "order"),
                       ("deliver", "m0", "w")]

    def test_a_delivery_that_shrinks_the_view_skips_no_member(self):
        def on_deliver(seq, origin, payload):
            engine.alive_view.remove("m1")
            log.append(("deliver", origin, payload))

        engine, log = self.sequencer(on_deliver)
        engine.broadcast("w")
        assert [entry[1] for entry in log if entry[0] == "send"] == \
            ["m1", "m2"]


class TestRetransmission:
    def test_lost_request_retransmitted(self):
        sim, net, members = build_group(seed=2)
        net.partition("m1", "m0")
        members[1].engine.broadcast("persistent")
        sim.run_for(0.5)
        assert payloads(members[0]) == []
        net.heal("m1", "m0")
        sim.run_for(5.0)
        for member in members:
            assert payloads(member) == ["persistent"]

    def test_duplicate_requests_ordered_once(self, monkeypatch):
        # Aggressive retransmission.
        monkeypatch.setattr(totalorder, "REQUEST_TIMEOUT", 0.05)
        sim, _net, members = build_group()
        members[1].engine.broadcast("once")
        sim.run_for(5.0)
        assert payloads(members[0]) == ["once"]

    def test_gap_repaired_after_partition(self):
        sim, net, members = build_group(seed=3)
        # m2 misses orders while partitioned from the sequencer.  The
        # engine may route around the partition by view change (m2 deposes
        # m0 and m1 takes over); either way, after healing every member
        # must hold the same total order containing all three payloads.
        net.partition("m0", "m2")
        members[0].engine.broadcast("a")
        members[0].engine.broadcast("b")
        sim.run_for(2.0)
        net.heal("m0", "m2")
        members[0].engine.broadcast("c")
        sim.run_for(10.0)
        assert sorted(payloads(members[2])) == ["a", "b", "c"]
        assert payloads(members[0]) == payloads(members[2])
        assert payloads(members[1]) == payloads(members[2])


class TestViewChange:
    def test_sequencer_crash_elects_next_member(self):
        sim, _net, members = build_group(n=3)
        members[0].crash()
        sim.run_for(5.0)
        assert members[1].engine.is_sequencer
        assert members[2].engine.sequencer_id == "m1"

    def test_broadcasts_continue_after_view_change(self):
        sim, _net, members = build_group(n=3)
        members[0].engine.broadcast("before")
        sim.run_for(1.0)
        members[0].crash()
        sim.run_for(5.0)
        members[2].engine.broadcast("after")
        sim.run_for(5.0)
        for member in members[1:]:
            assert payloads(member) == ["before", "after"]

    def test_request_pending_during_crash_is_reordered(self):
        sim, net, members = build_group(n=3)
        # Partition m2's request away from m0, then kill m0: the new
        # sequencer must order the re-submitted request.
        net.partition("m2", "m0")
        members[2].engine.broadcast("survivor")
        sim.run_for(0.2)
        members[0].crash()
        sim.run_for(10.0)
        assert payloads(members[1]) == ["survivor"]
        assert payloads(members[2]) == ["survivor"]

    def test_sequence_numbers_not_reused_after_promotion(self):
        sim, _net, members = build_group(n=3)
        members[0].engine.broadcast("a")
        members[0].engine.broadcast("b")
        sim.run_for(1.0)
        members[0].crash()
        sim.run_for(5.0)
        members[1].engine.broadcast("c")
        sim.run_for(5.0)
        # Slot 2 is m0's member_down, ordered by m1 at its first tick
        # as sequencer and delivered to no host as a payload.
        seqs = [seq for seq, _o, _p in members[2].delivered]
        assert seqs == [0, 1, 3]
        assert payloads(members[2]) == ["a", "b", "c"]
        assert members[1].delivered == members[2].delivered

    def test_recovered_member_catches_up(self):
        sim, _net, members = build_group(n=3)
        members[2].crash()
        members[0].engine.broadcast("while-down-1")
        members[1].engine.broadcast("while-down-2")
        sim.run_for(3.0)
        assert payloads(members[2]) == []
        members[2].recover()
        sim.run_for(5.0)
        assert payloads(members[2]) == ["while-down-1", "while-down-2"]

    def test_recovered_former_sequencer_rejoins_as_follower(self):
        sim, _net, members = build_group(n=3)
        members[0].engine.broadcast("one")
        sim.run_for(1.0)
        members[0].crash()
        sim.run_for(5.0)
        members[1].engine.broadcast("two")
        sim.run_for(2.0)
        members[0].recover()
        sim.run_for(5.0)
        # The old leader must adopt the new epoch, not split the brain.
        assert members[0].engine.sequencer_id == "m1"
        assert payloads(members[0]) == ["one", "two"]

    def test_double_crash_freezes_lone_survivor(self):
        """Leadership needs a majority: a 1-of-3 survivor must freeze
        (it cannot tell a crash from a partition) rather than fork."""
        sim, _net, members = build_group(n=3)
        members[0].crash()
        sim.run_for(5.0)
        members[1].crash()
        sim.run_for(5.0)
        survivor = members[2].engine
        assert not survivor.is_sequencer
        assert not survivor.is_caught_up()  # trusts nothing while frozen
        survivor.broadcast("held")
        sim.run_for(3.0)
        assert payloads(members[2]) == []  # held, not ordered
        # Recovery of one peer restores a majority; the held request is
        # retransmitted and ordered.
        members[1].recover()
        sim.run_for(10.0)
        assert payloads(members[2]) == ["held"]
        assert payloads(members[1]) == ["held"]

    def test_view_change_counter(self):
        sim, _net, members = build_group(n=3)
        assert members[1].engine.view_changes == 0
        members[0].crash()
        sim.run_for(5.0)
        assert members[1].engine.view_changes == 1

    def test_member_removed_callback_fires(self):
        """At delivery of the ordered notice: two members would have no
        majority to order it, so three."""
        notices = []
        sim, _net, members = build_group(
            n=3, on_membership=lambda m, up: notices.append((m, up)))
        members[0].crash()
        sim.run_for(5.0)
        assert notices == [("m0", False)] * 2  # at m1 and at m2

    def test_every_member_sees_one_membership_sequence(self):
        """A follower crashes and recovers, then the sequencer: every
        member, the subject included, delivers the same up/down notices
        in the same order -- none acts on a suspicion of its own."""
        notices = {}

        def watch(member):
            seen = notices[member.node_id] = []
            member.engine.on_membership = \
                lambda m, up: seen.append(("up" if up else "down", m))

        sim, _net, members = build_group(n=3, before_start=watch)
        members[2].crash()
        members[1].engine.broadcast("while-m2-down")
        sim.run_for(4.0)
        members[2].recover()
        sim.run_for(4.0)
        members[0].crash()
        sim.run_for(4.0)
        members[1].engine.broadcast("while-m0-down")
        members[0].recover()
        sim.run_for(8.0)
        expected = [("down", "m2"), ("up", "m2"),
                    ("down", "m0"), ("up", "m0")]
        assert notices == {"m0": expected, "m1": expected, "m2": expected}
        assert members[0].delivered == members[1].delivered \
            == members[2].delivered
        assert payloads(members[0]) == ["while-m2-down", "while-m0-down"]


def run_watching(sim, members, seconds, step=0.01):
    """Run ``seconds`` in ``step`` slices: the members that were ever
    sequencer at a slice boundary."""
    seen = set()
    for _ in range(round(seconds / step)):
        sim.run_for(step)
        seen.update(m.node_id for m in members
                    if not m.crashed and m.engine.is_sequencer)
    return seen


class TestOneViewChange:
    """A member becomes sequencer one way: it claims the next epoch, a
    majority votes with its history, and it orders only after merging
    those histories."""

    def test_no_sequencer_while_two_of_four_are_up(self):
        """m0 crashes, then m3 before anyone suspects it: the view m1
        and m2 hold still lists m3, but only two members answer."""
        sim, _net, members = build_group(n=4)
        members[0].crash()
        sim.run_for(0.5)
        members[3].crash()
        assert run_watching(sim, members, 8.0) == set()
        members[1].engine.broadcast("held")
        assert run_watching(sim, members, 3.0) == set()
        assert payloads(members[1]) == []
        members[0].recover()
        sim.run_for(10.0)
        for member in members[:3]:
            assert payloads(member) == ["held"]
        members[3].recover()
        sim.run_for(10.0)
        assert payloads(members[3]) == ["held"]

    def test_an_abdicated_sequencer_is_not_remade_by_a_peer(self):
        """m0 abdicates at 2 of 4 reachable; m1, still its follower,
        names it in a state: m0 stays leaderless."""
        sim, _net, members = build_group(n=4)
        members[2].crash()
        members[3].crash()
        sim.run_for(2.0)
        engine = members[0].engine
        assert engine.sequencer_id == ""  # abdicated
        assert members[1].engine.sequencer_id == "m0"
        engine.handle_message("m1", BroadcastEnvelope(
            kind="state", epoch=engine.epoch, leader="m0"))
        assert not engine.is_sequencer
        assert run_watching(sim, members, 5.0) == set()

    def test_not_caught_up_after_recovery_until_a_heartbeat(self):
        sim, _net, members = build_group(n=3)
        members[0].engine.broadcast("before")
        sim.run_for(1.0)
        members[2].crash()
        members[0].engine.broadcast("while-down")
        sim.run_for(0.5)
        members[2].recover()
        engine = members[2].engine
        assert not engine.is_caught_up()
        sim.run_for(0.005)  # shorter than a link: no heartbeat yet
        assert not engine.is_caught_up()
        sim.run_for(1.0)
        assert engine.is_caught_up()
        assert payloads(members[2]) == ["before", "while-down"]

    @staticmethod
    def claimant():
        """m1 of three holds slot 1 from epoch 0 behind a gap, learns of
        epoch 1 from m2's probe and claims epoch 2."""
        log = []
        engine = TotalOrderBroadcast(
            RecordingTransport("m1", log), ["m0", "m1", "m2"],
            on_deliver=lambda seq, origin, payload: log.append(
                ("deliver", seq, origin, payload)))
        engine.handle_message("m0", BroadcastEnvelope(
            kind="order", origin="m0", local_seq=0, global_seq=1,
            payload={"local_seq": 0, "data": "old"}, epoch=0))
        engine.handle_message("m2", BroadcastEnvelope(kind="state",
                                                      epoch=1))
        engine._tick()
        assert engine.epoch == 2
        assert not engine.is_sequencer and not engine.is_caught_up()
        assert ("send", "m2", "state") in log
        return engine, log

    def test_merge_takes_each_slot_from_the_newest_epoch(self):
        engine, log = self.claimant()
        engine.handle_message("m2", BroadcastEnvelope(kind="sync", epoch=2,
            entries=((0, "m2", {"local_seq": 0, "data": "zero"}, 1),
                     (1, "m2", {"local_seq": 1, "data": "new"}, 1))))
        assert engine.is_sequencer and engine.is_caught_up()
        assert [e for e in log if e[0] == "deliver"] == [
            ("deliver", 0, "m2", "zero"), ("deliver", 1, "m2", "new")]

    def test_a_slot_no_voter_holds_becomes_a_no_op(self):
        engine, log = self.claimant()
        engine.handle_message("m2", BroadcastEnvelope(
            kind="sync", epoch=2, entries=()))
        assert engine.is_sequencer
        assert [e for e in log if e[0] == "deliver"] == [
            ("deliver", 1, "m0", "old")]
        engine.broadcast("next")
        assert log[-1] == ("deliver", 2, "m1", "next")


class TestRecovery:
    """What a member needs after a crash is held on the member; its one
    tick, restarted by the host, drives all of it."""

    @staticmethod
    def _count_ticks(member):
        member.ticks = []
        original = member.engine._tick

        def tick():
            member.ticks.append(member.now)
            original()

        member.engine._tick = tick

    @pytest.mark.parametrize("index", [0, 2], ids=["sequencer", "follower"])
    def test_one_tick_chain_after_any_crash(self, index):
        sim, _net, members = build_group(n=3,
                                         before_start=self._count_ticks)
        member = members[index]
        sim.run_for(1.1)
        member.ticks.clear()
        sim.run_for(10.0)
        before = len(member.ticks)
        # Shorter and longer than heartbeat_interval (0.25), and longer
        # than suspect_after (1.5).
        for down_for in (0.05, 0.1, 0.3, 2.0):
            member.crash()
            sim.run_for(down_for)
            member.recover()
            sim.run_for(3.0)
            member.ticks.clear()
            sim.run_for(10.0)
            assert len(member.ticks) == before == 40

    def test_pending_forgets_ordered_requests(self):
        sim, _net, members = build_group(n=3)
        for i in range(50):
            members[i % 3].engine.broadcast(i)
        sim.run_for(5.0)
        assert all(len(m.delivered) == 50 for m in members)
        assert [len(m.engine._pending) for m in members] == [0, 0, 0]

    def test_request_in_flight_when_crashed_is_retransmitted(self):
        """The retransmission has no timer of its own to lose: a member
        that was down when its request timed out sends it again from
        the tick its recovery restarts."""
        sim, net, members = build_group(n=3)
        net.partition("m2", "m0")
        members[2].engine.broadcast("mine")
        sim.run_for(0.5)
        members[2].crash()
        sim.run_for(1.0)  # down across request_timeout
        net.heal("m2", "m0")
        members[2].recover()
        sim.run_for(1.0)
        for member in members:
            assert payloads(member) == ["mine"]
        assert not members[2].engine._pending
