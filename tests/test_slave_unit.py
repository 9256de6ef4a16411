"""Unit tests for the slave server state machine (isolated node)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.core.adversary import BrokenSignature
from repro.core.config import ProtocolConfig
from repro.core.master import MasterServer
from repro.core.client import rebuild_pledge
from repro.core.messages import (
    KeepAlive,
    Pledge,
    ReadReply,
    ReadRequest,
    ResyncRequest,
    Seal,
    SlaveUpdate,
    VersionStamp,
)
from repro.core.slave import SlaveServer
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import HMACSigner
from repro.metrics import MetricsRegistry
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator


class Sink(Node):
    """Capture everything sent to this node."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inbox = []

    def on_message(self, src_id, message):
        self.inbox.append((src_id, message))


@pytest.fixture
def world():
    sim = Simulator(seed=2)
    net = Network(sim)
    config = ProtocolConfig(max_latency=3.0, keepalive_interval=1.0)
    metrics = MetricsRegistry()
    master = MasterServer("master-00", sim, net, config,
                          KeyValueStore({"a": 1}), ["master-00"], metrics)
    sink = Sink("client-00", sim, net)
    certs = {"master-00": Certificate.issue(
        master.keys, "master-00", "addr", master.keys.public_key, 0.0)}
    # The slave verifies stamps against certified master keys.
    slave = SlaveServer("slave-00-00", sim, net, config,
                        KeyValueStore({"a": 1}), certs, metrics)
    return sim, master, slave, sink, metrics


def stamp_for(master, version, at):
    return VersionStamp.make(master.keys, version, at)


def update(master, from_version, ops, at):
    return SlaveUpdate(from_version=from_version,
                       ops_wire=tuple(op.to_wire() for op in ops),
                       stamp=stamp_for(master, from_version + len(ops), at))


class TestFreshness:
    def test_never_heard_from_master_not_fresh(self, world):
        _sim, _master, slave, _sink, _m = world
        assert not slave.is_fresh()

    def test_fresh_after_keepalive(self, world):
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, sim.now)))
        assert slave.is_fresh()

    def test_staleness_after_max_latency(self, world):
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, sim.now)))
        sim.run_until(2.9)
        assert slave.is_fresh()
        sim.run_until(3.1)
        assert not slave.is_fresh()

    def test_newer_stamp_extends_freshness(self, world):
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, 0.0)))
        sim.run_until(2.0)
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, 2.0)))
        sim.run_until(4.0)
        assert slave.is_fresh()

    def test_older_stamp_never_regresses(self, world):
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, 2.0)))
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, 1.0)))
        assert slave.latest_stamp.timestamp == 2.0

    def test_forged_keepalive_rejected(self, world):
        _sim, _master, slave, _sink, metrics = world
        impostor = KeyPair("impostor", HMACSigner())
        slave.on_message("impostor",
                         KeepAlive(stamp=VersionStamp.make(impostor, 5, 0.0)))
        assert slave.latest_stamp is None
        assert metrics.count("slave_bad_stamps") == 1


class TestUpdateOrdering:
    def test_in_order_updates_apply(self, world):
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00", update(
            master, 0, [KVPut(key="x", value=1)], sim.now))
        assert slave.version == 1
        assert slave.store.execute_read(KVGet(key="x")).result["value"] == 1

    def test_out_of_order_update_buffered_and_resync_requested(self, world):
        sim, master, slave, _sink, _m = world
        # Version 1 -> 2 update arrives before 0 -> 1.
        slave.on_message("master-00", update(
            master, 1, [KVPut(key="y", value=2)], sim.now))
        assert slave.version == 0
        sim.run_until(1.0)
        resyncs = [(s, m) for s, m in master_inbox(master)
                   if isinstance(m, ResyncRequest)]
        # The master received the slave's resync request and replied.
        assert slave.version in (0, 2)

    def test_buffered_update_applies_after_gap_fills(self, world):
        sim, master, slave, _sink, _m = world
        late = update(master, 1, [KVPut(key="y", value=2)], sim.now)
        early = update(master, 0, [KVPut(key="x", value=1)], sim.now)
        slave.on_message("master-00", late)
        slave.on_message("master-00", early)
        assert slave.version == 2
        assert slave.store.execute_read(KVGet(key="y")).result["value"] == 2

    def test_stamp_follows_the_version_when_updates_share_a_time(self, world):
        """A master replaying missed commits signs them in one instant:
        the slave must serve version 2 under the version-2 stamp, not
        keep the version-1 stamp because it is no older."""
        sim, master, slave, _sink, _m = world
        slave.on_message("master-00", update(
            master, 0, [KVPut(key="x", value=1)], sim.now))
        slave.on_message("master-00", update(
            master, 1, [KVPut(key="y", value=2)], sim.now))
        assert slave.version == 2
        assert slave.latest_stamp.version == 2

    def test_superseded_updates_dropped(self, world):
        sim, master, slave, _sink, _m = world
        batch = update(master, 0,
                       [KVPut(key="x", value=1), KVPut(key="y", value=2)],
                       sim.now)
        slave.on_message("master-00", batch)
        assert slave.version == 2
        # A stale single-op update for version 0 must be ignored now.
        slave.on_message("master-00", update(
            master, 0, [KVPut(key="x", value=999)], sim.now))
        assert slave.version == 2
        assert slave.store.execute_read(KVGet(key="x")).result["value"] == 1


def master_inbox(master):
    return []  # master handles its messages internally; helper placeholder


class TestReadHandling:
    def prime(self, world):
        sim, master, slave, sink, metrics = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, sim.now)))
        return sim, master, slave, sink, metrics

    def test_read_served_with_pledge(self, world):
        sim, master, slave, sink, _m = self.prime(world)
        slave.on_message("client-00", ReadRequest(
            client_id="client-00", request_id="client-00:r0",
            query_wire=KVGet(key="a").to_wire()))
        sim.run_until(1.0)
        replies = [m for _s, m in sink.inbox if isinstance(m, ReadReply)]
        assert len(replies) == 1
        reply = replies[0]
        # The reply carries the pledge's seal; the rest of the pledge is
        # the client's own request and the result it receives.
        assert reply.in_sync and isinstance(reply.pledge, Seal)
        assert reply.result == {"found": True, "value": 1}
        assert reply.pledge.stamp is slave.latest_stamp
        pledge = rebuild_pledge(reply, "slave-00-00", "client-00:r0",
                                KVGet(key="a").to_wire())
        # The pledge verifies under the slave's public key.
        verifier = KeyPair("v", HMACSigner())
        assert pledge.verify(verifier, slave.keys.public_key)

    def test_stale_slave_refuses(self, world):
        sim, master, slave, sink, metrics = self.prime(world)
        sim.run_until(5.0)  # stamp now stale
        slave.on_message("client-00", ReadRequest(
            client_id="client-00", request_id="client-00:r1",
            query_wire=KVGet(key="a").to_wire()))
        sim.run_until(6.0)
        replies = [m for _s, m in sink.inbox if isinstance(m, ReadReply)]
        assert replies and not replies[-1].in_sync
        assert metrics.count("slave_reads_refused_stale") == 1

    def test_write_query_rejected(self, world):
        sim, _master, slave, _sink, _m = self.prime(world)
        with pytest.raises(TypeError, match="read query"):
            slave.on_message("client-00", ReadRequest(
                client_id="client-00", request_id="client-00:r2",
                query_wire=KVPut(key="a", value=9).to_wire()))

    def test_unexpected_message_raises(self, world):
        _sim, _master, slave, _sink, _m = world
        with pytest.raises(TypeError, match="unexpected"):
            slave.on_message("client-00", "banana")


def read_request(index):
    return ReadRequest(client_id="client-00",
                       request_id=f"client-00:r{index}",
                       query_wire=KVGet(key="a").to_wire())


def record_sends(sim, slave):
    """``(send time, ReadReply)`` for every reply the slave sends."""
    sent = []
    original = slave.send

    def send(dst_id, message, size_bytes=256):
        if isinstance(message, ReadReply):
            sent.append((sim.now, message))
        original(dst_id, message, size_bytes)

    slave.send = send
    return sent


class TestReplyPath:
    """One path from answered read to reply: park, flush, batch-sign."""

    def prime(self, world):
        sim, master, slave, _sink, metrics = world
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, sim.now)))
        return sim, slave, metrics

    def test_modeled_replies_leave_one_service_time_apart(self, world):
        """k same-instant reads with service times charged: reply i
        leaves at t + i*s, each its own flush (the closed form of a
        slave answering one read at a time)."""
        sim, slave, metrics = self.prime(world)
        assert slave.config.simulate_service_times
        sent = record_sends(sim, slave)
        start, k = sim.now, 5
        for index in range(k):
            slave.on_message("client-00", read_request(index))
        assert sent == [] and slave._pending_reads == []
        sim.run_until(start + 1.0)
        cost = slave.store.execute_read(KVGet(key="a")).cost_units
        service = (cost * slave.config.service_time_per_unit
                   + slave.config.hash_time + slave.config.sign_time)
        assert service > 0.0
        assert [reply.request_id for _at, reply in sent] == \
            [f"client-00:r{index}" for index in range(k)]
        assert [at for at, _reply in sent] == pytest.approx(
            [start + (index + 1) * service for index in range(k)])
        assert metrics.count("slave_read_batches") == 0
        assert slave.work.total_busy == pytest.approx(k * service)

    def test_same_tick_reads_are_one_batch_of_identical_pledges(self, world):
        """Zero-cost work parks inline; the tick's reads are signed as
        one batch whose payload and signature bytes equal one
        ``Pledge.make`` per read."""
        sim, slave, metrics = self.prime(world)
        slave.config = dataclasses.replace(slave.config,
                                           simulate_service_times=False)
        sent = record_sends(sim, slave)
        start, k = sim.now, 6
        for index in range(k):
            slave.on_message("client-00", read_request(index))
        assert len(slave._pending_reads) == k and sent == []
        sim.run_until(start + 1.0)
        assert metrics.count("slave_read_batches") == 1
        assert [at for at, _reply in sent] == [start] * k
        for index, (_at, reply) in enumerate(sent):
            alone = Pledge.make(
                slave.keys, query_wire=KVGet(key="a").to_wire(),
                result_hash=sha1_hex(reply.result),
                stamp=slave.latest_stamp,
                request_id=f"client-00:r{index}")
            assert reply.pledge == Seal(stamp=alone.stamp,
                                        signature=alone.signature)
            assert bytes(reply.pledge.signature) == bytes(alone.signature)

    def test_a_lone_read_is_a_batch_of_one(self, world):
        sim, slave, metrics = self.prime(world)
        slave.config = dataclasses.replace(slave.config,
                                           simulate_service_times=False)
        sent = record_sends(sim, slave)
        slave.on_message("client-00", read_request(0))
        sim.run_until(sim.now + 1.0)
        assert len(sent) == 1 and sent[0][1].pledge is not None
        assert metrics.count("slave_read_batches") == 0

    @pytest.mark.parametrize("modeled", [False, True])
    def test_garble_draws_once_per_reply_in_arrival_order(self, world,
                                                          modeled):
        """``BrokenSignature`` garbles the reads a slave answering one
        read at a time garbles: its rng is drawn once per reply, in
        arrival order, batched or not."""
        sim, slave, metrics = self.prime(world)
        slave.config = dataclasses.replace(slave.config,
                                           simulate_service_times=modeled)
        slave.strategy = BrokenSignature(garble_rate=0.4,
                                         rng=random.Random(77))
        sent = record_sends(sim, slave)
        for index in range(24):
            if index % 8 == 0:
                sim.run_until(sim.now + 0.5)  # three ticks of eight reads
            slave.on_message("client-00", read_request(index))
        sim.run_until(sim.now + 1.0)
        draws = random.Random(77)
        expected = [draws.random() < 0.4 for _ in range(24)]
        assert 0 < sum(expected) < 24
        assert [reply.request_id for _at, reply in sent] == \
            [f"client-00:r{index}" for index in range(24)]
        assert [reply.pledge.signature == b"\x00garbage"
                for _at, reply in sent] == expected
        assert metrics.count("slave_garbled_signatures") == sum(expected)


class TestCrashWithParkedReads:
    """A crash between answering a read and sending its reply loses
    that reply and nothing else: the slave answers again once it is
    back."""

    def prime(self, world, modeled):
        sim, master, slave, _sink, _metrics = world
        slave.config = dataclasses.replace(slave.config,
                                           simulate_service_times=modeled)
        slave.on_message("master-00",
                         KeepAlive(stamp=stamp_for(master, 0, sim.now)))
        return sim, slave, record_sends(sim, slave)

    def test_crash_between_park_and_flush(self, world):
        sim, slave, sent = self.prime(world, modeled=False)
        slave.on_message("client-00", read_request(0))
        assert len(slave._pending_reads) == 1  # parked, flush armed
        slave.crash()
        assert slave._pending_reads == []
        sim.run_until(sim.now + 0.5)
        slave.recover()
        for index in range(1, 4):
            slave.on_message("client-00", read_request(index))
        sim.run_until(sim.now + 0.5)
        assert [reply.request_id for _at, reply in sent] == \
            [f"client-00:r{index}" for index in range(1, 4)]
        assert slave.messages_sent == 3

    def test_crash_between_serve_and_park(self, world):
        sim, slave, sent = self.prime(world, modeled=True)
        slave.on_message("client-00", read_request(0))
        slave.on_message("client-00", read_request(1))
        assert slave._pending_reads == []  # both still in the work queue
        slave.crash()
        sim.run_until(sim.now + 0.5)  # their park timers fire inert
        slave.recover()
        assert slave._pending_reads == [] and sent == []
        slave.on_message("client-00", read_request(2))
        sim.run_until(sim.now + 0.5)
        assert [reply.request_id for _at, reply in sent] == ["client-00:r2"]
