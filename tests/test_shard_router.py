"""Unit tests for :class:`repro.shard.router.ShardRouter`.

Satellite of the untrusted-directory story: a withholding, stale or
tampering directory may *delay* routing (operations queue, requests
retry) but can never make a router adopt an unverifiable shard map or
roll an adopted epoch back.  The router runs against the simulated
network with stub legs, so each trust decision is observable in
isolation from the full client setup protocol.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.content.kvstore import KVGet
from repro.core.config import ProtocolConfig
from repro.core.directory import DirectoryServer
from repro.core.owner import ContentOwner
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import HMACSigner
from repro.metrics import MetricsRegistry
from repro.shard.map import ShardMap
from repro.shard.router import ShardRouter, operation_fingerprint
from repro.shard.wire import WrongShard
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator


class FakeLeg(Node):
    """Stub of one shard leg: records routing, forwards unhandled."""

    def __init__(self, node_id, simulator, network):
        super().__init__(node_id, simulator, network)
        self.keys = KeyPair(node_id, HMACSigner(
            rng=random.Random(hash(node_id) % 1000)))
        self.ready = True
        self.on_unhandled = None
        self.started = False
        self.rehomes = 0
        self.submitted = []

    def start(self):
        self.started = True

    def rehome(self):
        self.rehomes += 1

    def submit(self, op, level=None, callback=None):
        self.submitted.append((op, level, callback))

    def on_message(self, src_id, message):
        handled = self.on_unhandled is not None \
            and self.on_unhandled(src_id, message)
        assert handled, f"leg {self.node_id} got unrouted {message!r}"


@pytest.fixture
def world():
    sim = Simulator(seed=1)
    net = Network(sim)
    owner = ContentOwner("owner", rng=random.Random(2))
    directory = DirectoryServer("directory", sim, net)
    legs = {sid: FakeLeg(f"{sid}:client-00", sim, net)
            for sid in ("s00", "s01")}
    router = ShardRouter(
        "router-00", namespace=owner.content_key_fingerprint(),
        owner_public_key=owner.content_public_key,
        config=ProtocolConfig(),
        metrics=MetricsRegistry(), directory_id="directory",
        clients=legs)
    return sim, directory, owner, legs, router


def make_map(owner: ContentOwner, epoch: int = 1,
             shards: tuple[str, ...] = ("s00", "s01")) -> ShardMap:
    return owner.sign_shard_map(
        epoch, seed=0,
        assignments={sid: (f"{sid}:master-00",) for sid in shards})


class TestMapAcquisition:
    def test_adopts_published_map_on_start(self, world):
        sim, directory, owner, legs, router = world
        directory.publish_shard_map(make_map(owner))
        router.start()
        sim.run_for(0.3)
        assert router.map_epoch == 1
        assert all(leg.started for leg in legs.values())

    def test_withholding_only_delays(self, world):
        """No map published: the router retries forever, never routes."""
        sim, directory, owner, legs, router = world
        router.start()
        done = []
        router.submit(KVGet(key="k"), callback=done.append)
        sim.run_for(3.8)
        # Kept asking (initial + a retry every MAP_RETRY = 1 s), adopted
        # nothing, routed nothing.
        assert directory.map_lookups_served >= 4
        assert router.shard_map is None
        assert all(leg.submitted == [] for leg in legs.values())
        assert router.metrics.count("router_ops_queued") == 1
        # The owner publishes; the next retry delivers and the queued
        # operation drains to its shard's leg.
        directory.publish_shard_map(make_map(owner))
        sim.run_for(1.0)
        assert router.map_epoch == 1
        routed = [leg for leg in legs.values() if leg.submitted]
        assert len(routed) == 1
        shard = router.shard_for(KVGet(key="k"))
        assert routed[0] is legs[shard]

    def test_tampered_map_never_adopted(self, world):
        """A directory-tampered map is rejected; retries keep liveness."""
        sim, directory, owner, legs, router = world
        genuine = make_map(owner)
        hijacked = tuple((sid, ("evil:master-00",))
                         for sid, _group in genuine.assignments)
        directory._shard_maps[router.namespace] = \
            dataclasses.replace(genuine, assignments=hijacked)
        router.start()
        sim.run_for(1.8)
        assert router.shard_map is None
        assert router.metrics.count("router_map_rejected") >= 1
        # Honest map at a higher epoch displaces the tampered one and
        # the still-running retry loop adopts it.
        directory.publish_shard_map(make_map(owner, epoch=2))
        sim.run_for(1.0)
        assert router.map_epoch == 2

    def test_forged_map_never_adopted(self, world):
        sim, directory, owner, legs, router = world
        impostor = ContentOwner("impostor", rng=random.Random(9))
        forged = ShardMap.make(
            impostor.keys, router.namespace, epoch=1, seed=0,
            assignments={sid: (f"{sid}:master-00",) for sid in legs},
            issued_at=0.0)
        directory._shard_maps[router.namespace] = forged
        router.start()
        sim.run_for(1.3)
        assert router.shard_map is None
        assert router.metrics.count("router_map_rejected") >= 1

    def test_epoch_rollback_ignored(self, world):
        sim, directory, owner, legs, router = world
        directory.publish_shard_map(make_map(owner, epoch=3))
        router.start()
        sim.run_for(0.3)
        assert router.map_epoch == 3
        # A stale directory replays epoch 1 straight at the router.
        router._adopt(make_map(owner, epoch=1))
        assert router.map_epoch == 3
        assert router.metrics.count("router_map_stale") == 1

    def test_wrong_namespace_ignored(self, world):
        sim, _directory, owner, legs, router = world
        other = ContentOwner("other", rng=random.Random(11))
        router._adopt(make_map(other))
        assert router.shard_map is None
        assert router.metrics.count("router_map_rejected") == 1

    def test_map_for_unknown_shards_not_adopted(self, world):
        """A verifiable map naming shards this router has no legs for."""
        sim, _directory, owner, legs, router = world
        router._adopt(make_map(owner, shards=("s00", "s01", "s07")))
        assert router.shard_map is None
        assert router.metrics.count("router_map_unroutable") == 1


class TestRouting:
    def test_same_key_always_same_shard(self, world):
        _sim, _directory, owner, legs, router = world
        router._adopt(make_map(owner))
        op = KVGet(key="stable-key")
        assert len({router.shard_for(op) for _ in range(10)}) == 1

    def test_fingerprint_prefers_content_key(self, world):
        op = KVGet(key="alpha")
        assert operation_fingerprint(op) == \
            operation_fingerprint(KVGet(key="alpha"))

    def test_shard_for_without_map_raises(self, world):
        _sim, _directory, _owner, _legs, router = world
        with pytest.raises(RuntimeError):
            router.shard_for(KVGet(key="k"))


class TestWrongShard:
    def test_redirect_triggers_refetch_and_rehome(self, world):
        sim, directory, owner, legs, router = world
        directory.publish_shard_map(make_map(owner))
        router.start()
        sim.run_for(0.3)
        served_before = directory.map_lookups_served
        anchor_shard = next(iter(legs))
        legs[anchor_shard].on_message(
            f"{anchor_shard}:master-00",
            WrongShard(shard_id=anchor_shard, epoch=2))
        sim.run_for(0.3)
        assert router.wrong_shard_redirects == 1
        assert legs[anchor_shard].rehomes == 1
        assert directory.map_lookups_served > served_before

    def test_redirect_at_known_epoch_skips_refetch(self, world):
        sim, directory, owner, legs, router = world
        directory.publish_shard_map(make_map(owner, epoch=2))
        router.start()
        sim.run_for(0.3)
        served_before = directory.map_lookups_served
        legs["s00"].on_message("s00:master-00",
                               WrongShard(shard_id="s00", epoch=2))
        sim.run_for(0.3)
        assert legs["s00"].rehomes == 1
        assert directory.map_lookups_served == served_before

    def test_unready_leg_not_rehomed(self, world):
        sim, directory, owner, legs, router = world
        directory.publish_shard_map(make_map(owner))
        router.start()
        sim.run_for(0.3)
        legs["s01"].ready = False
        legs["s01"].on_message("s01:master-00",
                               WrongShard(shard_id="s01", epoch=2))
        assert legs["s01"].rehomes == 0

    def test_map_change_rehomes_only_moved_shard(self, world):
        sim, directory, owner, legs, router = world
        router._adopt(make_map(owner))
        moved = owner.sign_shard_map(
            2, seed=0, assignments={
                "s00": ("s00:g1:master-00",),
                "s01": ("s01:master-00",),
            })
        router._adopt(moved)
        assert router.map_epoch == 2
        assert legs["s00"].rehomes == 1
        assert legs["s01"].rehomes == 0
