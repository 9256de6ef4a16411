"""End-to-end tests for the multi-tenant sharded deployment.

The acceptance scenario for ``repro.shard``: several independent master
groups packed onto two host listeners, routed by content key through
owner-signed shard maps, with one shard moved online mid-run.  Every
test runs the real protocol over real TCP, so tenant routing, envelope
nesting and signature verification are exercised end to end.

No pytest-asyncio: each test drives its own ``asyncio.run`` with a hard
``wait_for`` bound so a wedged cluster fails rather than hangs.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.net.deploy import fast_protocol_config
from repro.shard.deploy import (
    ShardDeploymentSpec,
    ShardedCluster,
    run_shard_safety_checks,
)
from repro.shard.rebalance import RebalanceError, Rebalancer
from repro.shard.wire import shard_of

pytestmark = pytest.mark.shard


def run(coro, timeout: float = 120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def shard_spec(seed: int = 3, **overrides) -> ShardDeploymentSpec:
    config = overrides.pop("protocol", None) or fast_protocol_config(
        double_check_probability=0.0)
    return ShardDeploymentSpec(
        num_masters=2, slaves_per_master=1, num_clients=1,
        num_shards=2, num_hosts=2, seed=seed, protocol=config,
        **overrides)


class TestMultiTenantHosting:
    def test_keys_route_to_distinct_shards_and_read_back(self):
        async def scenario():
            cluster = await ShardedCluster.launch(shard_spec(),
                                                  settle=0.8)
            try:
                router = cluster.routers[0]
                # Probe until both shards own at least one key.
                keys = {}
                index = 0
                while set(keys) != set(cluster.shards):
                    key = f"k-{index}"
                    keys.setdefault(
                        router.shard_for(KVGet(key=key)), key)
                    index += 1
                for shard_id, key in keys.items():
                    reply = await cluster.write(
                        router, KVPut(key=key, value=f"v:{shard_id}"))
                    assert reply["status"] == "committed"
                await asyncio.sleep(cluster.config.max_latency)
                for shard_id, key in keys.items():
                    reply = await cluster.read(router, KVGet(key=key))
                    assert reply["status"] == "accepted"
                    assert reply["result"]["value"] == f"v:{shard_id}"
                # Versions advanced independently: each shard saw
                # exactly its own single write.
                for state in cluster.shards.values():
                    assert max(m.version for m in state.masters) == 1
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_tenants_share_hosts_but_not_state(self):
        async def scenario():
            cluster = await ShardedCluster.launch(shard_spec(),
                                                  settle=0.8)
            try:
                # Every protocol node is a tenant on one of the two
                # hosts; its id names its shard.
                for tenant_id_, host_id in cluster.host_of.items():
                    assert host_id in (
                        h.node_id for h in cluster.hosts)
                by_host = {h.node_id: set() for h in cluster.hosts}
                for state in cluster.shards.values():
                    for tid in state.tenant_ids():
                        assert shard_of(tid) == state.shard_id
                        by_host[cluster.host_of[tid]].add(
                            state.shard_id)
                # Both hosts serve tenants of both shards (round-robin
                # placement) -- the multi-tenant case, not one host per
                # shard.
                assert all(shards == set(cluster.shards)
                           for shards in by_host.values())
            finally:
                await cluster.aclose()

        run(scenario())

    def test_per_shard_metrics_labels(self):
        async def scenario():
            cluster = await ShardedCluster.launch(shard_spec(),
                                                  settle=0.8)
            try:
                router = cluster.routers[0]
                key = "k-0"
                await cluster.write(router, KVPut(key=key, value="v"))
                await asyncio.sleep(cluster.config.max_latency)
                await cluster.read(router, KVGet(key=key))
                counters = cluster.metrics.snapshot()
                shard = router.shard_for(KVGet(key=key))
                assert counters.get(f"shard_{shard}_frames", 0) > 0
                other = next(s for s in cluster.shards if s != shard)
                # The untouched shard still exchanges keep-alives, so
                # its label exists too -- per-shard, not global.
                assert f"shard_{other}_frames" in counters
            finally:
                await cluster.aclose()

        run(scenario())


class TestRebalance:
    def test_unknown_shard_raises(self):
        async def scenario():
            cluster = await ShardedCluster.launch(shard_spec(),
                                                  settle=0.8)
            try:
                with pytest.raises(RebalanceError):
                    await Rebalancer(cluster).move_shard("s99")
            finally:
                await cluster.aclose()

        run(scenario())

    def test_writes_survive_move_and_safety_holds(self):
        async def scenario():
            # More commits (3) than retained snapshots (2), so the move
            # also has to reproduce the history window's edge.
            spec = shard_spec(protocol=fast_protocol_config(
                double_check_probability=0.0, version_history_depth=2))
            cluster = await ShardedCluster.launch(spec, settle=0.8)
            try:
                router = cluster.routers[0]
                key = "k-0"
                moved = router.shard_for(KVGet(key=key))
                for i in range(3):
                    reply = await cluster.write(
                        router, KVPut(key=key, value=i))
                    assert reply["status"] == "committed"
                never_moved = max(
                    cluster.shards[moved].masters,
                    key=lambda m: (m.version, m.node_id)).history
                await Rebalancer(cluster).move_shard(moved)
                new_state = cluster.shards[moved]
                for server in [*new_state.masters, *new_state.auditors]:
                    seeded = server.history
                    assert seeded is not never_moved
                    assert seeded.ops == never_moved.ops
                    assert seeded.times == never_moved.times
                    assert seeded.store_at(1) is None
                    for version in (2, 3):
                        assert seeded.store_at(version).state_digest() == \
                            never_moved.store_at(version).state_digest()
                # The moved shard's history survived: a post-move read
                # returns the last pre-move value, and further writes
                # extend the same version sequence.
                reply = await cluster.read(router, KVGet(key=key),
                                           timeout=20.0)
                assert reply["status"] == "accepted"
                assert reply["result"]["value"] == 2
                reply = await cluster.write(
                    router, KVPut(key=key, value="post"), timeout=20.0)
                assert reply["status"] == "committed"
                assert reply["version"] == 4
                checks = run_shard_safety_checks(cluster)
                for shard_id, results in checks.items():
                    for check in results:
                        assert check.passed, (shard_id, check)
            finally:
                await cluster.aclose()

        run(scenario())


class TestHostRestart:
    def test_tenants_crash_and_recover_with_their_host(self):
        """Restarting a shard host must not blackhole its tenants: they
        go down with it and come back on its fresh pool (each used to
        keep the pool the crash had closed, with no counter moving)."""
        async def scenario():
            cluster = await ShardedCluster.launch(shard_spec(),
                                                  settle=0.8)
            try:
                router = cluster.routers[0]
                keys = {}
                index = 0
                while set(keys) != set(cluster.shards):
                    key = f"k-{index}"
                    keys.setdefault(
                        router.shard_for(KVGet(key=key)), key)
                    index += 1
                for shard_id, key in keys.items():
                    reply = await cluster.write(
                        router, KVPut(key=key, value=f"v:{shard_id}"))
                    assert reply["status"] == "committed"
                await asyncio.sleep(cluster.config.max_latency)

                tenants = [cluster.node(tid)
                           for tid, host in cluster.host_of.items()
                           if host == "host-01"]
                assert {shard_of(t.node_id) for t in tenants} == \
                    set(cluster.shards)
                await cluster.crash_node("host-01")
                assert all(t.crashed for t in tenants)
                await cluster.restart_node("host-01")
                assert not any(t.crashed for t in tenants)
                live = cluster.pools["host-01"]
                assert all(t.network.pool is live for t in tenants)

                # Let the restarted members rejoin and the slaves
                # resync, then read keys of both shards.
                await asyncio.sleep(2 * cluster.config.max_latency)
                for shard_id, key in keys.items():
                    reply = await cluster.read(router, KVGet(key=key),
                                               timeout=20.0)
                    assert reply["status"] == "accepted", (shard_id, reply)
                    assert reply["result"]["value"] == f"v:{shard_id}"
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())
