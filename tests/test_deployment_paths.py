"""Pins for the single deployment path (one cast builder, one send
path, one oracle).

* Key material: ``fork_rng`` is keyed by fork order, so the order the
  cast builder constructs nodes in *is* the key material.  The digests
  below were generated on the commit before the three hand-written
  builds were replaced; every substrate must still derive the same keys
  from the same seed -- also across a shard move, and with admission
  control on, which forks no stream of its own (its shed decision draws
  nothing), so it derives exactly the keys of the same cluster without
  it.
* Send path: a connected fault-injecting link flushes synchronously,
  exactly like production -- no ``net-send:`` recovery task.
* Oracle: the simulator's post-run methods and the chaos verdicts are
  presentations of one result, so they agree count for count.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random

import pytest

from repro.chaos.faults import LinkFaults
from repro.chaos.invariants import run_safety_checks
from repro.content.kvstore import KVGet
from repro.core.adversary import AlwaysLie
from repro.core.config import ProtocolConfig
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.shard.deploy import ShardDeploymentSpec, ShardedCluster
from repro.shard.rebalance import Rebalancer

from tests.conftest import make_system
from tests.test_chaos_faults import ChaosHarness


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def key_digest(deployment) -> str:
    rows = sorted((node.node_id, node.keys.public_key.fingerprint())
                  for node in (*deployment.masters, *deployment.auditors,
                               *deployment.slaves, *deployment.clients))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


#: seed -> substrate -> digest at the parent commit.
PARENT_DIGESTS = {
    0: {"sim": "565e6ed545f039e4", "net": "545f0c1ec7f88080",
        "shard": "fbbd3cce7477f8bd", "shard_moved": "4b65cb07b4ca1a64"},
    7: {"sim": "2e91b9f8704f0a4b", "net": "e0eb064d12f01ce3",
        "shard": "bcb5d5a53508722a", "shard_moved": "295debdd27b1605a"},
}


@pytest.mark.parametrize("seed", sorted(PARENT_DIGESTS))
class TestKeyMaterialUnchanged:
    def test_simulator(self, seed):
        system = ReplicationSystem(DeploymentSpec(seed=seed))
        assert key_digest(system) == PARENT_DIGESTS[seed]["sim"]

    @pytest.mark.net
    @pytest.mark.parametrize("variant, overrides", [
        ("net", {}), ("net_qos", {"qos_frame_rate": 1000.0})])
    def test_local_cluster(self, seed, variant, overrides):
        # Both variants pin the "net" digest: admission changes no key.
        async def scenario():
            cluster = await LocalCluster.launch(
                NetDeploymentSpec(
                    seed=seed, protocol=fast_protocol_config(**overrides)),
                settle=0.1)
            try:
                return key_digest(cluster)
            finally:
                await cluster.aclose()

        assert run(scenario()) == PARENT_DIGESTS[seed]["net"]

    @pytest.mark.shard
    def test_sharded_cluster_and_shard_move(self, seed):
        async def scenario():
            cluster = await ShardedCluster.launch(
                ShardDeploymentSpec(num_masters=2, slaves_per_master=1,
                                    num_clients=1, seed=seed),
                settle=0.3)
            try:
                built = key_digest(cluster)
                await Rebalancer(cluster).move_shard("s00")
                return built, key_digest(cluster)
            finally:
                await cluster.aclose()

        built, moved = run(scenario())
        assert built == PARENT_DIGESTS[seed]["shard"]
        assert moved == PARENT_DIGESTS[seed]["shard_moved"]


@pytest.mark.net
class TestChaosLinkFlushesSynchronously:
    @pytest.mark.parametrize("faults", [
        LinkFaults(), LinkFaults(corrupt=0.3, duplicate=0.3)])
    def test_no_recovery_task_on_a_connected_link(self, faults):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            tasks = []

            def recording_factory(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                tasks.append(task)
                return task

            try:
                # The first send has to dial: that one waits in a task.
                h.pool.send("target", "hello")
                await h.wait_received(1)
                h.plane.set_link("tester", "target", faults)
                loop = asyncio.get_running_loop()
                loop.set_task_factory(recording_factory)
                for n in range(49):
                    h.pool.send("target", {"n": n})
                    if n % 7 == 0:
                        await asyncio.sleep(0)
                await asyncio.sleep(0.2)
                loop.set_task_factory(None)
                metrics = h.metrics
                assert metrics.count("net_frames_sent") >= 49
                assert len(h.received) > 1
                recoveries = [t for t in tasks
                              if t.get_name().startswith("net-send:")]
                # A flipped byte that breaks a frame's inner framing
                # makes the receiver close the connection; the redial is
                # the one thing a recovery task is needed for here.
                redials = metrics.count("net_connects") - 1
                assert len(recoveries) == redials
                if faults.healthy:
                    assert redials == 0
                else:
                    assert metrics.count("chaos_corrupted_frames") > redials
                    assert metrics.count("chaos_duplicated_frames") > 0
            finally:
                await h.aclose()

        run(scenario())


class TestOneOracle:
    def test_simulator_methods_and_chaos_verdicts_agree(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.05),
            adversaries={0: AlwaysLie()})
        system.start()
        rng = random.Random(1)
        for i in range(200):
            system.schedule_op(
                system.clients[i % len(system.clients)],
                system.now + 0.2 * (i + 1),
                KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(80.0)

        classified = system.classify_accepted_reads()
        violations = system.check_consistency_window()
        forged, window, converged, homed = run_safety_checks(
            system, window_slack=1e-9)
        assert classified["accepted_wrong"] > 0  # the liar was believed
        assert not forged.passed
        assert forged.detail.startswith(
            f"{classified['accepted_total']} accepted reads, "
            f"{classified['accepted_wrong']} forged ")
        assert forged.detail.endswith(" 0 beyond trusted history")
        assert window.passed == (not violations)
        assert window.detail.startswith(
            f"{len(violations)} of {classified['accepted_total']} ")
        assert converged.passed and homed.passed
