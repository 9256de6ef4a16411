"""Tests for the chaos fault plane (repro.chaos.faults).

The plane's contract is determinism: for a given seed the fate of the
n-th frame on a link is fixed, independent of traffic on other links,
profile changes, or the order links were first used.  Plus the
socket-level behaviours riding on the transport: a partition (a cut
link) dropping frames under the chaos reason, corrupted frames that
stay frame-aligned, duplicate/reorder delivery, and -- the chaos pool
writing the same bytes as the production pool, references and all -- a
whole cluster reading over a link that damages what a connection
remembers.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.chaos.faults import (
    CUT,
    HEALTHY,
    ChaosConnectionPool,
    FaultPlane,
    FramePlan,
    LinkFaults,
)
from repro.chaos.invariants import run_safety_checks
from repro.content.kvstore import KeyValueStore, KVGet
from repro.metrics import MetricsRegistry
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.net.peers import PeerDirectory
from repro.net.server import NodeServer, RealtimeScheduler, SocketNetwork
from repro.sim.network import Node

NOISY = LinkFaults(drop=0.2, duplicate=0.2, corrupt=0.2, reorder=0.2,
                   delay=0.001, delay_jitter=0.002)


def run(coro, timeout: float = 20.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestLinkFaults:
    def test_healthy_default(self):
        assert LinkFaults().healthy
        assert HEALTHY.healthy
        assert not LinkFaults(drop=0.1).healthy

    @pytest.mark.parametrize("kwargs", [
        dict(drop=-0.1), dict(drop=1.5), dict(duplicate=2.0),
        dict(corrupt=-1.0), dict(reorder=1.01), dict(delay=-0.5),
        dict(delay_jitter=-0.1), dict(duplicate=-0.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkFaults(**kwargs)


class TestFaultPlane:
    def _plans(self, plane: FaultPlane, src: str, dst: str,
               n: int = 200) -> list[FramePlan]:
        return [plane.plan(src, dst) for _ in range(n)]

    def test_same_seed_same_decisions(self):
        a = FaultPlane(seed=7)
        b = FaultPlane(seed=7)
        for plane in (a, b):
            plane.set_link("x", "y", NOISY)
        assert self._plans(a, "x", "y") == self._plans(b, "x", "y")

    def test_different_seeds_diverge(self):
        a = FaultPlane(seed=1)
        b = FaultPlane(seed=2)
        for plane in (a, b):
            plane.set_link("x", "y", NOISY)
        assert self._plans(a, "x", "y") != self._plans(b, "x", "y")

    def test_links_have_independent_streams(self):
        plane = FaultPlane(seed=3)
        plane.set_default(NOISY)
        solo = FaultPlane(seed=3)
        solo.set_default(NOISY)
        # Interleave traffic on a second link; x->y must be unaffected.
        interleaved = []
        for i in range(100):
            interleaved.append(plane.plan("x", "y"))
            plane.plan("a", "b")
            if i % 3 == 0:
                plane.plan("y", "x")
        assert interleaved == self._plans(solo, "x", "y", 100)

    def test_healthy_frames_do_not_consume_the_stream(self):
        plane = FaultPlane(seed=5)
        solo = FaultPlane(seed=5)
        plane.set_link("x", "y", NOISY)
        solo.set_link("x", "y", NOISY)
        first = [plane.plan("x", "y") for _ in range(50)]
        # Heal the link, push traffic through it, then re-arm: the
        # stream resumes exactly where frame 50 left off.
        plane.set_link("x", "y", HEALTHY)
        for _ in range(37):
            assert plane.plan("x", "y") == FramePlan()
        plane.set_link("x", "y", NOISY)
        resumed = [plane.plan("x", "y") for _ in range(50)]
        expected = [solo.plan("x", "y") for _ in range(100)]
        assert first + resumed == expected

    def test_set_default_clears_profiles_not_streams(self):
        plane = FaultPlane(seed=9)
        plane.set_default(NOISY)
        plane.set_link("x", "y", CUT)
        plane.set_link("p", "q", CUT, symmetric=True)
        assert plane.plan("x", "y").drop
        plane.set_default(HEALTHY)
        for link in (("x", "y"), ("p", "q"), ("q", "p"), ("a", "b")):
            assert plane.faults_for(*link).healthy
        # Re-armed, x->y goes on after the frame it drew under CUT.
        plane.set_default(NOISY)
        resumed = self._plans(plane, "x", "y", 20)
        solo, fresh = FaultPlane(seed=9), FaultPlane(seed=9)
        solo.set_default(CUT)
        solo.plan("x", "y")
        solo.set_default(NOISY)
        fresh.set_default(NOISY)
        assert resumed == self._plans(solo, "x", "y", 20)
        assert resumed != self._plans(fresh, "x", "y", 20)

    def test_symmetric_set_and_clear(self):
        plane = FaultPlane(seed=0)
        plane.set_link("x", "y", NOISY, symmetric=True)
        assert plane.faults_for("y", "x") == NOISY
        plane.set_link("x", "y", HEALTHY, symmetric=True)
        assert plane.faults_for("y", "x").healthy

    def test_partitions_are_bidirectional(self):
        plane = FaultPlane(seed=0)
        plane.set_link("a", "b", CUT, symmetric=True)
        for link in (("a", "b"), ("b", "a")):
            assert plane.faults_for(*link) == CUT
            assert all(p.drop for p in self._plans(plane, *link, 50))
        assert plane.faults_for("a", "c").healthy
        plane.set_link("b", "a", HEALTHY, symmetric=True)
        assert plane.faults_for("a", "b").healthy
        plane.set_link("a", "b", CUT, symmetric=True)
        plane.set_default(HEALTHY)
        assert plane.faults_for("b", "a").healthy

    def test_drop_certainty_and_never(self):
        plane = FaultPlane(seed=1)
        plane.set_link("x", "y", LinkFaults(drop=1.0))
        assert all(p.drop for p in self._plans(plane, "x", "y", 50))
        plane.set_link("x", "y", LinkFaults(delay=0.5))
        plans = self._plans(plane, "x", "y", 50)
        assert not any(p.drop for p in plans)
        assert all(p.delay >= 0.5 for p in plans)

    def test_randrange_deterministic(self):
        a = FaultPlane(seed=4)
        b = FaultPlane(seed=4)
        assert [a.randrange("x", "y", 0, 100) for _ in range(20)] == \
            [b.randrange("x", "y", 0, 100) for _ in range(20)]


class ChaosHarness:
    """One listening node reached through a chaos pool."""

    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.metrics = MetricsRegistry()
        self.scheduler = RealtimeScheduler(0, loop)
        self.peers = PeerDirectory()
        self.plane = FaultPlane(seed=0)
        self.pool = ChaosConnectionPool(
            "tester", self.peers, self.metrics, rng=random.Random(1),
            plane=self.plane)
        self.received: list = []
        outer = self

        class Sink(Node):
            def on_message(self, src_id: str, message) -> None:
                outer.received.append(message)

        self.node = Sink("target", self.scheduler,
                         SocketNetwork(self.scheduler, self.pool))
        self.server = NodeServer(self.node, self.metrics)

    async def start(self) -> None:
        host, port = await self.server.start()
        self.peers.add("target", host, port)

    async def wait_received(self, count: int, timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.received) < count:
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"got {len(self.received)}/{count} messages")
            await asyncio.sleep(0.01)

    async def aclose(self) -> None:
        self.scheduler.cancel_all()
        await self.pool.aclose()
        await self.server.aclose()


@pytest.mark.net
@pytest.mark.usefixtures("fast_retries")
class TestChaosConnectionPool:
    def test_healthy_plane_is_transparent(self):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            try:
                for n in range(5):
                    h.pool.send("target", {"n": n})
                await h.wait_received(5)
                assert h.received == [{"n": n} for n in range(5)]
            finally:
                await h.aclose()

        run(scenario())

    def test_partition_eats_frames_with_reason(self):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            try:
                h.plane.set_link("tester", "target", CUT, symmetric=True)
                h.pool.send("target", "lost")
                h.pool.send("target", "lost too")
                await asyncio.sleep(0.05)
                snap = h.metrics.snapshot()
                assert snap["net_drop_chaos"] == 2
                assert snap["net_frames_dropped"] == 2
                assert h.received == []
                h.plane.set_default(HEALTHY)
                h.pool.send("target", "healed")
                await h.wait_received(1)
                assert h.received == ["healed"]
            finally:
                await h.aclose()

        run(scenario())

    def test_duplicates_delivered_twice(self):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            try:
                h.plane.set_link("tester", "target",
                                 LinkFaults(duplicate=1.0))
                h.pool.send("target", "echo")
                await h.wait_received(2)
                assert h.received == ["echo", "echo"]
                assert h.metrics.count("chaos_duplicated_frames") == 1
            finally:
                await h.aclose()

        run(scenario())

    def test_corrupt_frame_rejected_not_delivered_wrong(self):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            try:
                h.plane.set_link("tester", "target",
                                 LinkFaults(corrupt=1.0))
                payload = {"k": "v" * 50}
                for _ in range(4):
                    h.pool.send("target", payload)
                h.plane.set_link("tester", "target", HEALTHY)
                h.pool.send("target", "clean")
                await h.wait_received(1, timeout=8.0)
                # Whatever survived decoding must be bit-exact; the rest
                # must be visibly rejected, never silently mangled.
                snap = h.metrics.snapshot()
                assert snap["chaos_corrupted_frames"] == 4
                rejected = snap.get("net_frames_rejected", 0)
                survived = [m for m in h.received if m != "clean"]
                assert all(m == payload for m in survived) or rejected > 0
                assert h.received[-1] == "clean"
            finally:
                await h.aclose()

        run(scenario())

    def test_reorder_holds_then_releases(self):
        async def scenario():
            h = ChaosHarness()
            await h.start()
            try:
                plans = iter([FramePlan(hold=True), FramePlan()])
                h.plane.plan = lambda src, dst: next(
                    plans, FramePlan())  # type: ignore[method-assign]
                h.pool.send("target", "first")
                h.pool.send("target", "second")
                await h.wait_received(2)
                # The held first frame is overtaken by the second.
                assert h.received == ["second", "first"]
                assert h.metrics.count("chaos_reordered_frames") == 1
            finally:
                await h.aclose()

        run(scenario())


@pytest.mark.net
@pytest.mark.chaos
class TestReferencesOverACorruptingLink:
    def test_every_read_is_accepted_and_no_reference_is_guessed(self):
        """200 sequential reads while one frame in ten from the slave
        to the client has a byte flipped.  A damaged frame that carried
        a stamp in full leaves the client without it, so the next reply
        names something the client never saw: that must cost the
        connection (counted, redialled, stamp sent whole again) and
        never resolve to anything else.  The link alone seldom hits the
        one reply in dozens that defines a stamp, so every tenth read
        -- until a reference has been rejected -- waits for a
        keep-alive and has the link damage the reply that follows it.
        """
        async def scenario():
            plane = FaultPlane(seed=22)
            # A lost reply is re-asked for before the next keep-alive,
            # so the retry's answer leans on the stamp that was lost.
            config = fast_protocol_config(double_check_probability=0.0,
                                          request_timeout=0.05)
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=22,
                protocol=config,
                store_factory=lambda: KeyValueStore({"k": "v" * 64}))
            cluster = await LocalCluster.launch(spec, settle=0.6,
                                                plane=plane)
            try:
                slave, client = cluster.slaves[0], cluster.clients[0]
                link = (slave.node_id, client.node_id)
                count = cluster.metrics.count
                assert (await cluster.read(client, KVGet(key="k")))[
                    "status"] == "accepted"
                connects = count("net_connects")
                noisy = LinkFaults(corrupt=0.1)
                plane.set_link(*link, noisy)

                async def read_behind_a_damaged_stamp() -> dict:
                    seen = slave.latest_stamp
                    await cluster.wait_for(
                        lambda: slave.latest_stamp is not seen, 2.0,
                        what="the next keep-alive", poll=0.002)
                    damaged = count("chaos_corrupted_frames")
                    plane.set_link(*link, LinkFaults(corrupt=1.0))
                    read = asyncio.ensure_future(
                        cluster.read(client, KVGet(key="k")))
                    await cluster.wait_for(
                        lambda: count("chaos_corrupted_frames") > damaged,
                        2.0, what="the reply to be damaged", poll=0.001)
                    plane.set_link(*link, noisy)
                    return await read

                for n in range(200):
                    if n % 10 == 0 and not count(
                            "net_frames_rejected_reference"):
                        reply = await read_behind_a_damaged_stamp()
                    else:
                        reply = await cluster.read(client, KVGet(key="k"))
                    assert reply["status"] == "accepted", (n, reply)
                plane.set_default(HEALTHY)

                assert count("reads_failed") == 0
                assert count("net_handler_errors") == 0
                assert cluster.handler_errors() == []
                # The path ran: a reference was refused, and the slave
                # dialled the client again.
                assert count("chaos_corrupted_frames") >= 10
                assert count("net_frames_rejected_reference") >= 1
                assert count("net_connects") > connects
                # No read was accepted on a stamp other than the one
                # its pledge was signed over: the client checked each
                # signature, and so did the auditor, over a second
                # connection that carried the stamps by reference too.
                accepted = count("reads_accepted")
                assert accepted == 201
                await cluster.wait_for(
                    lambda: count("pledges_audited") >= accepted, 5.0,
                    what="every pledge audited")
                assert count("audits_clean") == accepted
                assert count("audits_bad_signature") == 0
                assert count("audits_unverifiable") == 0
                failed = [check.to_json()
                          for check in run_safety_checks(cluster)
                          if not check.passed]
                assert failed == []
            finally:
                await cluster.aclose()

        run(scenario(), timeout=60.0)
