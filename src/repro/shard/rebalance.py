"""Online shard movement: freeze, snapshot, re-certify, republish.

:class:`Rebalancer` moves one shard from its current master group to a
freshly built next-generation group on the same
:class:`~repro.shard.deploy.ShardedCluster`, reusing the Section 3.5
machinery end to end:

1. **freeze** -- crash the old cast and replace each tenant slot with a
   :class:`RetiredTenant` stub that answers every request with
   :class:`~repro.shard.wire.WrongShard` (the client-visible redirect);
2. **snapshot** -- pick the reference master, whose committed
   :class:`~repro.core.history.History` is frozen with it;
3. **certify** -- build the next generation's masters/auditors/slaves
   (new tenant ids, new keys), seed the trusted members by replaying
   that history, withdraw the old certificates and publish the
   new ones under the same shard fingerprint;
4. **republish** -- sign and publish the next shard-map epoch;
5. **resync** -- start the new cast; the new slaves begin *empty* and
   catch up over the wire through the ordinary keep-alive version-gap
   -> resync path (the same machinery a restarted slave uses);
6. **re-home** -- clients discover the move through WrongShard on
   their next request and re-run setup against the directory, which by
   then lists only the new generation.

Steps 1-4 run synchronously on the event loop -- no protocol message
can interleave, so no committed write is ever lost in the hand-off.
Every phase emits a span (when ``repro.obs`` is attached), so the
unavailability window is measurable from the trace alone.
"""

from __future__ import annotations

from typing import Any

from repro.obs.spans import ObsRuntime, Span
from repro.shard.deploy import ShardState, ShardedCluster
from repro.shard.wire import WrongShard
from repro.sim.network import Node


class RebalanceError(Exception):
    """A shard move could not be performed safely."""


class RetiredTenant(Node):
    """Tombstone occupying a moved shard's old tenant slot.

    Answers every message with a :class:`WrongShard` redirect naming
    the epoch that superseded this generation -- the signal that sends
    clients back to the directory (and routers back for a fresh map).
    """

    def __init__(self, node_id: str, simulator: Any, network: Any,
                 shard_id: str, epoch: int) -> None:
        super().__init__(node_id, simulator, network)
        self.shard_id = shard_id
        self.epoch = epoch
        self.redirects_sent = 0

    def on_message(self, src_id: str, message: Any) -> None:
        self.redirects_sent += 1
        self.send(src_id, WrongShard(shard_id=self.shard_id,
                                     epoch=self.epoch))


class Rebalancer:
    """Moves shards between master groups on a live cluster."""

    def __init__(self, cluster: ShardedCluster) -> None:
        self.cluster = cluster

    def _begin(self, op: str, parent: Span | None,
               **attrs: Any) -> Span | None:
        obs = self.cluster.obs
        if obs is None:
            return None
        assert isinstance(obs, ObsRuntime)
        return obs.begin("rebalancer", op, parent=parent, **attrs)

    def _end(self, span: Span | None, **attrs: Any) -> None:
        if self.cluster.obs is not None:
            self.cluster.obs.end(span, **attrs)

    async def move_shard(self, shard_id: str,
                         resync_timeout: float = 15.0) -> dict[str, Any]:
        """Move one shard to its next-generation master group.

        Returns a JSON-shaped report with phase timings; raises
        :class:`RebalanceError` for unknown or already-retired shards
        and :class:`TimeoutError` if the new slaves never catch up.
        """
        cluster = self.cluster
        state = cluster.shards.get(shard_id)
        if state is None:
            raise RebalanceError(f"unknown shard {shard_id!r}; known: "
                                 f"{sorted(cluster.shards)}")
        new_generation = state.generation + 1
        target_epoch = cluster.map_epoch + 1
        started_at = cluster.scheduler.now
        root = self._begin("shard.rebalance", None, shard=shard_id,
                           from_generation=state.generation,
                           to_generation=new_generation,
                           epoch=target_epoch)
        report: dict[str, Any] = {
            "shard": shard_id,
            "from_generation": state.generation,
            "to_generation": new_generation,
            "epoch": target_epoch,
        }

        # Steps 1-4 are one synchronous block: nothing else runs on the
        # event loop until the directory already serves the new truth.
        span = self._begin("rebalance.freeze", root)
        old_nodes: list[Node] = [*state.masters, *state.auditors,
                                 *state.slaves]
        stubs: list[RetiredTenant] = []
        for node in old_nodes:
            node.crash()
        for node in old_nodes:
            host_id = cluster.host_of[node.node_id]
            stub = RetiredTenant(
                node.node_id, cluster.scheduler,
                cluster._network(cluster.pools[host_id]), shard_id,
                target_epoch)
            cluster.servers[host_id].replace_tenant(stub)
            cluster.tenant_nodes[node.node_id] = stub
            stubs.append(stub)
        self._end(span, retired=len(old_nodes))
        report["frozen_at"] = cluster.scheduler.now - started_at

        span = self._begin("rebalance.snapshot", root)
        reference = max(state.masters,
                        key=lambda m: (len(m.history), m.node_id))
        snapshot_version = reference.version
        self._end(span, reference=reference.node_id,
                  version=snapshot_version)
        report["snapshot_version"] = snapshot_version

        span = self._begin("rebalance.certify", root)
        for master in state.masters:
            cluster.directory.withdraw(state.fingerprint, master.node_id)
        new_state = cluster.build_shard(shard_id, new_generation)
        new_state.clients = state.clients
        # Seeded by replay rather than by copying the frozen store: every
        # version a trusted member remembers stays the deterministic
        # result of its own ops, which the safety oracle relies on.
        for server in [*new_state.masters, *new_state.auditors]:
            server.history, server.store = reference.history.replayed(
                cluster.initial_store, snapshot_version)
            server.version = snapshot_version
        self._end(span, masters=len(new_state.masters))

        span = self._begin("rebalance.republish", root)
        # Retire the old cast from the flat rosters (the per-shard
        # state was swapped above; summary()/oracle views must follow).
        for roster, retired in (
                (cluster.masters, state.masters),
                (cluster.auditors, state.auditors),
                (cluster.slaves, state.slaves)):
            for node in retired:  # type: ignore[assignment]
                roster.remove(node)  # type: ignore[arg-type]
        cluster.shards[shard_id] = new_state
        shard_map = cluster.publish_map()
        self._end(span, epoch=shard_map.epoch)
        report["republished_at"] = cluster.scheduler.now - started_at

        # Step 5: bring the new generation up.  The new slaves start
        # from the initial content and resync over the wire (keep-alive
        # version gap -> resync request -> ops replay or snapshot).
        span = self._begin("rebalance.resync", root)
        new_state.start_servers()
        waited = await cluster.wait_for(
            lambda: all(slave.version >= snapshot_version
                        for slave in new_state.slaves),
            timeout=resync_timeout,
            what=f"shard {shard_id} generation-{new_generation} "
                 f"slave resync")
        self._end(span, waited=waited)
        report["slaves_resynced_at"] = cluster.scheduler.now - started_at

        report["redirects_sent"] = sum(s.redirects_sent for s in stubs)
        self._end(root, duration=cluster.scheduler.now - started_at)
        cluster.metrics.incr("shard_rebalances")
        cluster.metrics.incr(f"shard_{shard_id}_rebalances")
        return report


__all__ = ["RebalanceError", "Rebalancer", "RetiredTenant"]
