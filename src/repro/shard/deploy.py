"""Multi-tenant sharded deployment: many shards, few listeners.

:class:`ShardedCluster` partitions one owner's namespace across
``num_shards`` independent master groups (each with its own slaves,
auditor and total-order broadcast group) and packs all of them onto
``num_hosts`` host processes.  Each host runs ONE listener and ONE
outbound connection pool; every protocol node on it is a *tenant*
addressed by ``shard:base`` ids, and every wire frame rides a
:class:`~repro.shard.wire.ShardEnvelope` naming its tenant -- so two
shards sharing a host share sockets but nothing else (state, metrics
labels and QoS attribution stay per-shard).

The directory serves two owner-signed artifacts per namespace: master
certificates under each shard's derived fingerprint
(:func:`~repro.shard.map.shard_fingerprint`) and the
:class:`~repro.shard.map.ShardMap` that routes content keys to shards.
Neither is forgeable by the directory; both are verified client-side.

Applications talk to :class:`~repro.shard.router.ShardRouter` instances
(``cluster.routers``), never to shards directly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.client import Client
from repro.core.system import Cast
from repro.net.deploy import LocalCluster, NetDeploymentSpec, \
    fast_protocol_config
from repro.net.server import ShardedNetwork
from repro.net.transport import ConnectionPool
from repro.shard.map import ShardMap, shard_fingerprint
from repro.shard.router import ShardRouter
from repro.shard.wire import tenant_id
from repro.sim.network import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.faults import FaultPlane


class HostNode(Node):
    """The listener anchor for one multi-tenant host process.

    Owns no protocol role: tenants do the serving.  Any bare protocol
    frame addressed to the host itself is a routing bug, surfaced as a
    captured handler error rather than silently dropped.
    """

    def on_message(self, src_id: str, message: Any) -> None:
        raise TypeError(f"host {self.node_id} is not a protocol "
                        f"endpoint; got {type(message).__name__} "
                        f"from {src_id}")


@dataclass
class ShardDeploymentSpec(NetDeploymentSpec):
    """A :class:`NetDeploymentSpec` plus the shard topology.

    The per-group fields keep their meanings *per shard*:
    ``num_masters`` masters, ``slaves_per_master`` slaves each and
    ``num_auditors`` auditors make up ONE shard's cast.  ``num_clients``
    becomes the number of routers (each holds one leg per shard).
    """

    num_shards: int = 2
    num_hosts: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.num_hosts < 1:
            raise ValueError("need at least one host")


@dataclass(kw_only=True)
class ShardState(Cast):
    """One shard's live cast and provenance.

    ``clients`` are the router legs homed on this shard (for the
    per-shard oracle); a rebalance hands them to the next generation.
    """

    shard_id: str
    generation: int

    def name(self, base: str) -> str:
        return tenant_id(self.shard_id, base, self.generation)

    def tenant_ids(self) -> list[str]:
        return [node.node_id for node in
                (*self.masters, *self.auditors, *self.slaves)]


class ShardView:
    """Duck-typed, per-shard cluster facade for the safety oracle.

    Exposes exactly the surface
    :func:`repro.chaos.invariants.run_safety_checks` touches, scoped to
    one shard: its master group defines trusted history, its legs'
    accepted reads are held against it.
    """

    def __init__(self, cluster: "ShardedCluster", state: ShardState) -> None:
        self.masters = list(state.masters)
        self.clients = list(state.clients)
        self.initial_store = cluster.initial_store
        self.config = cluster.config
        self._cluster = cluster

    def node(self, node_id: str) -> Node:
        return self._cluster.node(node_id)


class ShardedCluster(LocalCluster):
    """A multi-tenant sharded deployment over real sockets."""

    spec: ShardDeploymentSpec

    def __init__(self, spec: NetDeploymentSpec,
                 loop: asyncio.AbstractEventLoop,
                 plane: "FaultPlane | None" = None) -> None:
        if not isinstance(spec, ShardDeploymentSpec):
            raise TypeError("ShardedCluster needs a ShardDeploymentSpec")
        #: tenant id -> hosting listener's node id.  Shared (by
        #: reference) with every ShardedNetwork, and mutated live when
        #: a rebalance lands tenants on new hosts.
        self.host_of: dict[str, str] = {}
        self.hosts: list[HostNode] = []
        self.tenant_nodes: dict[str, Node] = {}
        self.shards: dict[str, ShardState] = {}
        self.routers: list[ShardRouter] = []
        self.map_epoch = 0
        self._placement_counter = 0
        super().__init__(spec, loop, plane)

    # -- fabric wiring -----------------------------------------------------

    def _network(self, pool: ConnectionPool) -> ShardedNetwork:
        return ShardedNetwork(self.scheduler, pool, self.host_of)

    def _cast_fabric(self, node_id: str) -> ShardedNetwork:
        """Place a tenant (deterministic round-robin across hosts).

        Tenants share their host's pool: one connection per host pair.
        """
        host = self.hosts[self._placement_counter % len(self.hosts)]
        self._placement_counter += 1
        self.host_of[node_id] = host.node_id
        return self._network(self.pools[host.node_id])

    def _address_of(self, node_id: str) -> str:
        return self.peers.address(self.host_of[node_id])

    def _host_tenant(self, node: Node) -> None:
        """Register a placed tenant on its host's listener."""
        self.servers[self.host_of[node.node_id]].add_tenant(node)
        self.tenant_nodes[node.node_id] = node

    def node(self, node_id: str) -> Node:
        tenant = self.tenant_nodes.get(node_id)
        if tenant is not None:
            return tenant
        return super().node(node_id)

    # -- construction ------------------------------------------------------

    async def _build(self) -> None:
        spec = self.spec
        await self._listen(self.directory)
        for h in range(spec.num_hosts):
            host = HostNode(f"host-{h:02d}", self.scheduler,
                            self._own_fabric(f"host-{h:02d}"))
            self.hosts.append(host)
            await self._listen(host)

        for s in range(spec.num_shards):
            shard_id = f"s{s:02d}"
            self.shards[shard_id] = self.build_shard(shard_id,
                                                     generation=0)
        self.publish_map()

        # Router i holds client-i of every shard, and the legs are built
        # in that order (it is the key material): one step of every
        # shard's client build per router.
        namespace = self.owner.content_key_fingerprint()
        builds = {shard_id: self._builder.clients(state)
                  for shard_id, state in self.shards.items()}
        for i in range(spec.num_clients):
            legs: dict[str, Client] = {}
            for shard_id, build in builds.items():
                leg = legs[shard_id] = next(build)
                self._host_tenant(leg)
                if self.ledger is not None:
                    self.ledger.register_key(leg.node_id,
                                             leg.keys.public_key)
                self.clients.append(leg)
            self.routers.append(ShardRouter(
                f"router-{i:02d}", namespace=namespace,
                owner_public_key=self.owner.content_public_key,
                config=self.config, metrics=self.metrics,
                directory_id="directory", clients=legs))

    def build_shard(self, shard_id: str, generation: int) -> ShardState:
        """Build (without starting) one shard's full trusted cast.

        Also the rebalancer's factory for a shard's next generation:
        tenant ids embed the generation, so a moved shard's new cast
        derives fresh deterministic keys and certificates.
        """
        state = ShardState(
            shard_id=shard_id, generation=generation,
            fingerprint=shard_fingerprint(
                self.owner.content_key_fingerprint(), shard_id))
        for node in self._builder.servers(state):
            self._host_tenant(node)
        self._trust(state)
        self.masters.extend(state.masters)
        self.auditors.extend(state.auditors)
        self.slaves.extend(state.slaves)
        self.master_certs.update(state.certs)
        return state

    def publish_map(self) -> ShardMap:
        """Sign and publish the next shard-map epoch from current state."""
        self.map_epoch += 1
        assignments = {
            shard_id: tuple(m.node_id for m in state.masters)
            for shard_id, state in self.shards.items()
        }
        shard_map = self.owner.sign_shard_map(
            self.map_epoch, self.config.shard_map_seed, assignments,
            now=self.scheduler.now)
        self.directory.publish_shard_map(shard_map)
        return shard_map

    # -- lifecycle ---------------------------------------------------------

    async def _start(self, settle: float) -> None:
        for state in self.shards.values():
            state.start_servers()
        await asyncio.sleep(settle)
        for router in self.routers:
            router.start()
        await self.wait_ready()

    async def wait_ready(self, timeout: float = 10.0) -> None:
        await super().wait_ready(timeout)
        try:
            await self.wait_for(
                lambda: all(router.shard_map is not None
                            for router in self.routers),
                timeout, poll=0.05)
        except TimeoutError:
            pending = [r.node_id for r in self.routers
                       if r.shard_map is None]
            raise TimeoutError(
                f"routers never adopted a shard map: {pending}") from None

    # -- reporting ---------------------------------------------------------

    def shard_views(self) -> dict[str, ShardView]:
        """Per-shard oracle facades (see :class:`ShardView`)."""
        return {shard_id: ShardView(self, state)
                for shard_id, state in self.shards.items()}


def run_shard_safety_checks(cluster: ShardedCluster,
                            window_slack: float = 0.05) -> dict[str, Any]:
    """Run the chaos safety oracle once per shard; shard id -> results."""
    # Imported here: repro.chaos pulls in the full chaos stack, which
    # plain deployments should not pay for.
    from repro.chaos.invariants import run_safety_checks
    return {
        shard_id: run_safety_checks(view, window_slack=window_slack)
        for shard_id, view in cluster.shard_views().items()
    }


__all__ = [
    "HostNode",
    "ShardDeploymentSpec",
    "ShardState",
    "ShardView",
    "ShardedCluster",
    "run_shard_safety_checks",
]
