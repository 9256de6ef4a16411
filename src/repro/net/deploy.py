"""Localhost deployment harness: the full topology over real sockets.

:class:`LocalCluster` mirrors :class:`repro.core.system.ReplicationSystem`
-- same cast, same construction order, same deterministic key derivation
from the spec seed -- but wires every node to its own TCP listener and
connection pool instead of the shared simulated fabric.  The protocol
core is byte-for-byte the same code that runs in the simulator; what
changes is the seam implementations from :mod:`repro.net.server`.

Intended use::

    cluster = await LocalCluster.launch(NetDeploymentSpec(seed=7))
    # ... or, with every link answering to a seeded fault plane:
    #   await LocalCluster.launch(spec, plane=FaultPlane(seed=7))
    try:
        await cluster.write(cluster.clients[0], KVPut(key="k", value=1))
        reply = await cluster.read(cluster.clients[1], KVGet(key="k"))
    finally:
        await cluster.aclose()

Every timing parameter is real seconds here, so the default protocol
config (tuned for simulated hours) is replaced by
:func:`fast_protocol_config` unless the spec says otherwise.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.content.kvstore import KeyValueStore
from repro.content.queries import Operation
from repro.content.store import ContentStore
from repro.core.adversary import AdversaryStrategy
from repro.core.auditor import AuditorServer
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.core.directory import DirectoryServer
from repro.core.master import MasterServer
from repro.core.owner import ContentOwner
from repro.core.slave import SlaveServer
from repro.core.system import Cast, CastBuilder
from repro.crypto.certificates import Certificate
from repro.metrics import MetricsRegistry
from repro.net.codec import NetHello
from repro.net.peers import PeerDirectory, format_address
from repro.net.server import NodeServer, RealtimeScheduler, SocketNetwork
from repro.net.transport import ConnectionPool, read_frame, write_frame
from repro.obs.spans import ObsRuntime
from repro.qos.ledger import AdmissionLedger
from repro.qos.tokens import AdmissionPolicy
from repro.sim.network import Node

if TYPE_CHECKING:  # pragma: no cover - repro.net must not import repro.chaos
    from repro.chaos.faults import FaultPlane

class OperationSink(Protocol):
    """Anything that accepts client operations (structural).

    Satisfied by :class:`~repro.core.client.Client` and by
    :class:`~repro.shard.router.ShardRouter`, so the cluster's
    ``submit``/``write``/``read`` drive either.
    """

    def submit(self, op: Operation, level: str | None = None,
               callback: Callable[[dict], None] | None = None) -> None: ...


def fast_protocol_config(**overrides: Any) -> ProtocolConfig:
    """Protocol parameters re-scaled from simulated to real seconds.

    The inequalities from the paper still hold (keepalive_interval well
    under max_latency, audit grace beyond the consistency window); only
    the absolute magnitudes shrink so a full write/read/audit cycle fits
    in a few wall-clock seconds.
    """
    defaults: dict[str, Any] = dict(
        max_latency=0.8,
        keepalive_interval=0.2,
        double_check_probability=0.05,
        audit_grace=0.4,
        request_timeout=2.0,
        max_read_retries=5,
        broadcast_heartbeat_interval=0.25,
        broadcast_suspect_after=1.5,
        # Wall time IS the service time over sockets: charging the
        # paper's simulated per-read costs on top of real crypto caps
        # throughput an order of magnitude below the wire.
        simulate_service_times=False,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


@dataclass
class NetDeploymentSpec:
    """Everything needed to boot one localhost cluster.

    Field meanings match :class:`repro.core.system.DeploymentSpec`;
    ``protocol=None`` selects :func:`fast_protocol_config`.
    """

    num_masters: int = 2
    slaves_per_master: int = 2
    num_clients: int = 2
    num_auditors: int = 1
    seed: int = 0
    protocol: ProtocolConfig | None = None
    store_factory: Any = None
    adversaries: dict[int, AdversaryStrategy] = field(default_factory=dict)
    client_double_check_overrides: dict[int, float] = field(
        default_factory=dict)
    host: str = "127.0.0.1"
    #: Attach a ``repro.obs`` runtime: spans and trace contexts for
    #: every node (the admin plane is served either way).
    obs_enabled: bool = False

    def __post_init__(self) -> None:
        if self.num_masters < 1:
            raise ValueError("need at least one master")
        if self.slaves_per_master < 1:
            raise ValueError("need at least one slave per master")


class LocalCluster:
    """A booted localhost deployment; create via :meth:`launch`."""

    def __init__(self, spec: NetDeploymentSpec,
                 loop: asyncio.AbstractEventLoop,
                 plane: "FaultPlane | None" = None) -> None:
        self.spec = spec
        self.config = spec.protocol or fast_protocol_config()
        self._loop = loop
        #: With a :class:`~repro.chaos.faults.FaultPlane`, every pool
        #: is built by it and every link answers to it.
        self.plane = plane
        self.metrics = MetricsRegistry()
        self.scheduler = RealtimeScheduler(spec.seed, loop, self.metrics)
        self.obs: ObsRuntime | None = None
        if spec.obs_enabled:
            self.obs = ObsRuntime(self.scheduler, seed=spec.seed)
            self.scheduler.obs = self.obs
        self.peers = PeerDirectory()
        self.owner = ContentOwner(
            "content-owner", signer_scheme=self.config.signer_scheme,
            rsa_bits=self.config.rsa_bits,
            rng=self.scheduler.fork_rng("keys:owner"))
        store_factory = spec.store_factory or (lambda: KeyValueStore())
        self.initial_store: ContentStore = store_factory()
        self.masters: list[MasterServer] = []
        self.auditors: list[AuditorServer] = []
        self.slaves: list[SlaveServer] = []
        self.clients: list[Client] = []
        self.master_certs: dict[str, Certificate] = {}
        self.servers: dict[str, NodeServer] = {}
        self.pools: dict[str, ConnectionPool] = {}
        self.directory = DirectoryServer(
            "directory", self.scheduler, self._own_fabric("directory"))
        self._builder = CastBuilder(
            spec, self.config, self.scheduler, self.metrics, self.owner,
            self.directory, self.initial_store,
            network_for=self._cast_fabric, address_of=self._address_of)
        # One deployment-wide per-principal ledger (opt-in): every
        # listener charges the same accounts, so dialling a different
        # host never refreshes an allowance.
        policy = self._admission_policy()
        self.ledger: AdmissionLedger | None = (
            AdmissionLedger(policy)
            if policy is not None and self.config.qos_per_principal
            else None)
        #: The trusted servers' ids (masters, auditors), shared with
        #: every listener: admission never charges their frames.
        self.trusted: set[str] = set()
        self._closed = False

    # -- construction -----------------------------------------------------

    @classmethod
    async def launch(cls, spec: NetDeploymentSpec | None = None,
                     settle: float = 1.0,
                     plane: "FaultPlane | None" = None,
                     **spec_kwargs: Any) -> "LocalCluster":
        """Build, listen, start and settle a full cluster."""
        if spec is None:
            spec = NetDeploymentSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a spec or keyword args, not both")
        cluster = cls(spec, asyncio.get_running_loop(), plane)
        await cluster._build()
        await cluster._start(settle)
        return cluster

    def _make_pool(self, node_id: str) -> ConnectionPool:
        """Build one node's outbound pool -- at boot, and again when
        :meth:`restart_node` gives a rebooted node a fresh one."""
        factory: Callable[..., ConnectionPool] = \
            ConnectionPool if self.plane is None else self.plane.pool
        return factory(
            node_id, self.peers, self.metrics,
            rng=self.scheduler.fork_rng(f"net:{node_id}"))

    def _network(self, pool: ConnectionPool) -> SocketNetwork:
        """The ``Network`` seam this topology puts in front of a pool."""
        return SocketNetwork(self.scheduler, pool)

    def _own_fabric(self, node_id: str) -> SocketNetwork:
        """A listener-backed node's private seam: its own pool."""
        pool = self._make_pool(node_id)
        self.pools[node_id] = pool
        return self._network(pool)

    def _cast_fabric(self, node_id: str) -> SocketNetwork:
        """The seam a master-group node is built on: here every node
        is its own host."""
        return self._own_fabric(node_id)

    def _address_of(self, node_id: str) -> str:
        """The ``host:port`` a certificate for ``node_id`` names."""
        return self.peers.address(node_id)

    def _admission_policy(self) -> AdmissionPolicy | None:
        """The spec's qos knobs as an AdmissionPolicy, or None when off.

        Wire-level admission control is opt-in: with every ``qos_*``
        rate and the idle multiple unset (the ProtocolConfig defaults)
        the listeners charge no bucket and reap no idle connection.
        """
        config = self.config
        if (config.qos_frame_rate is None
                and config.qos_idle_multiple is None):
            return None
        idle = None
        if config.qos_idle_multiple is not None:
            idle = config.qos_idle_multiple * config.keepalive_interval
        return AdmissionPolicy(
            frame_rate=config.qos_frame_rate,
            frame_burst=config.qos_frame_burst,
            idle_timeout=idle)

    async def _listen(self, node: Node) -> str:
        """Start ``node``'s listener; returns its ``host:port`` address."""
        server = NodeServer(node, self.metrics,
                            qos=self._admission_policy(),
                            ledger=self.ledger, trusted=self.trusted)
        host, port = await server.start(self.spec.host)
        self.servers[node.node_id] = server
        self.peers.add(node.node_id, host, port)
        return format_address(host, port)

    async def _build(self) -> None:
        await self._listen(self.directory)
        cast = self.cast = Cast(
            fingerprint=self.owner.content_key_fingerprint(),
            masters=self.masters, auditors=self.auditors,
            slaves=self.slaves, clients=self.clients,
            certs=self.master_certs)
        # Each node listens before the build goes on: the next
        # certificate (or slave registration) names its address.
        for node in self._builder.servers(cast):
            await self._listen(node)
        self._trust(cast)
        for client in self._builder.clients(cast):
            await self._listen(client)
            if self.ledger is not None:
                self.ledger.register_key(client.node_id,
                                         client.keys.public_key)

    def _trust(self, cast: Cast) -> None:
        """Register a cast's masters and auditors as trusted principals."""
        self.trusted.update(node.node_id
                            for node in (*cast.masters, *cast.auditors))

    async def _start(self, settle: float) -> None:
        self.cast.start_servers()
        await asyncio.sleep(settle)
        for client in self.clients:
            client.start()
        await self.wait_ready()

    async def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every client finished the setup phase."""
        try:
            await self.wait_for(
                lambda: all(client.ready for client in self.clients),
                timeout, poll=0.05)
        except TimeoutError:
            pending = [c.node_id for c in self.clients if not c.ready]
            raise TimeoutError(
                f"clients never became ready: {pending}") from None

    async def wait_for(self, condition: Callable[[], bool], timeout: float,
                       what: str = "condition",
                       poll: float = 0.02) -> float:
        """Poll until ``condition()`` holds; returns seconds waited.

        Raises :class:`TimeoutError` naming ``what`` -- scenario checks
        use the wait itself as the liveness assertion.
        """
        start = self._loop.time()
        deadline = start + timeout
        while not condition():
            if self._loop.time() > deadline:
                raise TimeoutError(
                    f"{what} did not hold within {timeout:.1f}s")
            await asyncio.sleep(poll)
        return self._loop.time() - start

    # -- workload driving -------------------------------------------------

    async def submit(self, client: OperationSink, op: Operation,
                     level: str | None = None,
                     timeout: float = 15.0) -> dict[str, Any]:
        """Submit one operation; await the client-side completion dict."""
        future: "asyncio.Future[dict[str, Any]]" = self._loop.create_future()

        def done(outcome: dict[str, Any]) -> None:
            if not future.done():
                future.set_result(outcome)

        client.submit(op, level, done)
        return await asyncio.wait_for(future, timeout)

    async def write(self, client: OperationSink, op: Operation,
                    timeout: float = 15.0) -> dict[str, Any]:
        return await self.submit(client, op, timeout=timeout)

    async def read(self, client: OperationSink, query: Operation,
                   level: str | None = None,
                   timeout: float = 15.0) -> dict[str, Any]:
        return await self.submit(client, query, level=level, timeout=timeout)

    # -- fault injection ---------------------------------------------------

    def kill_connection(self, src_id: str, dst_id: str) -> bool:
        """Abort the live src->dst TCP connection (retry-path exercise)."""
        pool = self.pools.get(src_id)
        return pool.kill_connection(dst_id) if pool is not None else False

    def node(self, node_id: str) -> Node:
        """Look up any deployed node by id."""
        server = self.servers.get(node_id)
        if server is None:
            raise KeyError(f"no node {node_id!r} in this cluster")
        return server.node

    async def crash_node(self, node_id: str) -> None:
        """Benign host crash: stop serving and reset every connection.

        The process is gone, not just the protocol state machine --
        outbound frames stop (the pool is closed, queued frames are
        discarded), the listener closes (peers dialling back get
        connection-refused) and accepted connections are reset.  Every
        node the listener hosts goes down with it (a multi-tenant host
        takes its tenants along); the protocol-level ``crash()`` runs
        first so role cleanup (e.g. stopping broadcast participation)
        happens before the wires go.
        """
        server = self.servers[node_id]
        if server.node.crashed:
            return
        for node in server.tenants().values():
            node.crash()
        await self.pools[node_id].aclose()
        await server.suspend()
        self.metrics.record("chaos_crashes", self.scheduler.now, 1.0)

    async def restart_node(self, node_id: str) -> None:
        """Reboot a crashed node on its original endpoint.

        A restarted host comes back with a fresh connection pool (new
        sockets, same deterministic rng derivation scheme) bound to the
        same address its peers already know; every node it hosts sends
        through that pool from here on and runs its role's
        ``on_recover`` path -- trusted servers announce recovery to the
        broadcast group and catch up, slaves resync off their master's
        next keep-alive.
        """
        server = self.servers[node_id]
        if not server.node.crashed:
            return
        pool = self._make_pool(node_id)
        self.pools[node_id] = pool
        await server.resume()
        for node in server.tenants().values():
            network = node.network
            assert isinstance(network, SocketNetwork)
            network.pool = pool
            node.recover()
        self.metrics.record("chaos_restarts", self.scheduler.now, 1.0)

    # -- admin plane -------------------------------------------------------

    async def scrape(self, node_id: str, request: Any,
                     timeout: float = 5.0) -> Any:
        """Send one admin request to a live node over a fresh connection.

        ``request`` is a :class:`~repro.obs.admin.StatusRequest` or an
        :class:`~repro.obs.admin.ObsDumpRequest`; every listener answers
        both, traced or not.  Dials the node's real listener and speaks
        the real wire format (NetHello handshake, then request frame,
        then one reply frame), so a scrape exercises exactly the path an
        external monitoring agent would.
        """
        host, port = self.peers.endpoint(node_id)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout)
        try:
            await write_frame(writer, NetHello(node_id="obs-scraper"),
                              timeout)
            await write_frame(writer, request, timeout)
            reply, _size = await read_frame(reader, timeout)
            return reply
        finally:
            writer.transport.abort()

    # -- reporting ---------------------------------------------------------

    def handler_errors(self) -> list[tuple[str, str, Exception]]:
        """(node, source, exception) for every captured handler failure."""
        return [(node_id, src, exc)
                for node_id, server in self.servers.items()
                for src, exc in server.errors]

    # -- shutdown ----------------------------------------------------------

    async def aclose(self) -> None:
        """Cancel timers, stop the signing worker, abort connections,
        close listeners."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.cancel_all()
        self.scheduler.close()
        await asyncio.gather(*(pool.aclose()
                               for pool in self.pools.values()))
        await asyncio.gather(*(server.aclose()
                               for server in self.servers.values()))

