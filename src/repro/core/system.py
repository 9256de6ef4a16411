"""Deployment builder: the whole system wired onto one simulator.

:class:`ReplicationSystem` assembles the full Section 2 cast -- content
owner, public directory, master set, auditor, slave sets, clients -- on a
single discrete-event simulator, runs workloads against it, and provides
the offline oracle used to classify accepted reads as correct or wrong
(the harness-side ground truth the experiments report).

Topology notes:

* ``num_masters`` serving masters plus ``num_auditors`` dedicated
  trusted servers that audit.  The paper has the masters "elect one of
  them to function as an auditor"; the auditor serves no slaves, so
  provisioning it as a dedicated node, named to every trusted server at
  build time, is the same thing from the protocol's point of view
  (docs/PROTOCOL.md §2.6).
* Slaves are distributed round-robin: ``slaves_per_master`` each.
* Byzantine behaviour is injected per slave index via ``adversaries``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.content.kvstore import KeyValueStore
from repro.content.queries import Operation
from repro.content.store import ContentStore
from repro.core import oracle
from repro.core.adversary import AdversaryStrategy
from repro.core.auditor import AuditorServer
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.core.directory import DirectoryServer
from repro.core.master import MasterServer
from repro.core.owner import ContentOwner
from repro.core.slave import SlaveServer
from repro.crypto import fastpath
from repro.crypto.certificates import Certificate
from repro.metrics import MetricsRegistry
from repro.obs.spans import ObsRuntime
from repro.sim.failures import FailureInjector
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator

AUDITOR_NODE_ID = "zz-auditor-00"  # sorts last: master-00 stays sequencer


def auditor_node_id(index: int) -> str:
    return f"zz-auditor-{index:02d}"


def audit_summary(auditors: list[AuditorServer]) -> dict[str, Any]:
    """The auditor set's totals for a run summary."""
    return {
        "pledges_received": sum(a.pledges_received for a in auditors),
        "pledges_audited": sum(a.pledges_audited for a in auditors),
        "detections": sum(a.detections for a in auditors),
        "cache_hit_rate": auditors[0].cache_hit_rate(),
        "version": auditors[0].version,
    }


@dataclass
class DeploymentSpec:
    """Everything needed to build one deployment."""

    num_masters: int = 3
    slaves_per_master: int = 4
    num_clients: int = 8
    #: Section 3.4: "the solution is to either add extra auditors, or
    #: weaken the security guarantees".  Clients hash-partition across
    #: the auditor set, so each pledge is still audited exactly once.
    num_auditors: int = 1
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    latency: LatencyModel | None = None
    loss_probability: float = 0.0
    #: Attach a ``repro.obs`` runtime: causal spans across every node on
    #: this simulator.  Off by default -- instrumented hot paths then
    #: cost one ``is None`` check (see benchmarks/bench_obs_overhead.py).
    obs_enabled: bool = False
    #: Fraction of client-operation traces recorded (seeded sampler).
    obs_sample_rate: float = 1.0
    #: Builds the initial content; all replicas start from clones of it.
    store_factory: Callable[[], ContentStore] | None = None
    #: Global slave index -> adversary strategy (honest when absent).
    adversaries: dict[int, AdversaryStrategy] = field(default_factory=dict)
    #: Client index -> double-check probability override (greedy clients).
    client_double_check_overrides: dict[int, float] = field(
        default_factory=dict)
    #: Client index -> personal max_latency (slow clients relaxing bounds).
    client_max_latency_overrides: dict[int, float] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_masters < 1:
            raise ValueError("need at least one master")
        if self.slaves_per_master < 1:
            raise ValueError("need at least one slave per master")
        if self.num_clients < 0:
            raise ValueError("client count cannot be negative")


@dataclass(kw_only=True)
class Cast:
    """One master group as built: trusted set, slaves, clients."""

    #: Directory index the group's master certificates are published
    #: under (and its clients look up).
    fingerprint: str
    masters: list[MasterServer] = field(default_factory=list)
    auditors: list[AuditorServer] = field(default_factory=list)
    slaves: list[SlaveServer] = field(default_factory=list)
    clients: list[Client] = field(default_factory=list)
    #: Trusted member id -> its owner-issued certificate.
    certs: dict[str, Certificate] = field(default_factory=dict)

    def name(self, base: str) -> str:
        """The node id for role name ``base`` (a shard qualifies it)."""
        return base

    def start_servers(self) -> None:
        """Start the trusted set and the slaves."""
        for node in (*self.masters, *self.auditors, *self.slaves):
            node.start()


@dataclass
class CastBuilder:
    """Builds master groups the one way every substrate does.

    Masters, auditors, owner certificates, directory publication,
    slaves, then clients -- and ``fork_rng`` is keyed by fork order, so
    this order *is* the key material.  Substrates differ only in the
    ``Network`` a node is handed (``network_for``), the address its
    certificate names (``address_of``), how a cast names its nodes
    (:meth:`Cast.name`) and what happens to a node once built: both
    methods are generators that yield each node before going on, so the
    caller can do nothing (simulator), host it as a tenant, or await a
    listener the next certificate will name.
    """

    spec: Any
    config: ProtocolConfig
    simulator: Simulator
    metrics: MetricsRegistry
    owner: ContentOwner
    directory: DirectoryServer
    initial_store: ContentStore
    network_for: Callable[[str], Network]
    address_of: Callable[[str], str]
    #: ``spec.adversaries`` is keyed by slave index across every cast
    #: this builder makes.
    _slaves_built: int = field(default=0, init=False)

    def servers(self, cast: Cast) -> Iterator[Node]:
        spec = self.spec
        member_ids = [cast.name(f"master-{i:02d}")
                      for i in range(spec.num_masters)]
        member_ids.extend(cast.name(auditor_node_id(i))
                          for i in range(spec.num_auditors))
        for node_id in member_ids[:spec.num_masters]:
            master = MasterServer(
                node_id, self.simulator, self.network_for(node_id),
                self.config, self.initial_store.clone(), member_ids,
                self.metrics)
            cast.masters.append(master)
            yield master
        for node_id in member_ids[spec.num_masters:]:
            auditor = AuditorServer(
                node_id, self.simulator, self.network_for(node_id),
                self.config, self.initial_store.clone(), member_ids,
                self.metrics)
            cast.auditors.append(auditor)
            yield auditor

        # Owner certifies every trusted server and publishes the masters.
        # Auditor certificates are not *serving* master entries; only
        # serving masters go into the directory listing clients use.
        for server in [*cast.masters, *cast.auditors]:
            cast.certs[server.node_id] = self.owner.certify_master(
                server.node_id, self.address_of(server.node_id),
                server.keys.public_key, now=self.simulator.now)
        for master in cast.masters:
            self.directory.publish(cast.fingerprint,
                                   cast.certs[master.node_id])

        slave_certs: list[Certificate] = []
        for i, master in enumerate(cast.masters):
            for j in range(spec.slaves_per_master):
                slave_id = cast.name(f"slave-{i:02d}-{j:02d}")
                slave = SlaveServer(
                    slave_id, self.simulator, self.network_for(slave_id),
                    self.config, self.initial_store.clone(), cast.certs,
                    self.metrics,
                    strategy=spec.adversaries.get(self._slaves_built))
                self._slaves_built += 1
                cast.slaves.append(slave)
                yield slave
                slave_certs.append(master.register_slave(
                    slave_id, self.address_of(slave_id),
                    slave.keys.public_key))
        # Every trusted server knows every slave and its home, and every
        # auditor, from the start: ownership and each client's auditor
        # are then functions of the delivered view.
        auditor_ids = member_ids[spec.num_masters:]
        for server in (*cast.masters, *cast.auditors):
            server.enroll(slave_certs, auditor_ids)

    def clients(self, cast: Cast,
                max_latency_overrides: Mapping[int, float] | None = None,
                ) -> Iterator[Client]:
        max_latency_overrides = max_latency_overrides or {}
        for i in range(self.spec.num_clients):
            node_id = cast.name(f"client-{i:02d}")
            client = Client(
                node_id, self.simulator, self.network_for(node_id),
                self.config, directory_id=self.directory.node_id,
                owner_public_key=self.owner.content_public_key,
                metrics=self.metrics,
                double_check_override=(
                    self.spec.client_double_check_overrides.get(i)),
                max_latency_override=max_latency_overrides.get(i),
                lookup_fingerprint=cast.fingerprint)
            cast.clients.append(client)
            yield client


class ReplicationSystem:
    """A fully wired deployment plus harness conveniences."""

    def __init__(self, spec: DeploymentSpec) -> None:
        # Start from a cold verify cache so a run's cache-hit counters
        # depend only on (spec, seed), never on what else the process ran
        # before -- identical runs must report identical counters.
        fastpath.VERIFY_CACHE.clear()
        self.spec = spec
        self.config = spec.protocol
        self.metrics = MetricsRegistry()
        self.simulator = Simulator(seed=spec.seed)
        self.obs: ObsRuntime | None = None
        if spec.obs_enabled:
            # Seeded independently of fork_rng so enabling tracing never
            # shifts key derivation or workload randomness.
            self.obs = ObsRuntime(
                self.simulator, seed=spec.seed,
                sample_rate=spec.obs_sample_rate)
            self.simulator.obs = self.obs
        self.network = Network(
            self.simulator,
            latency=spec.latency or ConstantLatency(0.01),
            loss_probability=spec.loss_probability,
        )
        self.failures = FailureInjector(self.simulator)

        store_factory = spec.store_factory or (lambda: KeyValueStore())
        self.initial_store = store_factory()

        self.owner = ContentOwner(
            "content-owner", signer_scheme=self.config.signer_scheme,
            rsa_bits=self.config.rsa_bits,
            rng=self.simulator.fork_rng("keys:owner"))
        self.directory = DirectoryServer("directory", self.simulator,
                                         self.network)

        cast = self.cast = Cast(
            fingerprint=self.owner.content_key_fingerprint())
        builder = CastBuilder(
            spec, self.config, self.simulator, self.metrics, self.owner,
            self.directory, self.initial_store,
            network_for=lambda node_id: self.network,
            address_of=lambda node_id: f"addr:{node_id}")
        # One shared fabric, nothing to listen on: just drain the build.
        for _node in builder.servers(cast):
            pass
        for _node in builder.clients(cast,
                                     spec.client_max_latency_overrides):
            pass
        self.masters = cast.masters
        self.auditors = cast.auditors
        #: Convenience handle for the common single-auditor deployment.
        self.auditor = self.auditors[0]
        self.master_certs = cast.certs
        self.slaves = cast.slaves
        self.clients = cast.clients

        self._started = False

    # -- construction conveniences -------------------------------------------

    @classmethod
    def build(cls, spec: DeploymentSpec | None = None,
              **spec_kwargs: Any) -> "ReplicationSystem":
        """Build from a spec, or from keyword arguments directly."""
        if spec is None:
            spec = DeploymentSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a spec or keyword args, not both")
        return cls(spec)

    # -- lifecycle ---------------------------------------------------------------

    def start(self, settle: float = 3.0) -> None:
        """Start every node and let things settle.

        ``settle`` seconds of simulated time give the first keep-alives
        time to propagate, so clients connecting afterwards find fresh
        slaves.
        """
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        self.cast.start_servers()
        self.simulator.run_for(settle)
        for client in self.clients:
            client.start()
        self.simulator.run_for(1.0)

    def run_for(self, duration: float) -> None:
        """Advance simulated time."""
        self.simulator.run_for(duration)

    @property
    def now(self) -> float:
        return self.simulator.now

    # -- workload driving -----------------------------------------------------------

    def schedule_op(self, client: Client, at: float, op: Operation,
                    level: str | None = None,
                    callback: Callable[[dict], None] | None = None) -> None:
        """Schedule one operation submission at absolute time ``at``."""
        self.simulator.schedule_at(at, client.submit, op, level, callback)

    # -- ground-truth oracle ---------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """Look up any deployed node by id."""
        return self.network.node(node_id)

    def trusted_version_stores(self) -> dict[int, ContentStore]:
        """The content at every committed version (rank-0 replay)."""
        return oracle.trusted_version_stores(self, self.masters[0])

    def classify_accepted_reads(self) -> dict[str, Any]:
        """Compare every accepted read against trusted history.

        Returns counts plus the individual wrong acceptances; reads at
        a version beyond rank 0's archive are not counted.
        """
        reads = oracle.classify_accepted_reads(self, self.masters[0])
        return {
            "accepted_total": reads.correct + len(reads.wrong),
            "accepted_correct": reads.correct,
            "accepted_wrong": len(reads.wrong),
            "wrong_records": reads.wrong,
        }

    def check_consistency_window(self, slack: float = 1e-9) -> list[dict]:
        """Section 3.1's max_latency guarantee over the whole run.

        Returns the (ideally empty) list of violations, judged against
        rank 0's commit times.
        """
        return oracle.consistency_window_violations(
            self, slack, self.masters[0])

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """One-stop run summary for benchmarks and examples."""
        classification = self.classify_accepted_reads()
        return {
            "time": self.now,
            "counters": self.metrics.snapshot(),
            "classification": {k: v for k, v in classification.items()
                               if k != "wrong_records"},
            "auditor": audit_summary(self.auditors),
            "versions": {m.node_id: m.version for m in self.masters},
            "failures": {
                "crashes": sum(1 for event in self.failures.log
                               if event.kind == "crash"),
                "recoveries": sum(1 for event in self.failures.log
                                  if event.kind == "recover"),
                "events": [
                    {"at": round(event.at, 3), "node": event.node_id,
                     "kind": event.kind}
                    for event in self.failures.log
                ],
            },
        }
