"""Named chaos scenarios: fault schedules with machine-checked verdicts.

Each scenario boots a cluster on a :class:`~repro.chaos.faults.FaultPlane`
(:class:`~repro.net.deploy.LocalCluster`, or
:class:`~repro.shard.deploy.ShardedCluster` for the sharded one), runs a
live read/write workload while a scripted fault schedule plays out, and
returns a :class:`ScenarioVerdict`: named checks (the paper's safety and
liveness obligations), measured timings (detection latency, recovery,
read-unavailability) and the relevant counters -- JSON-shaped so
``repro-sim chaos`` can print them and CI can assert on them.

The catalog covers the corrective-action matrix of Section 3.5 over
real sockets:

* ``master_crash``    -- crash a master mid-workload: survivors detect it
  within the keep-alive bound, divide its slave set, its clients
  re-home to live masters, and a restart rejoins and catches up;
* ``partition_heal``  -- partition a master into a minority while lying
  slaves are being caught on the majority side: accusations and
  exclusions propagate to the partitioned master after healing;
* ``corrupt_frames``  -- random byte corruption on every client<->slave
  link: forged bytes never become accepted reads;
* ``auditor_failover``-- crash an auditor: masters fail its clients over
  to a survivor and pledges keep flowing; a restart rejoins;
* ``slave_crash``     -- crash and restart a serving slave: clients ride
  through on retries, the slave resyncs on rejoin;
* ``flash_crowd``     -- a greedy-client burst hammers the serving plane
  while honest readers continue: with wire-level admission control
  (``repro.qos``) honest read p99 stays within a baseline-derived SLO,
  keep-alives never miss their freshness window, and every shed frame
  is attributed in the metrics;
* ``shard_rebalance`` -- move a shard between master groups under live
  router traffic (``repro.shard``): clients re-home through WrongShard
  redirects within the detection bound, the read-unavailability window
  stays bounded, the other shard never blips, and the per-shard safety
  oracle finds zero violations.

Every random decision (workload and faults) comes from seeded streams,
so a verdict is reproducible for a given ``(scenario, seed)`` up to
real-clock timing.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable

from repro.chaos.faults import FaultPlane, LinkFaults
from repro.chaos.invariants import (
    CheckResult,
    reference_master,
    run_safety_checks,
)
from repro.content.kvstore import KVGet, KVPut
from repro.content.queries import Operation
from repro.core.adversary import AlwaysLie
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import sha1_hex
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.obs.spans import Span
from repro.shard.deploy import (
    ShardDeploymentSpec,
    ShardedCluster,
    run_shard_safety_checks,
)
from repro.shard.rebalance import Rebalancer

#: Detection bound as a multiple of ``keepalive_interval``: the
#: broadcast layer suspects a silent member after
#: ``broadcast_suspect_after`` (six keep-alive intervals in the chaos
#: configs below) plus a couple of heartbeat periods of slack.
K_DETECT = 10
KEEPALIVE = 0.2


def _detecting_config(**overrides: Any) -> ProtocolConfig:
    """The config :data:`K_DETECT` is stated for: fast keep-alives,
    suspicion after six of them, no double-checks."""
    return fast_protocol_config(
        double_check_probability=0.0,
        keepalive_interval=KEEPALIVE,
        broadcast_heartbeat_interval=KEEPALIVE,
        broadcast_suspect_after=6 * KEEPALIVE,
        request_timeout=1.0,
        **overrides)


@dataclass
class ScenarioVerdict:
    """The JSON-shaped outcome of one scenario run."""

    scenario: str
    seed: int
    passed: bool
    checks: list[CheckResult] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [check.to_json() for check in self.checks],
            "timings": self.timings,
            "counters": self.counters,
        }

    def failures(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]


async def _cancel_all(tasks: "list[asyncio.Task[Any]]") -> None:
    """Cancel tasks and wait until every one has really ended.

    ``wait_for`` can swallow a cancel that races the completion or the
    timeout of the read it wraps (the 3.11 lost-cancellation window),
    and under overload that race does get hit -- a task cancelled and
    awaited exactly once can then run, and be awaited, forever.  The
    load loops re-check their ``_stopping`` flag after each read, and
    this cancels in rounds until they are all gone.

    ``ReadLoad`` needs this as much as ``FlashCrowd``: stopped by one
    cancel and one await per task, the honest readers of the unprotected
    ``flash_crowd`` burst hang the scenario about one run in four.
    """
    pending = set(tasks)
    while pending:
        for task in pending:
            task.cancel()
        done, pending = await asyncio.wait(pending, timeout=2.0)
        for task in done:
            if not task.cancelled():
                task.exception()  # retrieve, tasks may have failed


class ReadLoad:
    """Continuous background reads, one task per client.

    Accept timestamps are kept so scenarios can measure the
    read-unavailability window around a fault (the longest gap between
    accepted reads while the schedule played out).
    """

    def __init__(self, cluster: LocalCluster, query: Operation,
                 interval: float = 0.04, timeout: float = 8.0,
                 clients: "list[Any] | None" = None) -> None:
        self.cluster = cluster
        self.query = query
        self.interval = interval
        self.timeout = timeout
        #: Which operation sinks drive load (default: every client);
        #: overload scenarios restrict this to the honest subset, and
        #: sharded scenarios pass routers instead of clients.
        self.clients: list[Any] = clients if clients is not None \
            else list(cluster.clients)
        self.accepted = 0
        self.rejected = 0
        self.timeouts = 0
        self.accepted_at: list[float] = []
        self._stopping = False
        self._tasks: list["asyncio.Task[None]"] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._tasks = [
            loop.create_task(self._run_one(client),
                             name=f"chaos-load:{client.node_id}")
            for client in self.clients
        ]

    async def _run_one(self, client: Any) -> None:
        try:
            while not self._stopping:
                try:
                    reply = await self.cluster.read(
                        client, self.query, timeout=self.timeout)
                except (TimeoutError, asyncio.TimeoutError):
                    self.timeouts += 1
                else:
                    if reply.get("status") == "accepted":
                        self.accepted += 1
                        self.accepted_at.append(self.cluster.scheduler.now)
                    else:
                        self.rejected += 1
                await asyncio.sleep(self.interval)
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        self._stopping = True
        # Take the task list before awaiting so a concurrent stop()
        # cannot re-cancel or re-await half-drained tasks.
        tasks, self._tasks = self._tasks, []
        await _cancel_all(tasks)

    def max_gap(self, start: float, end: float) -> float:
        """Longest stretch inside [start, end] with no accepted read."""
        stamps = sorted(t for t in self.accepted_at if start <= t <= end)
        edges = [start, *stamps, end]
        return max(b - a for a, b in zip(edges, edges[1:]))


class FlashCrowd:
    """A closed-loop greedy read storm: the ``flash_crowd`` load shape.

    Each greedy client runs ``concurrency`` concurrent read tasks in a
    tight loop (no think time), so the in-flight operation count stays
    pinned at ``len(clients) * concurrency`` for the whole burst --
    enough sustained pressure to saturate the serving plane, unlike an
    open-loop flood that TCP backpressure would self-limit.
    """

    def __init__(self, cluster: LocalCluster, clients: list[Client],
                 query: Operation, concurrency: int = 20,
                 timeout: float = 6.0) -> None:
        self.cluster = cluster
        self.clients = clients
        self.query = query
        self.concurrency = concurrency
        self.timeout = timeout
        self.attempts = 0
        self.completed = 0
        self._stopping = False
        self._tasks: list["asyncio.Task[None]"] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._tasks = [
            loop.create_task(
                self._hammer(client),
                name=f"chaos-crowd:{client.node_id}:{i}")
            for client in self.clients
            for i in range(self.concurrency)
        ]

    async def _hammer(self, client: Client) -> None:
        try:
            while not self._stopping:
                self.attempts += 1
                try:
                    await self.cluster.read(client, self.query,
                                            timeout=self.timeout)
                except (TimeoutError, asyncio.TimeoutError):
                    continue
                self.completed += 1
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        self._stopping = True
        tasks, self._tasks = self._tasks, []
        await _cancel_all(tasks)


def _preferred_master(client_id: str, num_masters: int) -> str:
    """The master a client deterministically homes to (client.py's rule)."""
    index = int(sha1_hex(client_id)[:4], 16) % num_masters
    return f"master-{index:02d}"


_COUNTER_PREFIXES = ("chaos_", "net_drop_", "qos_", "router_", "shard_")
_COUNTER_NAMES = (
    "reads_accepted", "reads_failed", "writes_committed", "writes_failed",
    "exclusions", "slaves_adopted", "master_crash_noticed",
    "auditor_crash_noticed", "auditor_recovery_noticed",
    "clients_auditor_failover", "client_reassignments", "reads_tainted",
    "net_frames_rejected", "net_handler_errors", "net_frames_dropped",
    "net_timeouts", "immediate_detections", "client_rehomes",
)


class ScenarioRun:
    """One scenario in flight: its cluster, loads, checks and timings.

    Everything a scenario shares with every other one lives here, so a
    scenario function is its spec, its fault schedule and its checks.
    Made by :func:`_running`.
    """

    def __init__(self, name: str, cluster: LocalCluster,
                 plane: FaultPlane) -> None:
        self.name = name
        self.cluster = cluster
        #: ``cluster.plane``, known not to be None.
        self.plane = plane
        self.checks: list[CheckResult] = []
        self.timings: dict[str, float] = {}
        #: Load generators to stop, newest first, when the run ends.
        self.loads: "list[ReadLoad | FlashCrowd]" = []

    def track(self, load: Any) -> Any:
        """Have the run stop ``load`` on the way out, whatever happens."""
        self.loads.append(load)
        return load

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name=name, passed=passed,
                                       detail=detail))

    async def write(self, name: str, op: Operation, what: str,
                    client: Any = None, timeout: float = 15.0) -> None:
        """Submit a write (from client 0 unless told otherwise) and
        record check ``name``: it committed."""
        reply = await self.cluster.write(
            client or self.cluster.clients[0], op, timeout=timeout)
        self.check(name, reply["status"] == "committed",
                   f"{what}: {reply['status']}")

    async def baseline(self) -> "ReadLoad":
        """How the flat scenarios open: key ``k`` committed and given
        time to reach the slaves; returns the (tracked, not yet
        started) read load on it."""
        config = self.cluster.config
        load: ReadLoad = self.track(ReadLoad(self.cluster, KVGet(key="k")))
        await self.write("baseline_write", KVPut(key="k", value="v0"),
                         "pre-fault write")
        await asyncio.sleep(config.max_latency + config.keepalive_interval)
        return load

    async def eventually(self, condition: Callable[[], bool],
                         timeout: float, *, timing: str | None = None,
                         check: str | None = None,
                         detail: Callable[[], str] | None = None,
                         ) -> float | None:
        """Wait up to ``timeout`` for ``condition``; ``None`` if it
        never held, else the seconds waited (kept as ``timing``).

        Running out of time is not an error here: a check evaluated on
        the state the wait left behind is what reports it.  With
        ``check`` that check is recorded right away, as ``condition()``
        described by ``detail()``.
        """
        try:
            waited: float | None = await self.cluster.wait_for(
                condition, timeout)
        except TimeoutError:
            waited = None
        if waited is not None and timing is not None:
            self.timings[timing] = waited
        if check is not None:
            assert detail is not None
            self.check(check, condition(), detail())
        return waited

    def reads_survived(self, load: "ReadLoad", at_least: int = 1) -> None:
        self.check(
            "reads_survived", load.accepted >= at_least,
            f"{load.accepted} accepted, {load.timeouts} timed out, "
            f"{load.rejected} failed during the schedule")

    async def verdict(self) -> ScenarioVerdict:
        """Drain, run the safety oracle, and sum the run up.

        The drain lets in-flight commits propagate and the audit queue
        clear; call after faults healed and load stopped.
        """
        cluster = self.cluster
        await asyncio.sleep(cluster.config.max_latency
                            + cluster.config.audit_grace + 0.3)
        if isinstance(cluster, ShardedCluster):
            for shard_id, results in \
                    run_shard_safety_checks(cluster).items():
                for result in results:
                    self.check(f"{shard_id}:{result.name}", result.passed,
                               result.detail)
        else:
            self.checks.extend(run_safety_checks(cluster))
        snapshot = cluster.metrics.snapshot()
        return ScenarioVerdict(
            scenario=self.name, seed=cluster.spec.seed,
            passed=all(check.passed for check in self.checks),
            checks=self.checks,
            timings={k: round(v, 4) for k, v in self.timings.items()},
            counters={
                key: value for key, value in sorted(snapshot.items())
                if key in _COUNTER_NAMES
                or key.startswith(_COUNTER_PREFIXES)})


@contextlib.asynccontextmanager
async def _running(name: str, spec: NetDeploymentSpec,
                   cluster_cls: type[LocalCluster] = LocalCluster,
                   ) -> AsyncIterator[ScenarioRun]:
    """Boot ``spec`` on a fault plane seeded like it; tear down after."""
    plane = FaultPlane(seed=spec.seed)
    cluster = await cluster_cls.launch(spec, settle=0.8, plane=plane)
    run = ScenarioRun(name, cluster, plane)
    try:
        yield run
    finally:
        for load in reversed(run.loads):
            await load.stop()
        await cluster.aclose()


def _spans(cluster: LocalCluster) -> list[Span]:
    """Every span recorded so far (empty when tracing is off)."""
    if cluster.obs is None:
        return []
    return cluster.obs.collector.spans()


def _detections_since(cluster: LocalCluster, t0: float) -> list[float]:
    timeline = cluster.metrics.timelines.get("master_crash_detections")
    if timeline is None:
        return []
    return [at for at, _value in timeline.points if at >= t0]


# -- scenario: master crash + restart (Section 3.5 end to end) -------------


async def master_crash(seed: int = 0) -> ScenarioVerdict:
    config = _detecting_config(max_read_retries=3)
    spec = NetDeploymentSpec(num_masters=3, slaves_per_master=2,
                             num_clients=4, seed=seed, protocol=config,
                             # Tracing on: the takeover must also be
                             # visible as a span (checked below).
                             obs_enabled=True)
    victim = "master-01"  # a follower: the sequencer stays up
    async with _running("master_crash", spec) as run:
        cluster, timings = run.cluster, run.timings
        load = await run.baseline()
        load.start()
        await asyncio.sleep(0.5)

        crash_t = cluster.scheduler.now
        stranded = [c for c in cluster.clients if c.master_id == victim]
        await cluster.crash_node(victim)

        # 1. Detection: survivors notice within K_DETECT keep-alives.
        bound = K_DETECT * KEEPALIVE
        await run.eventually(
            lambda: bool(_detections_since(cluster, crash_t)), 3 * bound)
        detections = _detections_since(cluster, crash_t)
        latency = (detections[0] - crash_t) if detections else float("inf")
        timings["detection_latency"] = latency
        timings["detection_bound"] = bound
        run.check(
            "detection_within_bound", latency <= bound,
            f"first survivor acted {latency:.2f}s after the crash "
            f"(bound {bound:.2f}s = {K_DETECT} x keepalive)")

        # 1b. Same bound, independently observed through repro.obs: a
        # survivor's ``master.takeover`` span must land within
        # K_DETECT keep-alives of the crash.
        takeovers = [s for s in _spans(cluster)
                     if s.op == "master.takeover" and s.start >= crash_t]
        span_latency = (min(s.start for s in takeovers) - crash_t
                        if takeovers else float("inf"))
        timings["takeover_span_latency"] = span_latency
        run.check(
            "takeover_span_within_bound", span_latency <= bound,
            f"{len(takeovers)} master.takeover span(s); first "
            f"{span_latency:.2f}s after the crash (bound {bound:.2f}s)")

        # 2. Slave-set division: both orphaned slaves adopted.
        waited = await run.eventually(
            lambda: cluster.metrics.count("slaves_adopted")
            >= spec.slaves_per_master,
            2 * bound, check="slave_set_divided",
            detail=lambda: f"{cluster.metrics.count('slaves_adopted'):.0f}"
            f"/{spec.slaves_per_master} orphaned slaves adopted by "
            f"survivors")
        if waited is not None:
            timings["slave_adoption"] = latency + waited

        # 3. Client reassignment: writes from the dead master's clients
        # time out and re-home them (Section 3.5's re-setup path).
        rehome_tasks = [
            asyncio.get_running_loop().create_task(
                cluster.write(client, KVPut(key=f"re{index}", value="x"),
                              timeout=14.0))
            for index, client in enumerate(stranded)
        ]
        try:
            await run.eventually(
                lambda: all(c.ready and c.master_id is not None
                            and not cluster.node(c.master_id).crashed
                            for c in cluster.clients),
                12.0)
        finally:
            # The probe writes only exist to trigger re-homing; reap
            # them so no orphan task outlives the scenario.
            await _cancel_all(rehome_tasks)
        still_stranded = [c.node_id for c in cluster.clients
                          if not c.ready or c.master_id == victim]
        run.check(
            "clients_reassigned", not still_stranded,
            f"{len(stranded)} clients were homed on {victim}; "
            f"still stranded: {still_stranded or 'none'}")

        # 4. Liveness through the fault: a post-crash write commits.
        await run.write("post_crash_write", KVPut(key="k", value="v1"),
                        "write after the crash", timeout=14.0)

        # 5. Restart with rejoin: the master comes back on the same
        # endpoint, announces recovery and catches up the missed history.
        restart_t = cluster.scheduler.now
        await cluster.restart_node(victim)
        victim_master = next(m for m in cluster.masters
                             if m.node_id == victim)
        await run.eventually(
            lambda: victim_master.version
            == reference_master(cluster).version,
            10.0, timing="rejoin_catchup", check="restart_rejoined",
            detail=lambda: f"{victim} at version {victim_master.version} "
            f"vs reference {reference_master(cluster).version} after "
            f"restart")

        await load.stop()
        timings["read_unavailability"] = load.max_gap(crash_t,
                                                      restart_t)
        run.reads_survived(load)
        return await run.verdict()


# -- scenario: partition + heal with lying slaves --------------------------


async def partition_heal(seed: int = 0) -> ScenarioVerdict:
    num_masters = 3
    liar_master = _preferred_master("client-00", num_masters)
    liar_index = int(liar_master[-2:])
    # Isolate a master that is not the liars' owner, so the Byzantine
    # detection runs on the majority side while the target sits out the
    # partition entirely (cut from every other trusted member, so the
    # exclusion broadcasts genuinely cannot reach it).
    candidates = [f"master-{i:02d}" for i in range(1, num_masters)
                  if f"master-{i:02d}" != liar_master]
    target = candidates[-1]
    config = fast_protocol_config(
        double_check_probability=0.05,
        request_timeout=1.0,
        max_read_retries=3,
    )
    spec = NetDeploymentSpec(
        num_masters=num_masters, slaves_per_master=2, num_clients=3,
        seed=seed, protocol=config,
        # Both of the liar master's slaves corrupt every answer...
        adversaries={2 * liar_index: AlwaysLie(),
                     2 * liar_index + 1: AlwaysLie()},
        # ...and every client double-checks every read, so the first lie
        # a client sees becomes an accusation immediately.
        client_double_check_overrides={i: 1.0 for i in range(3)})
    async with _running("partition_heal", spec) as run:
        cluster, timings = run.cluster, run.timings
        load = await run.baseline()

        partition_t = cluster.scheduler.now
        trusted = [m.node_id for m in cluster.masters] + \
            [a.node_id for a in cluster.auditors]
        for other in trusted:
            if other != target:
                run.plane.partition(target, other)
        load.start()

        # While partitioned, the majority side must catch the liars and
        # exclude both of the liar master's slaves.
        await run.eventually(
            lambda: cluster.metrics.count("exclusions") >= 2,
            12.0, timing="exclusions_done",
            check="liars_excluded_during_partition",
            detail=lambda: f"{cluster.metrics.count('exclusions'):.0f} "
            f"exclusions while {target} was partitioned")

        # Commit on the majority side and hold the partition long past
        # the suspicion window, so the target provably misses history
        # (it goes leaderless in its minority and cannot order anything).
        await run.write(
            "write_during_partition", KVPut(key="k", value="mid"),
            f"majority-side write while {target} was cut off",
            timeout=14.0)
        await asyncio.sleep(2 * config.broadcast_suspect_after)

        target_master = next(m for m in cluster.masters
                             if m.node_id == target)
        version_at_heal = target_master.version
        reference_at_heal = reference_master(cluster).version
        run.check(
            "target_missed_partition_history",
            version_at_heal < reference_at_heal,
            f"{target} at version {version_at_heal} vs majority "
            f"{reference_at_heal} just before the heal")

        timings["partition_window"] = cluster.scheduler.now - partition_t
        run.plane.heal_all()
        heal_t = cluster.scheduler.now

        # After healing, the partitioned master repairs the missed
        # broadcasts -- including the exclusions it never saw.
        liars = {f"slave-{liar_index:02d}-00", f"slave-{liar_index:02d}-01"}
        await run.eventually(
            lambda: liars <= target_master.excluded_slaves
            and target_master.version
            == reference_master(cluster).version,
            12.0, timing="heal_catchup")
        run.check(
            "accusations_propagated_through_heal",
            liars <= target_master.excluded_slaves,
            f"{target} learned {len(liars & target_master.excluded_slaves)}"
            f"/2 exclusions after the heal")
        run.check(
            "partitioned_master_caught_up",
            target_master.version == reference_master(cluster).version,
            f"{target} at version {target_master.version} vs reference "
            f"{reference_master(cluster).version}")

        await run.write("post_heal_write", KVPut(key="k", value="v1"),
                        "write after the heal", timeout=14.0)
        timings["heal_to_write"] = cluster.scheduler.now - heal_t

        await load.stop()
        run.reads_survived(load)
        return await run.verdict()


# -- scenario: corrupt frames on every client<->slave link -----------------


async def corrupt_frames(seed: int = 0) -> ScenarioVerdict:
    config = fast_protocol_config(
        double_check_probability=0.1,
        request_timeout=1.0,
        max_read_retries=4,
    )
    spec = NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                             num_clients=2, seed=seed, protocol=config)
    async with _running("corrupt_frames", spec) as run:
        cluster = run.cluster
        load = await run.baseline()

        # Benign asynchrony everywhere; byte corruption only on the
        # untrusted edges (the paper assumes secure channels between
        # trusted principals -- their integrity is the crypto's job on
        # the client/slave edges, the channel's job between masters).
        run.plane.set_default(LinkFaults(
            drop=0.03, duplicate=0.05, reorder=0.05,
            delay=0.002, delay_jitter=0.004))
        noisy = LinkFaults(corrupt=0.15, drop=0.03, duplicate=0.05,
                           reorder=0.05, delay=0.002, delay_jitter=0.004)
        for slave in cluster.slaves:
            for client in cluster.clients:
                run.plane.set_link(slave.node_id, client.node_id, noisy,
                                   symmetric=True)

        chaos_t = cluster.scheduler.now
        load.start()
        await asyncio.sleep(5.0)
        await run.write(
            "write_under_corruption", KVPut(key="k", value="v1"),
            "write during the corruption schedule", timeout=14.0)
        await asyncio.sleep(1.0)
        run.timings["corruption_window"] = cluster.scheduler.now - chaos_t
        run.plane.reset()
        await load.stop()

        corrupted = cluster.metrics.count("chaos_corrupted_frames")
        rejected = cluster.metrics.count("net_frames_rejected")
        run.check(
            "frames_actually_corrupted", corrupted >= 5,
            f"{corrupted:.0f} frames corrupted in transit, "
            f"{rejected:.0f} rejected by the codec")
        run.reads_survived(load, at_least=10)

        # A clean read after the faults are lifted proves liveness.
        await asyncio.sleep(config.max_latency + config.keepalive_interval)
        final = await cluster.read(cluster.clients[1], KVGet(key="k"),
                                   timeout=14.0)
        run.check(
            "post_chaos_read",
            final.get("status") == "accepted"
            and (final.get("result") or {}).get("value") == "v1",
            f"read after faults lifted: {final.get('status')} -> "
            f"{(final.get('result') or {}).get('value')!r}")
        return await run.verdict()


# -- scenario: auditor crash + failover + rejoin ---------------------------


async def auditor_failover(seed: int = 0) -> ScenarioVerdict:
    config = _detecting_config()  # every read goes the audit path
    spec = NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                             num_clients=4, num_auditors=2, seed=seed,
                             protocol=config)
    async with _running("auditor_failover", spec) as run:
        cluster, timings = run.cluster, run.timings
        load = await run.baseline()
        load.start()
        await asyncio.sleep(0.5)

        # Crash the auditor client-00 reports to, so at least one client
        # demonstrably needs the failover.
        victim = cluster.clients[0].auditor_id
        affected = [c.node_id for c in cluster.clients
                    if c.auditor_id == victim]
        crash_t = cluster.scheduler.now
        await cluster.crash_node(victim)

        bound = K_DETECT * KEEPALIVE
        await run.eventually(
            lambda: cluster.metrics.count("auditor_crash_noticed") >= 1,
            3 * bound, timing="detection_latency",
            check="auditor_crash_detected",
            detail=lambda: "masters noticed the crash "
            f"{cluster.metrics.count('auditor_crash_noticed'):.0f} time(s)")
        timings["detection_bound"] = bound

        await run.eventually(
            lambda: all(c.auditor_id != victim for c in cluster.clients
                        if c.ready),
            10.0, timing="failover_done")
        remaining = [c.node_id for c in cluster.clients
                     if c.auditor_id == victim]
        run.check(
            "clients_failed_over", not remaining,
            f"{len(affected)} clients reported to {victim}; still "
            f"pointing at it: {remaining or 'none'}")

        # Pledges keep flowing to the survivor while the victim is down.
        survivor = next(a for a in cluster.auditors
                        if a.node_id != victim)
        before = survivor.pledges_received
        await asyncio.sleep(1.5)
        run.check(
            "pledges_keep_flowing", survivor.pledges_received > before,
            f"survivor {survivor.node_id} pledges "
            f"{before} -> {survivor.pledges_received}")

        await cluster.restart_node(victim)
        await run.eventually(
            lambda: cluster.metrics.count("auditor_recovery_noticed") >= 1,
            10.0, timing="rejoin_noticed", check="auditor_rejoined",
            detail=lambda: "masters noticed the recovery "
            f"{cluster.metrics.count('auditor_recovery_noticed'):.0f} "
            f"time(s)")
        timings["fault_window"] = cluster.scheduler.now - crash_t

        await load.stop()
        run.reads_survived(load)
        return await run.verdict()


# -- scenario: slave crash + restart with resync ---------------------------


async def slave_crash(seed: int = 0) -> ScenarioVerdict:
    config = fast_protocol_config(
        double_check_probability=0.05,
        request_timeout=1.0,
        max_read_retries=4,
    )
    spec = NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                             num_clients=2, seed=seed, protocol=config)
    async with _running("slave_crash", spec) as run:
        cluster = run.cluster
        load = await run.baseline()
        load.start()
        await asyncio.sleep(0.5)

        # Crash a slave that is actually serving a client.
        victim = cluster.clients[0].assigned_slaves[0]
        crash_t = cluster.scheduler.now
        await cluster.crash_node(victim)

        # Write while the slave is down so the restart has a version gap
        # to resync across.
        await run.write("write_during_outage", KVPut(key="k", value="v1"),
                        f"write while {victim} was down", timeout=14.0)
        await asyncio.sleep(2.0)

        await cluster.restart_node(victim)
        run.timings["outage"] = cluster.scheduler.now - crash_t
        victim_slave = next(s for s in cluster.slaves
                            if s.node_id == victim)
        await run.eventually(
            lambda: victim_slave.version
            == reference_master(cluster).version,
            10.0, timing="resync", check="slave_resynced",
            detail=lambda: f"{victim} at version {victim_slave.version} "
            f"vs reference {reference_master(cluster).version} after "
            f"restart")

        await load.stop()
        run.reads_survived(load)
        return await run.verdict()


# -- scenario: flash crowd vs admission control (repro.qos) ----------------


def _percentile(durations: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a duration sample (inf when empty)."""
    if not durations:
        return float("inf")
    ordered = sorted(durations)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def _honest_read_durations(cluster: LocalCluster, honest: set[str],
                           start: float, end: float) -> list[float]:
    """Durations of every *ended* honest ``client.read`` span in a window.

    Failed reads are included on purpose: excluding them would let the
    overloaded variant look healthy by only timing the reads that got
    through (survivorship bias).
    """
    durations = []
    for span in _spans(cluster):
        if (span.op == "client.read" and span.node in honest
                and span.end is not None and start <= span.start <= end):
            durations.append(span.end - span.start)
    return durations


def _keepalive_window(cluster: LocalCluster, name: str, start: float,
                      end: float) -> tuple[int, float]:
    """(events, longest gap) inside [start, end] of one keep-alive
    timeline: ``keepalive_tx@master`` rounds, ``keepalive_rx@slave``."""
    timeline = cluster.metrics.timelines.get(name)
    points = [] if timeline is None else \
        [at for at, _value in timeline.points if start <= at <= end]
    edges = [start, *sorted(points), end]
    return len(points), max(b - a for a, b in zip(edges, edges[1:]))


def _shed_breakdown(counters: dict[str, float]) -> tuple[float, float,
                                                         float]:
    """(total, by-reason sum, by-client sum) of the ``qos_shed_*`` family."""
    total = counters.get("qos_shed_total", 0.0)
    by_client = sum(v for k, v in counters.items()
                    if k.startswith("qos_shed_from_"))
    by_reason = sum(v for k, v in counters.items()
                    if k.startswith("qos_shed_")
                    and not k.startswith("qos_shed_from_")
                    and k != "qos_shed_total")
    return total, by_reason, by_client


#: ``honest_p99_slo`` detects ONE thing: admission control shedding
#: honest traffic.  It judges that by count -- frames of the honest
#: principals the ledger shed inside the burst window, which must be
#: none -- and *reports* the latency beside it: the protected burst's
#: honest read p99 against this multiple of the unprotected burst's
#: (``timings["slo"]``), both measured back to back on the same host.
#: Until PR 23 that ratio was the judgement, on the grounds that a shed
#: honest read waits out ``request_timeout`` (1.25 s), over three times
#: an unprotected tail of 0.15-0.4 s.  But a p99 over the 50-120 honest
#: reads of one burst is nearly their maximum, and the unprotected one
#: swings 0.08-2.0 s between identical runs (ten full-suite runs, two
#: builds): the bound was 0.25 s in some runs -- a few collector pauses
#: from red with nothing shed, and the faster the build the nearer --
#: and above ``request_timeout`` in six of the ten, where a shed honest
#: read would have passed.  That admission control *helps* is
#: ``honest_median_protected``'s claim, on the statistic one burst can
#: resolve.
P99_RATIO_BOUND = 3.0


async def flash_crowd(seed: int = 0) -> ScenarioVerdict:
    """Greedy-client burst vs the serving plane's admission control.

    The identical burst runs twice, back to back: first with the
    wire-level limits off (the reference), then with them on.  The
    verdict is the protected run's -- keep-alives must never miss the
    Section 3.1 freshness window, every shed frame must be attributed
    (total == by-reason == by-client), the safety oracle must pass --
    plus two checks on its honest traffic that hold on a fast box and a
    slow one alike: no honest frame shed during the burst (a count; the
    p99 against :data:`P99_RATIO_BOUND` times the reference's is
    reported beside it, see there), and the median strictly below the
    reference's (the contrast that justifies the qos layer, on the
    statistic one burst can resolve: measured ratios 0.002-0.02; the
    protected median, 1.3-1.8 ms, is an idle cluster's).
    """
    reference = await _flash_crowd_burst(seed, qos=False)
    verdict = await _flash_crowd_burst(seed, qos=True)
    timings = verdict.timings
    for key in ("burst_p50", "burst_p99"):
        timings[f"unprotected_{key}"] = reference.timings[key]
    timings["slo"] = round(
        P99_RATIO_BOUND * reference.timings["burst_p99"], 4)
    verdict.checks[:0] = [
        CheckResult(
            "honest_p99_slo", timings["honest_sheds_in_burst"] == 0,
            f"{timings['honest_sheds_in_burst']:.0f} honest frames shed "
            f"during the burst; reported: honest read p99 "
            f"{timings['burst_p99']:.3f}s with admission control vs "
            f"{reference.timings['burst_p99']:.3f}s without "
            f"({P99_RATIO_BOUND}x = {timings['slo']:.3f}s)"),
        CheckResult(
            "honest_median_protected",
            timings["burst_p50"] < reference.timings["burst_p50"],
            f"honest read p50 {timings['burst_p50']:.3f}s with admission "
            f"control vs {reference.timings['burst_p50']:.3f}s without"),
        CheckResult(
            "reference_unprotected",
            reference.counters.get("qos_shed_total", 0) == 0,
            "the reference burst ran with no frame shed"),
    ]
    verdict.passed = all(check.passed for check in verdict.checks)
    return verdict


async def _flash_crowd_burst(seed: int, qos: bool) -> ScenarioVerdict:
    """One burst against a fresh cluster; everything but the latency
    judgement, which needs both settings (see :func:`flash_crowd`).

    Two honest readers keep a steady trickle going; six greedy clients
    then pin ~288 concurrent reads (each also double-checking with its
    master) against the same slaves for several seconds.
    """
    honest_count, greedy_count = 2, 6
    overrides: dict[str, Any] = {}
    if qos:
        # Honest clients need well under 40 frames/s per listener; the
        # crowd's closed loop wants hundreds.  The burst allowance is
        # deliberately small so the crowd cannot ride burst refills, and
        # every shed frame burns a token, so the crowd -- which never
        # stops offering above its quota -- is served below it: held
        # *to* 15/s at each of three listeners, six principals would
        # still be admitted a full core's worth.
        overrides.update(
            qos_frame_rate=15.0, qos_frame_burst=20.0,
            qos_inbox_limit=512, qos_idle_multiple=10.0)
    config = fast_protocol_config(
        keepalive_interval=KEEPALIVE,
        # Honest clients never double-check (their latency is pure
        # read-path); greedy clients override to 1.0 below so the crowd
        # hits masters too.
        double_check_probability=0.0,
        request_timeout=1.25,
        max_read_retries=2,
        # Disable the Section 3.3 protocol-level throttle so the burst
        # genuinely reaches the wire layer this scenario is about.
        greedy_allowance_rate=100_000.0,
        greedy_drop_fraction=0.0,
        **overrides,
    )
    spec = NetDeploymentSpec(
        num_masters=2, slaves_per_master=2,
        num_clients=honest_count + greedy_count, seed=seed,
        protocol=config, obs_enabled=True,
        client_double_check_overrides={
            i: 1.0 for i in range(honest_count,
                                  honest_count + greedy_count)})
    async with _running("flash_crowd", spec) as run:
        cluster, timings = run.cluster, run.timings
        honest_clients = cluster.clients[:honest_count]
        honest_ids = {c.node_id for c in honest_clients}
        # A 10/s trickle per honest client (sent to both assigned slaves)
        # sits well inside the 15 frames/s admission budget, so honest
        # traffic is never the one shed.
        load = run.track(ReadLoad(cluster, KVGet(key="k"), interval=0.1,
                                  clients=honest_clients))
        # The crowd hammers a bulky value: every greedy read costs the
        # slave a real 1 MiB encode + SHA-1 (and its master the
        # double-check re-execution), so the burst saturates CPU, not
        # just socket buffers.
        # 48 tasks x 6 clients = ~288 reads in flight: enough to saturate
        # a single core with 1 MiB encodes, low enough that the backlog
        # drains and the scenario's wall-clock stays bounded.
        crowd = run.track(FlashCrowd(
            cluster, cluster.clients[honest_count:], KVGet(key="bulk"),
            concurrency=48))
        await run.write("baseline_write", KVPut(key="k", value="v0"),
                        "pre-burst write")
        await run.write("bulk_write",
                        KVPut(key="bulk", value="x" * 1048576),
                        "crowd-target write")
        await asyncio.sleep(config.max_latency + KEEPALIVE)

        # Baseline window: the honest trickle alone, reported so a
        # verdict shows what the burst cost on this host.
        load.start()
        baseline_t0 = cluster.scheduler.now
        await asyncio.sleep(2.0)
        baseline_t1 = cluster.scheduler.now
        timings["baseline_p99"] = _percentile(_honest_read_durations(
            cluster, honest_ids, baseline_t0, baseline_t1), 0.99)

        # The burst: ~288 closed-loop greedy reads in flight.
        crowd.start()
        # Let the crowd's closed loop reach steady state before the
        # measured window opens -- the ramp's half-filled pipelines
        # would otherwise dilute the burst percentiles.
        await asyncio.sleep(0.5)
        def honest_sheds() -> float:
            return sum(cluster.metrics.count(f"qos_shed_from_{node_id}")
                       for node_id in honest_ids)

        burst_t0 = cluster.scheduler.now
        shed_before = honest_sheds()
        await asyncio.sleep(6.0)
        burst_t1 = cluster.scheduler.now
        timings["honest_sheds_in_burst"] = honest_sheds() - shed_before
        await crowd.stop()
        await load.stop()
        timings["burst_window"] = burst_t1 - burst_t0

        burst_durations = _honest_read_durations(
            cluster, honest_ids, burst_t0, burst_t1)
        timings["burst_p50"] = _percentile(burst_durations, 0.5)
        timings["burst_p99"] = _percentile(burst_durations, 0.99)

        # Keep-alives are never shed, judged by what admission control
        # answers for.  By count: every round a master sent arrived (one
        # sent at the window's edge may land outside it).  By time: a
        # slave's arrival gap against its master's send gap *in the same
        # process*, so an interpreter stalled by the host widens both
        # and is not booked to repro.qos.  The wall-clock gap itself is
        # reported, not judged.  (``qos_shed_from_master-*`` says nothing
        # here: a protected frame is never counted shed, and the counter
        # is nonzero for the double-check replies the crowd's own
        # listeners refuse.)
        worst_gap, worst_slave, held_back = 0.0, "-", []
        burst = (burst_t0, burst_t1)
        for master in cluster.masters:
            sent, tx_gap = _keepalive_window(
                cluster, f"keepalive_tx@{master.node_id}", *burst)
            for slave_id in master.slaves:
                arrived, rx_gap = _keepalive_window(
                    cluster, f"keepalive_rx@{slave_id}", *burst)
                if rx_gap > worst_gap:
                    worst_gap, worst_slave = rx_gap, slave_id
                if (arrived < sent - 1
                        or rx_gap > tx_gap + config.max_latency / 2):
                    held_back.append(
                        f"{slave_id}: {arrived} of {sent} rounds, gap "
                        f"{rx_gap:.2f}s vs {tx_gap:.2f}s between sends")
        timings["worst_keepalive_gap"] = worst_gap
        run.check(
            "keepalives_never_missed", not held_back,
            f"keep-alives lost or held back: {held_back or 'none'}; worst "
            f"arrival gap {worst_gap:.2f}s (at {worst_slave}), reported "
            f"against max_latency {config.max_latency}s")

        counters = cluster.metrics.snapshot()
        total, by_reason, by_client = _shed_breakdown(counters)
        if qos:
            run.check(
                "sheds_happened", total > 0,
                f"{total:.0f} frames shed by admission control")
            run.check(
                "sheds_attributed",
                total == by_reason == by_client,
                f"qos_shed_total {total:.0f} == by-reason {by_reason:.0f}"
                f" == by-client {by_client:.0f}")
        run.check(
            "reads_survived", load.accepted > 0,
            f"honest: {load.accepted} accepted, {load.timeouts} timed "
            f"out, {load.rejected} failed; crowd: {crowd.attempts} "
            f"attempts, {crowd.completed} completed")
        return await run.verdict()


# -- scenario: online shard rebalance under live traffic -------------------


async def shard_rebalance(seed: int = 0) -> ScenarioVerdict:
    """Move a shard between master groups under live router load.

    Verifies the §3.5-reuse story end to end: the freeze/snapshot/
    certify/republish block never loses committed history (per-shard
    safety oracle), clients re-home via WrongShard within the
    detection bound, the bystander shard never blips, and the
    read-unavailability window -- measured both from accepted-read
    gaps and from the ``shard.rebalance`` span -- stays bounded.
    """
    config = _detecting_config(max_read_retries=4)
    spec = ShardDeploymentSpec(
        num_masters=2, slaves_per_master=1, num_clients=2,
        num_auditors=1, num_shards=2, num_hosts=2, seed=seed,
        protocol=config, obs_enabled=True)
    async with _running("shard_rebalance", spec, ShardedCluster) as run:
        cluster, timings = run.cluster, run.timings
        assert isinstance(cluster, ShardedCluster)
        router = cluster.routers[0]
        # One key per shard: the moved shard's key drives the measured
        # load, the bystander's key proves isolation.
        keys_by_shard: dict[str, str] = {}
        index = 0
        while len(keys_by_shard) < 2:
            key = f"k{index}"
            keys_by_shard.setdefault(router.shard_for(KVGet(key=key)), key)
            index += 1
        moved = router.shard_for(KVGet(key="k0"))
        bystander = next(s for s in keys_by_shard if s != moved)
        load = run.track(ReadLoad(
            cluster, KVGet(key=keys_by_shard[moved]),
            clients=list(cluster.routers)))
        calm = run.track(ReadLoad(
            cluster, KVGet(key=keys_by_shard[bystander]),
            clients=list(cluster.routers)))
        for shard_id, key in keys_by_shard.items():
            await run.write(f"baseline_write_{shard_id}",
                            KVPut(key=key, value=f"v:{key}"),
                            f"pre-move write to {shard_id}", client=router)
        await asyncio.sleep(config.max_latency + KEEPALIVE)
        load.start()
        calm.start()
        await asyncio.sleep(0.5)

        move_t = cluster.scheduler.now
        report = await Rebalancer(cluster).move_shard(moved)
        timings["slaves_resynced"] = report["slaves_resynced_at"]
        new_ids = {m.node_id for m in cluster.shards[moved].masters}
        run.check(
            "new_generation_installed",
            cluster.shards[moved].generation == 1
            and cluster.map_epoch == 2,
            f"{moved} at generation "
            f"{cluster.shards[moved].generation}, map epoch "
            f"{cluster.map_epoch}")

        # Re-home: every leg homed on the moved shard must land on the
        # new master group within the detection bound (the redirect
        # arrives with the next read; setup re-runs against the
        # republished directory).
        bound = K_DETECT * KEEPALIVE
        legs = cluster.shards[moved].clients
        waited = await run.eventually(
            lambda: all(leg.ready and leg.master_id in new_ids
                        for leg in legs),
            3 * bound)
        timings["rehome_latency"] = \
            float("inf") if waited is None else waited
        timings["rehome_bound"] = bound
        stranded = [leg.node_id for leg in legs
                    if not leg.ready or leg.master_id not in new_ids]
        run.check(
            "clients_rehomed_within_bound",
            timings["rehome_latency"] <= bound and not stranded,
            f"{len(legs)} legs re-homed in "
            f"{timings['rehome_latency']:.2f}s (bound {bound:.2f}s = "
            f"{K_DETECT} x keepalive); stranded: {stranded or 'none'}")
        redirects = cluster.metrics.count("router_wrong_shard")
        run.check(
            "rehome_was_redirect_driven", redirects >= 1,
            f"{redirects:.0f} WrongShard redirects reached routers")

        # Liveness on the moved shard after the move.
        await run.write("post_move_write",
                        KVPut(key=keys_by_shard[moved], value="v1"),
                        f"write to {moved} after the move", client=router,
                        timeout=14.0)
        await asyncio.sleep(config.max_latency + KEEPALIVE)
        end_t = cluster.scheduler.now
        await load.stop()
        await calm.stop()

        # Unavailability, measured two ways: the longest accepted-read
        # gap on the moved shard, and the rebalance span itself.
        gap_bound = bound + config.request_timeout
        gap = load.max_gap(move_t, end_t)
        timings["read_unavailability"] = gap
        timings["read_unavailability_bound"] = gap_bound
        run.check(
            "unavailability_bounded", gap <= gap_bound,
            f"longest accepted-read gap on {moved} was {gap:.2f}s "
            f"(bound {gap_bound:.2f}s)")
        calm_gap = calm.max_gap(move_t, end_t)
        timings["bystander_max_gap"] = calm_gap
        run.check(
            "bystander_shard_unaffected", calm_gap <= gap_bound / 2,
            f"longest accepted-read gap on bystander {bystander} was "
            f"{calm_gap:.2f}s")
        spans = [s for s in _spans(cluster)
                 if s.op == "shard.rebalance" and s.end is not None]
        span_window = max((s.end - s.start for s in spans),
                          default=float("inf"))
        timings["rebalance_span"] = span_window
        run.check(
            "rebalance_span_recorded", span_window <= gap_bound,
            f"shard.rebalance span covered {span_window:.2f}s "
            f"({len(spans)} span(s) recorded)")
        return await run.verdict()


# -- registry and runners --------------------------------------------------


SCENARIOS: dict[str, Callable[[int], Awaitable[ScenarioVerdict]]] = {
    "master_crash": master_crash,
    "partition_heal": partition_heal,
    "corrupt_frames": corrupt_frames,
    "auditor_failover": auditor_failover,
    "slave_crash": slave_crash,
    "flash_crowd": flash_crowd,
    "shard_rebalance": shard_rebalance,
}

#: Hard wall-clock ceiling per scenario.  Normal runs finish in well
#: under 20s; the ceiling turns any wedged wait into a named failure
#: instead of a hung test run (cluster teardown still runs via the
#: scenario's own ``finally``).
SCENARIO_DEADLINE = 120.0


async def run_scenario(name: str, seed: int = 0) -> ScenarioVerdict:
    """Run one named scenario; raises ``KeyError`` for unknown names."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {sorted(SCENARIOS)}") from None
    try:
        return await asyncio.wait_for(scenario(seed), SCENARIO_DEADLINE)
    except asyncio.TimeoutError:
        raise TimeoutError(
            f"scenario {name!r} (seed {seed}) exceeded the "
            f"{SCENARIO_DEADLINE:.0f}s deadline") from None


def run_scenario_sync(name: str, seed: int = 0) -> ScenarioVerdict:
    """Synchronous wrapper for the CLI and tests."""
    return asyncio.run(run_scenario(name, seed))


async def run_all(seed: int = 0) -> list[ScenarioVerdict]:
    """Run the full catalog sequentially (each gets a fresh cluster)."""
    return [await run_scenario(name, seed) for name in SCENARIOS]


__all__ = [
    "K_DETECT",
    "FlashCrowd",
    "ReadLoad",
    "SCENARIOS",
    "SCENARIO_DEADLINE",
    "ScenarioVerdict",
    "run_all",
    "run_scenario",
    "run_scenario_sync",
]
