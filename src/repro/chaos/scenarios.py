"""Named chaos scenarios as values, and the one interpreter that runs them.

A :class:`Scenario` is a cast per run (a deployment spec), a schedule of
steps from the closed vocabulary :data:`STEPS` and checks comparing the
runs.  :func:`run_once` boots a cast on a
:class:`~repro.chaos.faults.FaultPlane` seeded like it, plays the
schedule against the live cluster and ends every run alike: drain, the
safety oracle (per shard on a ``ShardedCluster``) and a JSON-shaped
:class:`ScenarioVerdict` of named checks -- Section 3.5's safety and
liveness obligations -- timings and counters.  Every random decision
comes from seeded streams, so a verdict is reproducible for a given
``(scenario, seed)`` up to real-clock timing.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, TypeVar, Union

from repro.chaos.faults import FaultPlane, LinkFaults
from repro.chaos.invariants import CheckResult, reference_master
from repro.chaos.invariants import run_safety_checks
from repro.content.kvstore import KVGet, KVPut
from repro.content.queries import Operation
from repro.core.adversary import AlwaysLie
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import sha1_hex
from repro.net.deploy import LocalCluster, NetDeploymentSpec
from repro.net.deploy import fast_protocol_config
from repro.obs.spans import Span
from repro.shard.deploy import ShardDeploymentSpec, ShardedCluster
from repro.shard.deploy import run_shard_safety_checks
from repro.shard.rebalance import Rebalancer

#: Detection bound as a multiple of ``keepalive_interval``: the
#: broadcast layer suspects a silent member after
#: ``broadcast_suspect_after`` (six keep-alive intervals in the chaos
#: configs below) plus a couple of heartbeat periods of slack.
K_DETECT = 10
KEEPALIVE = 0.2
BOUND = K_DETECT * KEEPALIVE


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
        return {"scenario": self.scenario, "seed": self.seed,
                "passed": self.passed,
                "checks": [check.to_json() for check in self.checks],
                "timings": self.timings, "counters": self.counters}

    def failures(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.passed]


async def _cancel_all(tasks: "list[asyncio.Task[Any]]") -> None:
    """Cancel tasks in rounds until every one has really ended.

    ``wait_for`` can swallow a cancel that races the completion or the
    timeout of the read it wraps (the 3.11 lost-cancellation window);
    cancelled and awaited once, the honest readers of the unprotected
    ``flash_crowd`` burst hung the scenario about one run in four.
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
    """``concurrency`` read loops per client, each pausing ``interval``
    between reads.  At ``interval=0`` the next read leaves as the last
    ends, pinning ``len(clients) * concurrency`` reads in flight --
    pressure an open-loop flood, throttled by TCP backpressure, would
    not keep up.  Accept times give the read-unavailability window."""

    def __init__(self, cluster: LocalCluster, query: Operation,
                 interval: float = 0.04, timeout: float = 8.0,
                 clients: "list[Any] | None" = None,
                 concurrency: int = 1) -> None:
        self.cluster, self.query = cluster, query
        self.interval, self.timeout = interval, timeout
        #: Operation sinks driving load (default: every client).
        self.clients: list[Any] = list(cluster.clients) \
            if clients is None else clients
        self.concurrency = concurrency
        self.attempts = self.completed = 0
        self.accepted = self.rejected = self.timeouts = 0
        self.accepted_at: list[float] = []
        self._stopping = False
        self._tasks: list["asyncio.Task[None]"] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stopping = False
        self._tasks = [loop.create_task(self._run_one(client),
                                        name=f"chaos-load:{client.node_id}")
                       for client in self.clients
                       for _ in range(self.concurrency)]

    async def _run_one(self, client: Any) -> None:
        try:
            while not self._stopping:  # re-checked: see _cancel_all
                self.attempts += 1
                try:
                    reply = await self.cluster.read(
                        client, self.query, timeout=self.timeout)
                except (TimeoutError, asyncio.TimeoutError):
                    self.timeouts += 1
                else:
                    self.completed += 1
                    if reply.get("status") == "accepted":
                        self.accepted += 1
                        self.accepted_at.append(self.cluster.scheduler.now)
                    else:
                        self.rejected += 1
                if self.interval:
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

    def __str__(self) -> str:
        return (f"{self.accepted} accepted, {self.timeouts} timed out, "
                f"{self.rejected} failed of {self.attempts} reads")


def spans(cluster: Any) -> list[Span]:
    """Every span recorded so far (none when tracing is off)."""
    return [] if cluster.obs is None else cluster.obs.collector.spans()


def read_durations(cluster: Any, clients: set[str], start: float,
                   end: float) -> list[float]:
    """Durations of the *ended* ``client.read`` spans of ``clients``
    that started in [start, end] -- failed reads too, or an overloaded
    run would look healthy by timing only the reads that got through."""
    return [s.end - s.start for s in spans(cluster)
            if s.op == "client.read" and s.node in clients
            and s.end is not None and start <= s.start <= end]


# -- the vocabulary ------------------------------------------------------------
#
# A node reference is a value: a node id, ``Every(role)`` (master,
# auditor, slave, client, router, or trusted: masters and auditors),
# ``Assigned(client, role)`` (its master, auditor or first slave when
# the step runs) or ``Crashed()`` (what the last ``Crash`` took down);
# a key may be ``KeyOn(shard)``, the first of k0, k1, ... routed there.


@dataclass(frozen=True)
class Every:
    role: str


@dataclass(frozen=True)
class Assigned:
    client: str
    role: str


@dataclass(frozen=True)
class Crashed:
    pass


@dataclass(frozen=True)
class KeyOn:
    shard: str


Ref = Union[str, Every, Assigned, Crashed, tuple]
Key = Union[str, KeyOn]


class Outcome(NamedTuple):
    passed: bool
    detail: str
    values: tuple[float, ...] = ()  # one per timing reported


F = TypeVar("F", bound=Callable[..., Outcome])


def reports(*timings: str) -> Callable[[F], F]:
    """Name the timings a plain-function judgement reports."""
    def declare(judge: F) -> F:
        judge.timings = timings  # type: ignore[attr-defined]
        return judge
    return declare


# A judgement several scenarios make is a value; an analysis only one
# makes is a plain function of the run.  Either returns an ``Outcome``
# and names the timings it reports (``timings``).


@dataclass(frozen=True)
class Count:
    """Counter ``name`` reached ``at_least`` (from mark ``since``)."""

    name: str
    at_least: float = 1
    since: str | None = None

    def __call__(self, run: ScenarioRun) -> Outcome:
        value = run.cluster.metrics.count(self.name) - (
            run.marks[self.since][1].get(self.name, 0) if self.since else 0)
        return Outcome(value >= self.at_least, f"{self.name} {value:.0f} "
                       f"(at least {self.at_least:.0f})")


@dataclass(frozen=True)
class CaughtUp:
    """Every node ``node`` names holds the reference master's version."""

    node: Ref

    def __call__(self, run: ScenarioRun) -> Outcome:
        reference = reference_master(run.cluster).version
        versions = {n: run.node(n).version for n in run.ids(self.node)}
        return Outcome(all(v == reference for v in versions.values()),
                       f"versions {versions}, reference {reference}")


@dataclass(frozen=True)
class ReadsSurvived:
    """Load ``load`` had ``at_least`` reads accepted."""

    load: str = "load"
    at_least: int = 1

    def __call__(self, run: ScenarioRun) -> Outcome:
        load = run.loads[self.load]
        return Outcome(load.accepted >= self.at_least, f"{self.load}: {load}")


@dataclass(frozen=True)
class Rehomed:
    """Each client ``clients`` names is ready, its ``role`` (master or
    auditor) none of ``away_from``."""

    clients: Ref
    away_from: Ref
    role: str = "master"

    def __call__(self, run: ScenarioRun) -> Outcome:
        away = set(run.ids(self.away_from))
        stranded = [c for c in run.ids(self.clients) if not run.node(c).ready
                    or getattr(run.node(c), self.role + "_id") in away]
        return Outcome(not stranded, f"unready or on {sorted(away)}: "
                       f"{stranded or 'none'}")


@dataclass(frozen=True)
class MaxGap:
    """Load ``load`` went at most ``bound`` without an accepted read
    between marks ``start`` and ``end``; reports ``timings`` (the gap,
    the bound)."""

    load: str
    start: str
    end: str
    timings: tuple[str, ...]
    bound: float = math.inf

    def __call__(self, run: ScenarioRun) -> Outcome:
        gap = run.loads[self.load].max_gap(run.marks[self.start][0],
                                           run.marks[self.end][0])
        return Outcome(gap <= self.bound, f"longest gap between accepted "
                       f"reads of {self.load}: {gap:.2f}s (bound "
                       f"{self.bound:.2f}s)", (gap, self.bound))


@dataclass(frozen=True)
class ReadBack:
    """A read of ``key`` at ``level`` by each node ``by`` names is
    accepted with ``value``."""

    value: Any
    key: Key = "k"
    by: Ref = "client-01"
    level: str | None = None

    async def __call__(self, run: ScenarioRun) -> Outcome:
        replies = await asyncio.gather(*(run.cluster.read(
            run.node(n), KVGet(key=run.key(self.key)), self.level, 14.0)
            for n in run.ids(self.by)))
        seen = [(r["status"], (r.get("result") or {}).get("value"))
                for r in replies]
        return Outcome(all(s == ("accepted", self.value) for s in seen),
                       f"{self.level or 'plain'} reads: {seen}")


@dataclass(frozen=True)
class NoHandlerErrors:
    """No node's message handler raised."""

    def __call__(self, run: ScenarioRun) -> Outcome:
        errors = [f"{node} <- {src}: {exc!r}"
                  for node, src, exc in run.cluster.handler_errors()]
        return Outcome(not errors, f"handler errors: {errors or 'none'}")


# The steps.  ``Write`` writes ``value`` from every node ``by`` names
# (``{i}`` in the key becomes its index) and checks all committed; with
# ``check=None`` the writes are probes, left in flight and reaped with
# the run.  ``Mark`` keeps ``timing``, the seconds since mark ``since``,
# then takes mark ``name``: the instant and every counter.
# ``WaitUntil`` waits up to ``timeout`` for a judgement -- running out
# of time is not an error -- keeps ``timing`` (the seconds the wait
# took; inf if it never held) with ``bound`` beside it, and records
# ``check``: the judgement as the wait left it, within the bound.
# ``Check`` records a judgement (just its timings if ``name`` is None);
# a scenario's own may be a coroutine function that acts, then judges.
# ``Heal`` drops every partition and link profile; ``MoveShard`` checks
# a generation and map epoch on.


@dataclass(frozen=True)
class Write:
    check: str | None
    key: Key
    value: Any = "v"
    by: Ref = "client-00"
    timeout: float = 15.0


@dataclass(frozen=True)
class Settle:
    seconds: float


@dataclass(frozen=True)
class StartLoad:  # a ReadLoad on ``key`` from every node ``by`` names
    name: str
    key: Key = "k"
    by: Ref = Every("client")
    interval: float = 0.04
    concurrency: int = 1
    timeout: float = 8.0


@dataclass(frozen=True)
class StopLoad:
    name: str


@dataclass(frozen=True)
class Crash:
    node: Ref


@dataclass(frozen=True)
class Restart:
    node: Ref


@dataclass(frozen=True)
class Partition:  # cut ``node`` off from each of ``peers``
    node: Ref
    peers: Ref = Every("trusted")


@dataclass(frozen=True)
class Heal:
    pass


@dataclass(frozen=True)
class SetLinks:  # on each link between two groups, else the default
    faults: LinkFaults
    between: tuple[Ref, Ref] | None = None


@dataclass(frozen=True)
class MoveShard:
    shard: str
    timing: str
    check: str


@dataclass(frozen=True)
class Mark:
    name: str | None = None
    timing: str | None = None
    since: str | None = None


@dataclass(frozen=True)
class WaitUntil:
    until: Any
    timeout: float
    timing: str | None = None
    check: str | None = None
    bound: tuple[str, float] | None = None


@dataclass(frozen=True)
class Check:
    name: str | None
    judge: Any


STEPS = (Write, Settle, StartLoad, StopLoad, Crash, Restart, Partition,
         Heal, SetLinks, MoveShard, Mark, WaitUntil, Check)
Step = Union[Write, Settle, StartLoad, StopLoad, Crash, Restart, Partition,
             Heal, SetLinks, MoveShard, Mark, WaitUntil, Check]
#: A check on the last run's verdict against the first's, named by its
#: function: ``judge(reference, verdict) -> Outcome``.
Compare = Callable[[ScenarioVerdict, ScenarioVerdict], Outcome]


@dataclass(frozen=True)
class Scenario:
    """The schedule plays on each cast in turn; the last run's verdict,
    with the checks comparing it to the first's, is the scenario's."""

    name: str
    casts: tuple[NetDeploymentSpec, ...]
    schedule: tuple[Step, ...]
    checks: tuple[Compare, ...] = ()


# -- the interpreter -----------------------------------------------------------

_COUNTER_PREFIXES = ("chaos_", "net_drop_", "qos_", "router_", "shard_")
_COUNTER_NAMES = (
    "reads_accepted", "reads_failed", "writes_committed", "writes_failed",
    "exclusions", "slaves_adopted", "master_crash_noticed",
    "auditor_crash_noticed", "auditor_recovery_noticed",
    "clients_auditor_failover", "client_reassignments", "reads_tainted",
    "net_frames_rejected", "net_handler_errors", "net_frames_dropped",
    "net_timeouts", "immediate_detections", "client_rehomes")


class ScenarioRun:
    """One schedule in flight on one booted cast."""

    def __init__(self, name: str, cluster: LocalCluster,
                 plane: FaultPlane) -> None:
        self.name, self.cluster, self.plane = name, cluster, plane
        self.checks: list[CheckResult] = []
        self.timings: dict[str, float] = {}
        self.marks: dict[str, tuple[float, dict[str, float]]] = {}
        self.loads: dict[str, ReadLoad] = {}
        self.crashed: list[str] = []
        #: The probe writes (``Write(None, ...)``) still in flight.
        self.probes: "list[asyncio.Future[Any]]" = []

    def ids(self, ref: Ref) -> list[str]:
        match ref:
            case str():
                return [ref]
            case Crashed():
                return list(self.crashed)
            case Every("trusted"):
                return self.ids((Every("master"), Every("auditor")))
            case Every(role):
                return [n.node_id for n in getattr(self.cluster, role + "s")]
            case Assigned(client, "slave"):
                return [self.node(client).assigned_slaves[0]]
            case Assigned(client, role):
                return [getattr(self.node(client), role + "_id")]
            case tuple():
                return [node_id for part in ref for node_id in self.ids(part)]
        raise TypeError(f"not a node reference: {ref!r}")

    def node(self, node_id: str) -> Any:
        routers = {r.node_id: r for r in getattr(self.cluster, "routers", ())}
        return routers.get(node_id) or self.cluster.node(node_id)

    def key(self, key: Key) -> str:
        router = getattr(self.cluster, "routers", [None])[0]
        return key if isinstance(key, str) else next(
            k for k in (f"k{i}" for i in itertools.count())
            if router.shard_for(KVGet(key=k)) == key.shard)

    async def record(self, name: str | None, judge: Any,
                     within: bool = True) -> None:
        outcome = judge(self)
        passed, detail, values = await outcome \
            if inspect.isawaitable(outcome) else outcome
        self.timings.update(zip(getattr(judge, "timings", ()), values))
        if name is not None:
            self.checks.append(CheckResult(name, passed and within, detail))

    async def play(self, step: Step) -> None:
        cluster, plane = self.cluster, self.plane
        match step:
            case Write(check, key, value, by, timeout):
                writes = [cluster.write(self.node(n), KVPut(
                    key=self.key(key).format(i=i), value=value), timeout)
                    for i, n in enumerate(self.ids(by))]
                if check is None:
                    self.probes += map(asyncio.ensure_future, writes)
                    return
                statuses = [r["status"] for r in await asyncio.gather(*writes)]
                self.checks.append(CheckResult(check, all(
                    s == "committed" for s in statuses), f"writes: {statuses}"))
            case Settle(seconds):
                await asyncio.sleep(seconds)
            case StartLoad(name, key, by, interval, concurrency, timeout):
                self.loads[name] = ReadLoad(
                    cluster, KVGet(key=self.key(key)), interval, timeout,
                    [self.node(n) for n in self.ids(by)], concurrency)
                self.loads[name].start()
            case StopLoad(name):
                await self.loads[name].stop()
            case Crash(node):
                self.crashed = self.ids(node)
                for node_id in self.crashed:
                    await cluster.crash_node(node_id)
            case Restart(node):
                for node_id in self.ids(node):
                    await cluster.restart_node(node_id)
            case Partition(node, peers):
                for a, b in itertools.product(self.ids(node),
                                              self.ids(peers)):
                    if a != b:
                        plane.partition(a, b)
            case Heal():
                plane.reset()
            case SetLinks(faults, None):
                plane.set_default(faults)
            case SetLinks(faults, (left, right)):
                for a, b in itertools.product(self.ids(left),
                                              self.ids(right)):
                    plane.set_link(a, b, faults, symmetric=True)
            case MoveShard(shard, timing, check):
                assert isinstance(cluster, ShardedCluster)
                before = (cluster.shards[shard].generation, cluster.map_epoch)
                report = await Rebalancer(cluster).move_shard(shard)
                self.timings[timing] = report["slaves_resynced_at"]
                after = (cluster.shards[shard].generation, cluster.map_epoch)
                self.checks.append(CheckResult(check, after == (
                    before[0] + 1, before[1] + 1), f"{shard} (generation, "
                    f"map epoch) {before} -> {after}"))
            case Mark(name, timing, since):
                now = cluster.scheduler.now
                if timing is not None and since is not None:
                    self.timings[timing] = now - self.marks[since][0]
                if name is not None:
                    self.marks[name] = (now, cluster.metrics.snapshot())
            case WaitUntil(until, timeout, timing, check, bound):
                try:
                    took = await cluster.wait_for(
                        lambda: until(self).passed, timeout)
                except TimeoutError:
                    took = math.inf
                if timing is not None:
                    self.timings[timing] = took
                if bound is not None:
                    self.timings[bound[0]] = bound[1]
                await self.record(check, until,
                                  bound is None or took <= bound[1])
            case Check(name, judge):
                await self.record(name, judge)
            case _:
                raise TypeError(f"not a step of the vocabulary: {step!r}")

    async def verdict(self) -> ScenarioVerdict:
        """Drain (commits propagate, the audit queue clears), run the
        safety oracle and sum up."""
        cluster = self.cluster
        await self.play(Settle(cluster.config.max_latency
                               + cluster.config.audit_grace + 0.3))
        if isinstance(cluster, ShardedCluster):
            self.checks.extend(
                CheckResult(f"{shard_id}:{r.name}", r.passed, r.detail)
                for shard_id, results in
                run_shard_safety_checks(cluster).items() for r in results)
        else:
            self.checks.extend(run_safety_checks(cluster))
        return ScenarioVerdict(
            self.name, cluster.spec.seed,
            all(check.passed for check in self.checks), self.checks,
            {k: round(v, 4) for k, v in self.timings.items()},
            {k: v for k, v in sorted(cluster.metrics.snapshot().items())
             if k in _COUNTER_NAMES or k.startswith(_COUNTER_PREFIXES)})


async def run_once(name: str, cast: NetDeploymentSpec,
                   schedule: tuple[Step, ...]) -> ScenarioVerdict:
    """Play ``schedule`` on a fresh copy of ``cast`` booted on a fault
    plane seeded like it; stop its loads, reap its probe writes and
    close it however it ends."""
    cast = copy.deepcopy(cast)
    plane = FaultPlane(seed=cast.seed)
    cluster = await (ShardedCluster if isinstance(cast, ShardDeploymentSpec)
                     else LocalCluster).launch(cast, settle=0.8, plane=plane)
    run = ScenarioRun(name, cluster, plane)
    try:
        for step in schedule:
            await run.play(step)
        return await run.verdict()
    finally:
        for load in reversed(run.loads.values()):
            await load.stop()
        # Cancelling the awaiting task leaves the client's write alone:
        # a probe exists only to make its client re-home.
        await _cancel_all(run.probes)
        await cluster.aclose()


async def play_scenario(scenario: Scenario,
                        seed: int = 0) -> ScenarioVerdict:
    """The schedule on each cast, seeded ``seed``: the last run's
    verdict, the comparisons listed first."""
    verdicts = [await run_once(scenario.name, dataclasses.replace(
        cast, seed=seed), scenario.schedule) for cast in scenario.casts]
    reference, verdict = verdicts[0], verdicts[-1]
    compared = []
    for compare in scenario.checks:
        passed, detail, values = compare(reference, verdict)
        verdict.timings.update(zip(getattr(compare, "timings", ()),
                                   (round(v, 4) for v in values)))
        compared.append(CheckResult(compare.__name__, passed, detail))
    verdict.checks[:0] = compared
    verdict.passed = all(check.passed for check in verdict.checks)
    return verdict


# -- the catalog: Section 3.5's corrective actions over real sockets ----------


def _detecting_config(**overrides: Any) -> ProtocolConfig:
    """The config :data:`K_DETECT` is stated for: fast keep-alives,
    suspicion after six of them, no double-checks."""
    return fast_protocol_config(
        double_check_probability=0.0, keepalive_interval=KEEPALIVE,
        broadcast_heartbeat_interval=KEEPALIVE,
        broadcast_suspect_after=6 * KEEPALIVE, request_timeout=1.0,
        **overrides)


def _opening(config: ProtocolConfig) -> tuple[Step, ...]:
    """Key ``k`` committed and given time to reach the slaves."""
    return (Write("baseline_write", "k", "v0"),
            Settle(config.max_latency + config.keepalive_interval))


_CLOSING = (StopLoad("load"), Check("reads_survived", ReadsSurvived()))


def _homed_on(client: str, num_masters: int) -> int:
    """The master a client first homes to (client.py's rule)."""
    return int(sha1_hex(client)[:4], 16) % num_masters


def _since_crash(run: ScenarioRun, events: list[float]) -> float:
    t0 = run.marks["crash"][0]
    return min((at for at in events if at >= t0), default=math.inf) - t0


@reports("detection_latency", "detection_bound")
def _detected(run: ScenarioRun) -> Outcome:
    """A survivor acted (its detection timeline) within the bound."""
    line = run.cluster.metrics.timelines.get("master_crash_detections")
    latency = _since_crash(run, [at for at, _ in line.points] if line else [])
    return Outcome(latency <= BOUND, f"first survivor acted {latency:.2f}s "
                   f"after the crash (bound {BOUND:.2f}s = {K_DETECT} x "
                   f"keepalive)", (latency, BOUND))


@reports("takeover_span_latency")
def _takeover_span(run: ScenarioRun) -> Outcome:
    """The same bound, observed independently through repro.obs."""
    latency = _since_crash(run, [s.start for s in spans(run.cluster)
                                 if s.op == "master.takeover"])
    return Outcome(latency <= BOUND, f"first master.takeover span "
                   f"{latency:.2f}s after the crash", (latency,))


# net_demo: no fault at all.  One write, a plain and a sensitive read of
# it, the audit of their pledges -- the protocol's whole cycle over real
# sockets -- and one write from a client the owner does not allow.
_ND = fast_protocol_config(double_check_probability=0.0,
                           writers_allowed=frozenset({"client-00"}))


async def _unauthorised_write(run: ScenarioRun) -> Outcome:
    reply = await run.cluster.write(run.node("client-01"), KVPut(
        key="demo", value="unauthorised"))
    return Outcome(reply["status"] == "rejected", f"client-01's write: "
                   f"{reply['status']} ({reply.get('reason')})")


NET_DEMO = Scenario("net_demo", (NetDeploymentSpec(
    num_masters=2, slaves_per_master=2, num_clients=2, protocol=_ND),), (
    Write("write_committed", "demo", "over-the-wire"),
    Check("unauthorised_write_rejected", _unauthorised_write),
    # Reads reflect a write max_latency after its commit.
    Settle(_ND.max_latency + _ND.keepalive_interval),
    Check("read_accepted", ReadBack("over-the-wire", "demo")),
    Check("sensitive_read_accepted", ReadBack(
        "over-the-wire", "demo", level="sensitive")),
    # The auditor lets the consistency window pass, then drains.
    Settle(_ND.max_latency + _ND.audit_grace + 0.5),
    Check("pledges_audited", Count("pledges_audited")),
    Check("no_handler_errors", NoHandlerErrors())))

# master_crash: survivors detect a crashed follower within the keep-alive
# bound, divide its slave set and re-home its clients; the restart
# rejoins and catches up.
_MC = _detecting_config(max_read_retries=3)
#: The clients the victim serves when it crashes.
_STRANDED = tuple(c for c in (f"client-{i:02d}" for i in range(4))
                  if _homed_on(c, 3) == 1)
MASTER_CRASH = Scenario("master_crash", (NetDeploymentSpec(
    num_masters=3, slaves_per_master=2, num_clients=4, protocol=_MC,
    obs_enabled=True),), (
    *_opening(_MC), StartLoad("load"), Settle(0.5),
    Mark("crash"), Crash("master-01"),
    WaitUntil(_detected, 3 * BOUND, check="detection_within_bound"),
    Check("takeover_span_within_bound", _takeover_span),
    WaitUntil(Count("slaves_adopted", 2), 2 * BOUND,
              check="slave_set_divided"),
    Mark(timing="slave_adoption", since="crash"),
    # A write from each of them times out and re-homes its client:
    # Section 3.5's re-setup.
    Write(None, "re{i}", "x", by=_STRANDED, timeout=14.0),
    WaitUntil(Rehomed(Every("client"), "master-01"), 12.0,
              check="clients_reassigned"),
    Write("post_crash_write", "k", "v1", timeout=14.0),
    Mark("restart"), Restart("master-01"),
    WaitUntil(CaughtUp("master-01"), 10.0, timing="rejoin_catchup",
              check="restart_rejoined"), *_CLOSING,
    Check(None, MaxGap("load", "crash", "restart", ("read_unavailability",)))))

# partition_heal: both slaves of client-00's master lie and every client
# double-checks every read, so each lie is an accusation at once.  The
# target, another follower, is cut from every trusted member, so the
# exclusions cannot reach it; healed, it repairs what it missed.
_LIAR = _homed_on("client-00", 3)
_LIARS = {f"slave-{_LIAR:02d}-{j:02d}" for j in range(2)}
_TARGET = [f"master-{m:02d}" for m in (1, 2) if m != _LIAR][-1]
_PH = fast_protocol_config(double_check_probability=0.05,
                           request_timeout=1.0, max_read_retries=3)


def _missed(run: ScenarioRun) -> Outcome:
    own, reference = (run.node(_TARGET).version,
                      reference_master(run.cluster).version)
    return Outcome(own < reference, f"{_TARGET} at version {own} vs "
                   f"majority {reference} just before the heal")


def _learned(run: ScenarioRun) -> Outcome:
    learned = _LIARS & run.node(_TARGET).excluded_slaves
    return Outcome(learned == _LIARS, f"{_TARGET} learned {len(learned)}/2 "
                   f"exclusions after the heal")


def _repaired(run: ScenarioRun) -> Outcome:
    return Outcome(_learned(run).passed and CaughtUp(_TARGET)(run).passed, "")


PARTITION_HEAL = Scenario("partition_heal", (NetDeploymentSpec(
    num_masters=3, slaves_per_master=2, num_clients=3, protocol=_PH,
    adversaries={2 * _LIAR + j: AlwaysLie() for j in range(2)},
    client_double_check_overrides={i: 1.0 for i in range(3)}),), (
    *_opening(_PH), Mark("partition"), Partition(_TARGET), StartLoad("load"),
    WaitUntil(Count("exclusions", 2), 12.0, timing="exclusions_done",
              check="liars_excluded_during_partition"),
    # Held past the suspicion window, the target -- leaderless in its
    # minority -- provably misses the majority's commit.
    Write("write_during_partition", "k", "mid", timeout=14.0),
    Settle(2 * _PH.broadcast_suspect_after),
    Check("target_missed_partition_history", _missed),
    Mark("heal", timing="partition_window", since="partition"), Heal(),
    WaitUntil(_repaired, 12.0, timing="heal_catchup"),
    Check("accusations_propagated_through_heal", _learned),
    Check("partitioned_master_caught_up", CaughtUp(_TARGET)),
    Write("post_heal_write", "k", "v1", timeout=14.0),
    Mark(timing="heal_to_write", since="heal"), *_CLOSING))

# corrupt_frames: benign asynchrony everywhere, byte corruption on the
# untrusted client<->slave edges only (the paper assumes secure channels
# between trusted principals); forged bytes never become accepted reads.
_CF = fast_protocol_config(double_check_probability=0.1,
                           request_timeout=1.0, max_read_retries=4)
_ASYNC = LinkFaults(drop=0.03, duplicate=0.05, reorder=0.05, delay=0.002,
                    delay_jitter=0.004)


CORRUPT_FRAMES = Scenario("corrupt_frames", (NetDeploymentSpec(
    num_masters=2, slaves_per_master=2, num_clients=2, protocol=_CF),), (
    *_opening(_CF), SetLinks(_ASYNC), SetLinks(dataclasses.replace(
        _ASYNC, corrupt=0.15), (Every("slave"), Every("client"))),
    Mark("chaos"), StartLoad("load"), Settle(5.0),
    Write("write_under_corruption", "k", "v1", timeout=14.0), Settle(1.0),
    Mark(timing="corruption_window", since="chaos"), Heal(), StopLoad("load"),
    Check("frames_actually_corrupted", Count("chaos_corrupted_frames", 5)),
    Check("reads_survived", ReadsSurvived(at_least=10)),
    # A clean read once the faults are lifted proves liveness.
    Settle(_CF.max_latency + _CF.keepalive_interval),
    Check("post_chaos_read", ReadBack("v1"))))

# auditor_failover: crash the auditor client-00 reports to; the masters
# fail its clients over to the survivor, pledges keep flowing to it, and
# the restarted auditor rejoins.
_AF = _detecting_config()  # every read goes the audit path
AUDITOR_FAILOVER = Scenario("auditor_failover", (NetDeploymentSpec(
    num_masters=2, slaves_per_master=2, num_clients=4, num_auditors=2,
    protocol=_AF),), (
    *_opening(_AF), StartLoad("load"), Settle(0.5),
    Mark("crash"), Crash(Assigned("client-00", "auditor")),
    WaitUntil(Count("auditor_crash_noticed"), 3 * BOUND,
              timing="detection_latency", bound=("detection_bound", BOUND)),
    Check("auditor_crash_detected", Count("auditor_crash_noticed")),
    WaitUntil(Rehomed(Every("client"), Crashed(), "auditor"), 10.0,
              timing="failover_done", check="clients_failed_over"),
    Mark("flowing"), Settle(1.5),
    Check("pledges_keep_flowing", Count("pledges_forwarded",
                                        since="flowing")),
    Restart(Crashed()),
    WaitUntil(Count("auditor_recovery_noticed"), 10.0,
              timing="rejoin_noticed", check="auditor_rejoined"),
    Mark(timing="fault_window", since="crash"), *_CLOSING))

# slave_crash: crash a slave serving client-00 and write while it is
# down; clients ride through on retries, the restart resyncs the gap.
_SC = fast_protocol_config(double_check_probability=0.05,
                           request_timeout=1.0, max_read_retries=4)
SLAVE_CRASH = Scenario("slave_crash", (NetDeploymentSpec(
    num_masters=2, slaves_per_master=2, num_clients=2, protocol=_SC),), (
    *_opening(_SC), StartLoad("load"), Settle(0.5),
    Mark("crash"), Crash(Assigned("client-00", "slave")),
    Write("write_during_outage", "k", "v1", timeout=14.0), Settle(2.0),
    Restart(Crashed()), Mark(timing="outage", since="crash"),
    WaitUntil(CaughtUp(Crashed()), 10.0, timing="resync",
              check="slave_resynced"), *_CLOSING))


# -- flash_crowd: a greedy burst against admission control (repro.qos) ------

HONEST = ("client-00", "client-01")
GREEDY = tuple(f"client-{i:02d}" for i in range(2, 8))


def _percentile(durations: list[float], fraction: float) -> float:
    """Nearest-rank percentile (inf when empty)."""
    ordered = sorted(durations) or [math.inf]
    return ordered[max(0, math.ceil(fraction * len(durations)) - 1)]


def _honest(run: ScenarioRun, start: str, end: str) -> list[float]:
    return read_durations(run.cluster, set(HONEST), run.marks[start][0],
                          run.marks[end][0])


@reports("baseline_p99")
def _baseline(run: ScenarioRun) -> Outcome:
    """The honest trickle alone: what the burst costs on this host."""
    return Outcome(True, "", (_percentile(
        _honest(run, "baseline", "baseline_end"), 0.99),))


@reports("honest_sheds_in_burst", "burst_window", "burst_p50", "burst_p99")
def _burst(run: ScenarioRun) -> Outcome:
    (t0, before), (t1, after) = run.marks["burst"], run.marks["burst_end"]
    sheds = sum(after.get(f"qos_shed_from_{c}", 0.0)
                - before.get(f"qos_shed_from_{c}", 0.0) for c in HONEST)
    durations = _honest(run, "burst", "burst_end")
    return Outcome(True, "", (sheds, t1 - t0, _percentile(durations, 0.5),
                              _percentile(durations, 0.99)))


@reports("worst_keepalive_gap")
def _keepalives(run: ScenarioRun) -> Outcome:
    """Keep-alives are never shed, judged by what admission control
    answers for.  By count: every round a master sent
    (``keepalive_tx@master``) arrived at each of its slaves
    (``keepalive_rx@slave``; one sent at the window's edge may land
    outside it).  By time: a slave's arrival gap against its master's
    send gap *in the same process*, so an interpreter stalled by the
    host widens both and is not booked to repro.qos; the wall-clock gap
    is reported, not judged.  (``qos_shed_from_master-*`` says nothing
    here: a protected frame is never counted shed, and the counter is
    nonzero for double-check replies the crowd's listeners refuse.)"""
    start, end = run.marks["burst"][0], run.marks["burst_end"][0]
    max_latency = run.cluster.config.max_latency

    def window(name: str) -> tuple[int, float]:
        line = run.cluster.metrics.timelines.get(name)
        edges = [start, *sorted(at for at, _ in (line.points if line else ())
                                if start <= at <= end), end]
        return len(edges) - 2, max(b - a for a, b in zip(edges, edges[1:]))

    worst, held_back = (0.0, "-"), []
    for master in run.cluster.masters:
        sent, tx_gap = window(f"keepalive_tx@{master.node_id}")
        for slave_id in master.slaves:
            arrived, rx_gap = window(f"keepalive_rx@{slave_id}")
            worst = max(worst, (rx_gap, slave_id))
            if arrived < sent - 1 or rx_gap > tx_gap + max_latency / 2:
                held_back.append(f"{slave_id}: {arrived} of {sent} rounds, "
                                 f"gap {rx_gap:.2f}s vs {tx_gap:.2f}s")
    return Outcome(not held_back, f"keep-alives lost or held back: "
                   f"{held_back or 'none'}; worst arrival gap {worst[0]:.2f}s"
                   f" (at {worst[1]}) against max_latency {max_latency}s",
                   (worst[0],))


def _sheds_attributed(run: ScenarioRun) -> Outcome:
    counters = run.cluster.metrics.snapshot()
    total = counters.get("qos_shed_total", 0.0)
    by_client = sum(v for k, v in counters.items()
                    if k.startswith("qos_shed_from_"))
    by_reason = sum(v for k, v in counters.items() if k.startswith(
        "qos_shed_") and k != "qos_shed_total") - by_client
    return Outcome(total == by_reason == by_client, f"qos_shed_total "
                   f"{total:.0f} == by-reason {by_reason:.0f} == by-client "
                   f"{by_client:.0f}")


#: ``honest_p99_slo`` detects ONE thing: admission control shedding
#: honest traffic, judged by count (no honest principal's frame shed in
#: the burst window).  The protected burst's honest read p99 against
#: this multiple of the unprotected one's (``timings["slo"]``) is only
#: *reported*: a p99 over one burst's 50-120 honest reads is nearly
#: their maximum, and the unprotected one swings 0.08-2.0 s between
#: identical runs, so as the judgement it went red with nothing shed and
#: would have passed a shed read (docs/ROBUSTNESS.md, "flash_crowd's
#: honest judgement").  That admission control *helps* is
#: ``honest_median_protected``'s claim, on the statistic one burst can
#: resolve.
P99_RATIO_BOUND = 3.0


@reports("unprotected_burst_p50", "unprotected_burst_p99", "slo")
def honest_p99_slo(reference: ScenarioVerdict,
                   verdict: ScenarioVerdict) -> Outcome:
    ref, own = reference.timings, verdict.timings
    sheds, slo = own["honest_sheds_in_burst"], round(
        P99_RATIO_BOUND * ref["burst_p99"], 4)
    return Outcome(sheds == 0, f"{sheds:.0f} honest frames shed during the "
                   f"burst; reported: honest read p99 {own['burst_p99']:.3f}s"
                   f" with admission control vs {ref['burst_p99']:.3f}s "
                   f"without ({P99_RATIO_BOUND}x = {slo:.3f}s)",
                   (ref["burst_p50"], ref["burst_p99"], slo))


def honest_median_protected(reference: ScenarioVerdict,
                            verdict: ScenarioVerdict) -> Outcome:
    own, ref = verdict.timings["burst_p50"], reference.timings["burst_p50"]
    return Outcome(own < ref, f"honest read p50 {own:.3f}s with admission "
                   f"control vs {ref:.3f}s without")


def reference_unprotected(reference: ScenarioVerdict,
                          verdict: ScenarioVerdict) -> Outcome:
    return Outcome(reference.counters.get("qos_shed_total", 0) == 0,
                   "the reference burst ran with no frame shed")


# Honest clients never double-check (their latency is pure read path),
# the crowd always does (it hits masters too), and the Section 3.3
# greedy throttle is off, so the burst reaches the wire.
_FC = fast_protocol_config(
    keepalive_interval=KEEPALIVE, double_check_probability=0.0,
    request_timeout=1.25, max_read_retries=2,
    greedy_allowance_rate=100_000.0, greedy_drop_fraction=0.0)


def _flash_cast(qos: bool) -> NetDeploymentSpec:
    # With admission control: honest clients need well under 40 frames/s
    # per listener, the crowd's closed loop hundreds.  The burst
    # allowance is small so the crowd cannot ride refills, and each shed
    # frame burns a token, so the crowd -- never backing off -- is
    # served below its quota: held *to* 15/s at each of three
    # listeners, six principals would still get a full core's worth.
    limits = dict(qos_frame_rate=15.0, qos_frame_burst=20.0,
                  qos_idle_multiple=10.0) if qos else {}
    return NetDeploymentSpec(
        num_masters=2, slaves_per_master=2, num_clients=8, obs_enabled=True,
        client_double_check_overrides={i: 1.0 for i in range(2, 8)},
        protocol=dataclasses.replace(_FC, **limits))


async def _bulk_write(run: ScenarioRun) -> Outcome:
    """The crowd's 1 MiB target: each greedy read costs the slave a real
    encode + SHA-1 (its master the double-check), so the burst
    saturates the CPU.  Built per run: importing the catalog -- every
    importer of ``repro.chaos`` does -- allocates nothing of its size."""
    reply = await run.cluster.write(run.node("client-00"), KVPut(
        key="bulk", value="x" * (1 << 20)), 15.0)
    return Outcome(reply["status"] == "committed",
                   f"writes: {[reply['status']]}")


# flash_crowd: the identical burst runs twice, back to back, without
# admission control (the reference) and with it.  The verdict is the
# protected run's -- keep-alives never held back, every shed frame
# attributed, the oracle -- plus two judgements on honest traffic that
# hold on a fast box and a slow one alike: no honest frame shed (the p99
# ratio reported beside it) and the median strictly below the
# reference's (measured ratios 0.002-0.02; the protected median, 1.3-1.8
# ms, is an idle cluster's).
FLASH_CROWD = Scenario(
    "flash_crowd", (_flash_cast(qos=False), _flash_cast(qos=True)), (
        Write("baseline_write", "k", "v0"), Check("bulk_write", _bulk_write),
        Settle(_FC.max_latency + KEEPALIVE),
        StartLoad("honest", by=HONEST, interval=0.1),  # inside the budget
        Mark("baseline"), Settle(2.0), Mark("baseline_end"),
        Check(None, _baseline),
        # 6 clients x 48 closed loops: ~288 reads in flight saturate one
        # core, yet the backlog drains in bounded wall-clock time.
        StartLoad("crowd", "bulk", by=GREEDY, interval=0.0, concurrency=48,
                  timeout=6.0),
        # Steady state first: the ramp's half-filled pipelines would
        # dilute the burst percentiles.
        Settle(0.5), Mark("burst"), Settle(6.0), Mark("burst_end"),
        StopLoad("crowd"), StopLoad("honest"), Check(None, _burst),
        Check("keepalives_never_missed", _keepalives),
        Check("sheds_happened", Count("qos_shed_total")),
        Check("sheds_attributed", _sheds_attributed),
        Check("reads_survived", ReadsSurvived("honest"))),
    (honest_p99_slo, honest_median_protected, reference_unprotected))


# shard_rebalance: move s00 (k0 routes there: routing is a function of
# the key and the map seed) to a new master group under live router
# load.  Freeze, snapshot, certify and republish lose no committed write
# (the per-shard oracle); the legs re-home through WrongShard redirects
# within the detection bound; the bystander s01 never blips.
_SR = _detecting_config(max_read_retries=4)
_GAP_BOUND = BOUND + _SR.request_timeout


@reports("rebalance_span")
def _rebalance_span(run: ScenarioRun) -> Outcome:
    """Unavailability as the trace sees it: the rebalance span."""
    found = [s.end - s.start for s in spans(run.cluster)
             if s.op == "shard.rebalance" and s.end is not None]
    window = max(found, default=math.inf)
    return Outcome(window <= _GAP_BOUND, f"shard.rebalance span covered "
                   f"{window:.2f}s ({len(found)} span(s))", (window,))


def _legs_rehomed(run: ScenarioRun) -> Outcome:
    """Every leg of s00 is ready on a master of s00's group as it stands
    now -- after the move, the new generation's."""
    shard = run.cluster.shards["s00"]
    onto = {m.node_id for m in shard.masters}
    stranded = [leg.node_id for leg in shard.clients
                if not leg.ready or leg.master_id not in onto]
    return Outcome(not stranded, f"{len(shard.clients)} legs onto "
                   f"{sorted(onto)}; stranded: {stranded or 'none'}")


SHARD_REBALANCE = Scenario("shard_rebalance", (ShardDeploymentSpec(
    num_masters=2, slaves_per_master=1, num_clients=2, num_auditors=1,
    num_shards=2, num_hosts=2, protocol=_SR, obs_enabled=True),), (
    Write("baseline_write_s00", KeyOn("s00"), "v0", by="router-00"),
    Write("baseline_write_s01", KeyOn("s01"), "v0", by="router-00"),
    Settle(_SR.max_latency + KEEPALIVE),
    StartLoad("load", KeyOn("s00"), by=Every("router")),
    StartLoad("calm", KeyOn("s01"), by=Every("router")), Settle(0.5),
    Mark("move"), MoveShard("s00", "slaves_resynced",
                            "new_generation_installed"),
    WaitUntil(_legs_rehomed, 3 * BOUND,
              timing="rehome_latency", bound=("rehome_bound", BOUND),
              check="clients_rehomed_within_bound"),
    Check("rehome_was_redirect_driven", Count("router_wrong_shard")),
    Write("post_move_write", KeyOn("s00"), "v1", by="router-00",
          timeout=14.0),
    Settle(_SR.max_latency + KEEPALIVE), Mark("end"),
    StopLoad("load"), StopLoad("calm"),
    Check("unavailability_bounded", MaxGap("load", "move", "end", (
        "read_unavailability", "read_unavailability_bound"), _GAP_BOUND)),
    Check("bystander_shard_unaffected", MaxGap(
        "calm", "move", "end", ("bystander_max_gap",), _GAP_BOUND / 2)),
    Check("rebalance_span_recorded", _rebalance_span),
    Check("no_handler_errors", NoHandlerErrors())))


# -- registry and runners --------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {scenario.name: scenario for scenario in (
    NET_DEMO, MASTER_CRASH, PARTITION_HEAL, CORRUPT_FRAMES, AUDITOR_FAILOVER,
    SLAVE_CRASH, FLASH_CROWD, SHARD_REBALANCE)}

#: Hard wall-clock ceiling per scenario.  Normal runs finish in well
#: under 20s; the ceiling turns a wedged wait into a named failure
#: instead of a hung test run (``run_once`` still tears down).
SCENARIO_DEADLINE = 120.0


async def run_scenario(name: str, seed: int = 0) -> ScenarioVerdict:
    """Run one named scenario; raises ``KeyError`` for unknown names."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {sorted(SCENARIOS)}")
    try:
        return await asyncio.wait_for(play_scenario(SCENARIOS[name], seed),
                                      SCENARIO_DEADLINE)
    except asyncio.TimeoutError:
        raise TimeoutError(
            f"scenario {name!r} (seed {seed}) exceeded the "
            f"{SCENARIO_DEADLINE:.0f}s deadline") from None


def run_scenario_sync(name: str, seed: int = 0) -> ScenarioVerdict:
    """Synchronous wrapper for the CLI and tests."""
    return asyncio.run(run_scenario(name, seed))

