"""The chaos scenarios as values, read without a socket.

``tests/test_chaos_scenarios.py`` plays every scenario over real sockets
(marker ``chaos``, its own CI step) and holds each verdict to
``tests/data/chaos_verdict_shape.json``.  This reads the same shape off
the values -- their check names, their timing names and the oracle's --
so a schedule edit that moves a verdict fails in the fast step.  It
also checks that every node reference names something its cast boots,
that the step vocabulary is closed and every word of it used, and that
the interpreter is the only code outside the benchmark harness that
launches a cluster.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import json
import pathlib
from types import SimpleNamespace
from typing import Any, Iterator

import pytest

from repro.chaos import scenarios as chaos
from repro.chaos.invariants import run_safety_checks
from repro.content.kvstore import KVGet
from repro.core.system import auditor_node_id
from repro.metrics.registry import MetricsRegistry
from repro.net.deploy import NetDeploymentSpec, fast_protocol_config
from repro.shard.deploy import ShardDeploymentSpec
from repro.shard.wire import tenant_id

from .conftest import make_system

VERDICT_SHAPE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "chaos_verdict_shape.json")
    .read_text())


def shard_ids(cast: NetDeploymentSpec) -> list[str]:
    return [f"s{s:02d}" for s in range(getattr(cast, "num_shards", 0))]


def node_ids(cast: NetDeploymentSpec) -> set[str]:
    """Every node id the cast boots: the cast builder's names, qualified
    per shard on a sharded cast, plus its routers and hosts."""
    masters = range(cast.num_masters)
    base = {f"master-{m:02d}" for m in masters} \
        | {auditor_node_id(a) for a in range(cast.num_auditors)} \
        | {f"slave-{m:02d}-{s:02d}" for m in masters
           for s in range(cast.slaves_per_master)} \
        | {f"client-{c:02d}" for c in range(cast.num_clients)}
    if not isinstance(cast, ShardDeploymentSpec):
        return base
    return {tenant_id(shard, node) for shard in shard_ids(cast)
            for node in base} \
        | {f"router-{c:02d}" for c in range(cast.num_clients)} \
        | {f"host-{h:02d}" for h in range(cast.num_hosts)}


def oracle(cast: NetDeploymentSpec) -> list[str]:
    """The safety oracle's check names, once per shard on a sharded
    cast (a simulator deployment is a cluster the oracle reads too)."""
    names = [check.name for check in run_safety_checks(make_system())]
    if not isinstance(cast, ShardDeploymentSpec):
        return names
    return [f"{shard}:{name}" for shard in shard_ids(cast) for name in names]


def shape(scenario: chaos.Scenario) -> tuple[list[str], list[str]]:
    """(check names, timing names) of the scenario's passing verdict, in
    the order the interpreter records them."""
    checks = [compare.__name__ for compare in scenario.checks]
    timings: list[str] = []
    for step in scenario.schedule:
        match step:
            case chaos.Write(check=str() as name):
                checks.append(name)
            case chaos.Mark(timing=str() as timing):
                timings.append(timing)
            case chaos.WaitUntil(until=judge, timing=timing, bound=bound,
                                 check=name):
                timings += [t for t in (timing, bound and bound[0]) if t]
                timings += getattr(judge, "timings", ())
                checks += [name] if name else []
            case chaos.Check(name=name, judge=judge):
                timings += getattr(judge, "timings", ())
                checks += [name] if name else []
    for compare in scenario.checks:
        timings += getattr(compare, "timings", ())
    return checks + oracle(scenario.casts[-1]), timings


def references(value: Any) -> Iterator[Any]:
    """The node and key references a step or judgement holds: every
    value of a field annotated ``Ref`` (tuples flattened) or ``Key``,
    searched into nested judgements."""
    for f in dataclasses.fields(value):
        item = getattr(value, f.name)
        if "Ref" in str(f.type):
            stack = [item]
            while stack:
                ref = stack.pop()
                if isinstance(ref, tuple):
                    stack.extend(ref)
                elif ref is not None:
                    yield ref
        elif f.type == "Key" and isinstance(item, chaos.KeyOn):
            yield item
        elif dataclasses.is_dataclass(item):
            yield from references(item)


def resolves(ref: Any, cast: NetDeploymentSpec, crashed: bool) -> bool:
    known = node_ids(cast)
    match ref:
        case str():
            return ref in known
        case chaos.Every(role):
            return role in ("master", "auditor", "slave", "client",
                            "trusted") or (role == "router" and bool(
                                shard_ids(cast)))
        case chaos.Assigned(client, role):
            return client in known and role in ("master", "auditor",
                                                "slave")
        case chaos.Crashed():
            return crashed
        case chaos.KeyOn(shard):
            return shard in shard_ids(cast)
    return False


@pytest.mark.parametrize("name", sorted(chaos.SCENARIOS))
def test_verdict_shape_read_off_the_value(name):
    checks, timings = shape(chaos.SCENARIOS[name])
    assert checks == VERDICT_SHAPE[name]["checks"]
    assert timings == VERDICT_SHAPE[name]["timings"]


@pytest.mark.parametrize("name", sorted(chaos.SCENARIOS))
def test_every_reference_resolves_against_the_cast(name):
    scenario = chaos.SCENARIOS[name]
    for cast in scenario.casts:
        crashed = False
        for step in scenario.schedule:
            unresolved = [ref for ref in references(step)
                          if not resolves(ref, cast, crashed)]
            assert unresolved == [], f"{step!r} in {name}"
            crashed = crashed or isinstance(step, chaos.Crash)


def test_the_reference_check_is_not_vacuous():
    cast = chaos.SCENARIOS["master_crash"].casts[0]
    found = list(references(chaos.WaitUntil(
        chaos.Rehomed(chaos.Every("client"), ("master-01", "master-09")),
        1.0)))
    assert found[0] == chaos.Every("client")
    assert sorted(map(str, found[1:])) == ["master-01", "master-09"]
    assert not resolves("master-09", cast, crashed=False)
    assert not resolves(chaos.Crashed(), cast, crashed=False)
    assert not resolves(chaos.KeyOn("s00"), cast, crashed=False)
    assert not resolves(chaos.Every("router"), cast, crashed=False)


def test_master_crash_probes_exactly_the_clients_its_victim_serves():
    # The simulator runs client.py's homing on the same ids and masters.
    system = make_system(num_masters=3, num_clients=4)
    system.start()
    system.run_for(5.0)
    homed = {c.node_id for c in system.clients if c.master_id == "master-01"}
    assert homed and homed == set(chaos._STRANDED)


def test_a_leg_is_rehomed_only_onto_its_own_shards_new_group():
    def rehomed(*legs: tuple[str, bool]) -> bool:
        shard = SimpleNamespace(
            masters=[SimpleNamespace(node_id=f"s00:g1:master-{m:02d}")
                     for m in range(2)],
            clients=[SimpleNamespace(node_id=f"s00:client-{i:02d}",
                                     master_id=master, ready=ready)
                     for i, (master, ready) in enumerate(legs)])
        run = SimpleNamespace(cluster=SimpleNamespace(shards={"s00": shard}))
        return chaos._legs_rehomed(run).passed

    assert rehomed(("s00:g1:master-00", True), ("s00:g1:master-01", True))
    assert not rehomed(("s00:g1:master-00", True), ("s01:master-00", True))
    assert not rehomed(("s00:g1:master-00", True), ("s00:master-01", True))
    assert not rehomed(("s00:g1:master-00", False))


def test_the_vocabulary_is_closed_and_every_step_type_used():
    used = {type(step) for scenario in chaos.SCENARIOS.values()
            for step in scenario.schedule}
    assert used == set(chaos.STEPS)
    assert all(dataclasses.is_dataclass(step) and step.__dataclass_params__
               .frozen for step in chaos.STEPS)


class HeldReads:
    """An operation sink that holds every operation and its completion
    callback."""

    def __init__(self) -> None:
        self.ops: list[Any] = []
        self.pending: list[Any] = []

    def submit(self, op, level=None, callback=None) -> None:
        self.ops.append(op)
        self.pending.append(callback)


def test_a_probe_write_is_a_submit_nothing_awaits():
    sinks = {"client-00": HeldReads(), "client-01": HeldReads()}
    run = chaos.ScenarioRun("probe", SimpleNamespace(node=sinks.get), None)
    asyncio.run(run.play(chaos.Write(None, "re{i}", "x", by=tuple(sinks))))
    assert [(s.ops[0].key, s.pending) for s in sinks.values()] == \
        [("re0", [None]), ("re1", [None])]
    assert run.checks == []


@pytest.mark.parametrize("moved", [True, False])
def test_the_move_is_judged_one_generation_and_epoch_on(monkeypatch, moved):
    cluster = SimpleNamespace(shards={"s00": SimpleNamespace(generation=3)},
                              map_epoch=7)

    class Rebalancer:
        def __init__(self, target):
            assert target is cluster

        async def move_shard(self, shard_id):
            cluster.shards[shard_id].generation += moved
            cluster.map_epoch += 1
            return {"slaves_resynced_at": 1.25}

    monkeypatch.setattr(chaos, "Rebalancer", Rebalancer)
    outcome = asyncio.run(chaos._move_s00(SimpleNamespace(cluster=cluster)))
    assert outcome.passed is moved and outcome.values == (1.25,)
    assert f"(3, 7) -> ({3 + moved}, 8)" in outcome.detail


def test_a_stopped_load_issues_and_counts_nothing_more():
    async def scenario():
        sink = HeldReads()
        cluster = SimpleNamespace(scheduler=SimpleNamespace(now=3.0))
        chain = chaos.ReadLoad(cluster, KVGet(key="k"), 0.0, [sink, sink])
        chain.start()
        sink.pending.pop(0)({"status": "accepted"})  # issues the next
        assert (chain.attempts, chain.accepted, len(sink.pending)) == \
            (3, 1, 2)
        paced = chaos.ReadLoad(cluster, KVGet(key="k"), 0.01, [sink])
        paced.start()
        sink.pending.pop()({"status": "failed"})  # next due in 0.01 s
        chain.stop()
        paced.stop()
        for done in sink.pending:
            done({"status": "accepted"})
        await asyncio.sleep(0.05)
        assert (chain.attempts, chain.accepted, chain.rejected) == (3, 1, 0)
        assert (paced.attempts, paced.accepted, paced.rejected) == (1, 0, 1)
        assert len(sink.pending) == 2 and chain.accepted_at == [3.0]

    asyncio.run(scenario())


def test_detection_is_judged_against_the_runs_own_keepalive():
    # A survivor acted 1.5 s after the crash, at 0.1 s keep-alives.
    metrics = MetricsRegistry()
    metrics.record("master_crash_detections", 11.5, 1.0)
    run = SimpleNamespace(marks={"crash": (10.0, {})}, cluster=SimpleNamespace(
        metrics=metrics, config=fast_protocol_config(keepalive_interval=0.1)))
    passed, _detail, (latency, bound) = chaos._detected(run)
    assert latency == pytest.approx(1.5)
    assert bound == 1.0 and not passed


ROOT = pathlib.Path(__file__).resolve().parent.parent
CLUSTERS = {"LocalCluster", "ShardedCluster"}


def launches(source: str) -> list[int]:
    """Lines of the calls ``<expr>.launch(...)`` whose receiver names a
    cluster class; a mention in a string or comment is no call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "launch"
            and CLUSTERS & {name.id for name in ast.walk(node.func.value)
                            if isinstance(name, ast.Name)})


def test_launches_finds_calls_not_mentions():
    assert launches('"""LocalCluster.launch(spec)"""\n'
                    "# ShardedCluster.launch(spec)\n"
                    "plane.launch(spec)\n"
                    "await LocalCluster.launch(spec)\n"
                    "(ShardedCluster if s else LocalCluster).launch(s)\n") \
        == [4, 5]


def test_run_once_is_the_only_cluster_launch():
    """Every live run outside the benchmark harness is a scenario value
    played by ``run_once``, so the one oracle judges it."""
    files = [*(ROOT / "src" / "repro").rglob("*.py"),
             *(path for path in (ROOT / "benchmarks").rglob("*.py")
               if "harness" not in path.relative_to(ROOT).parts)]
    found = {str(path.relative_to(ROOT)): lines for path in files
             if (lines := launches(path.read_text()))}
    assert list(found) == ["src/repro/chaos/scenarios.py"]
    (line,) = found["src/repro/chaos/scenarios.py"]
    source = (ROOT / "src/repro/chaos/scenarios.py").read_text()
    run_once = next(node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.AsyncFunctionDef)
                    and node.name == "run_once")
    assert run_once.lineno <= line <= run_once.end_lineno
