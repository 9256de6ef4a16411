"""The five workloads: deployment, content, and seeded op streams.

A workload fixes a deployment (topology, protocol settings), a content
set (key count, value size) and the shape of the load (readers, depth,
key popularity, write schedule).  The parameters are data, in
``details.json`` beside this file, so that tools can read them; the
one-line rationale of each is in ``BENCHMARK.json``.  ``--seed`` decides
the value bytes, every key sequence and the cluster seed; the program
under test only ever sees the generated operations.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any

from repro.content.kvstore import KeyValueStore
from repro.net.deploy import LocalCluster, NetDeploymentSpec, \
    fast_protocol_config
from repro.shard.deploy import ShardDeploymentSpec, ShardedCluster

#: Seconds a launch waits between starting the servers and starting the
#: clients (``LocalCluster.launch(settle=...)``); part of ``setup_s``.
SETTLE = 0.25
#: A read or write that has not come back by then counts as failed.
OP_TIMEOUT = 2.0


@dataclass(frozen=True)
class Workload:
    """One entry of ``details.json``'s ``workloads``; see the README."""

    name: str
    #: Closed-loop reader sinks (clients, or routers when sharded) and
    #: reads each keeps in flight.  One more sink is the writer, an open
    #: loop sending one write per 0.2 s load slice on every workload.
    readers: int
    depth: int
    keys: int
    value_bytes: int
    #: Zipf exponent of key popularity; 0 = uniform.
    zipf: float
    #: The per-window read percentile reported as ``read_tail_x``: the
    #: highest of 99/95/90 with >= 10 samples beyond it in every window.
    tail_pct: int
    #: ``peak_rss_mb`` is sampled when this many reads per measured
    #: window have been accepted (a third of what the sizing machine
    #: completes, so a much slower one still gets there).
    rss_reads_per_window: int
    masters: int = 1
    slaves_per_master: int = 1
    shards: int = 0
    #: Size of written values; 0 = the content's own value size.
    write_bytes: int = 0
    protocol: dict[str, Any] = field(default_factory=dict)

    @property
    def sharded(self) -> bool:
        return self.shards > 0


def _load() -> tuple[dict[str, Any], dict[str, Workload]]:
    """The protocol settings every workload shares, and the workloads."""
    path = pathlib.Path(__file__).with_name("details.json")
    with open(path, encoding="utf-8") as handle:
        details = json.load(handle)
    return details["protocol"], {
        name: Workload(name=name, **parameters)
        for name, parameters in details["workloads"].items()}


#: Every workload runs the consistency window the writer's pace needs:
#: writes 0.2 s apart must be at least ``max_latency`` apart.
_BASE_PROTOCOL, WORKLOADS = _load()


class Content:
    """The seeded key/value set plus per-stream key generators."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"content:{workload.name}:{seed}")
        half = workload.value_bytes // 2
        self.keys = [f"k{i:06d}" for i in range(workload.keys)]
        self.initial = {key: rng.randbytes(half).hex()
                        for key in self.keys}
        if workload.zipf:
            weights = [1.0 / (rank + 1) ** workload.zipf
                       for rank in range(workload.keys)]
            self._cum_weights: list[float] | None = list(
                itertools.accumulate(weights))
        else:
            self._cum_weights = None

    def store(self) -> KeyValueStore:
        return KeyValueStore(dict(self.initial))

    def key_stream(self, label: str) -> "KeyStream":
        return KeyStream(self, random.Random(
            f"{label}:{self.workload.name}:{self.seed}"))


class KeyStream:
    """An endless seeded key sequence, drawn in chunks."""

    _CHUNK = 4096

    def __init__(self, content: Content, rng: random.Random) -> None:
        self._content = content
        self.rng = rng
        self._chunk: list[str] = []

    def next(self) -> str:
        if not self._chunk:
            content = self._content
            self._chunk = self.rng.choices(
                content.keys, cum_weights=content._cum_weights,
                k=self._CHUNK)
        return self._chunk.pop()


def deployment_spec(workload: Workload,
                    content: Content) -> NetDeploymentSpec:
    """The workload's deployment; one sink per reader plus the writer."""
    config = fast_protocol_config(**_BASE_PROTOCOL, **workload.protocol)
    common: dict[str, Any] = dict(
        num_masters=workload.masters,
        slaves_per_master=workload.slaves_per_master,
        num_clients=workload.readers + 1, num_auditors=1,
        seed=content.seed, protocol=config, store_factory=content.store)
    if workload.sharded:
        return ShardDeploymentSpec(num_shards=workload.shards,
                                   num_hosts=workload.shards, **common)
    return NetDeploymentSpec(**common)


async def launch(workload: Workload, content: Content) -> LocalCluster:
    spec = deployment_spec(workload, content)
    cls = ShardedCluster if workload.sharded else LocalCluster
    return await cls.launch(spec, settle=SETTLE)


def sinks(cluster: LocalCluster) -> list[Any]:
    """What load is submitted to: routers when sharded, else clients."""
    return list(getattr(cluster, "routers", None) or cluster.clients)
