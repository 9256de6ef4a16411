"""Q0 -- Honest-read throughput under a flash crowd, with and without
admission control.

Quantifies what the ``repro.qos`` wire-level limits buy the serving
plane: two honest readers trickle ``KVGet`` requests while (in the
crowd rows) six greedy clients pin hundreds of closed-loop reads of a
1 MiB value against the same masters and slaves.  Three rows:

* **crowd off / qos on**   -- the undisturbed baseline;
* **crowd on  / qos off**  -- naive serving: honest latency collapses
  into the crowd's queueing delay;
* **crowd on  / qos on**   -- per-client token buckets shed the flood
  at the listener; honest p99 should sit near the baseline row while
  ``qos_shed_total`` absorbs the difference.

Honest latency is span-derived (the same ``client.read`` spans the
``flash_crowd`` chaos scenario judges), so the numbers line up with
the scenario's SLO verdict.  Run standalone for the table, or under
pytest-benchmark.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import asyncio
import time
from typing import Any

from repro.chaos.faults import FaultPlane
from repro.chaos.scenarios import (
    FlashCrowd,
    ReadLoad,
    _honest_read_durations,
    _percentile,
)
from repro.content.kvstore import KVGet, KVPut
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)

from benchmarks.common import FULL, print_table

#: Closed-loop crowd tasks per greedy client (x6 clients in flight);
#: mirrors the flash_crowd chaos scenario's ~288 in-flight reads.
CONCURRENCY = 48 if FULL else 32
#: Seconds of measured window (baseline and burst alike).
WINDOW = 5.0 if FULL else 3.0


def measure_admission(crowd: bool, qos: bool,
                      seed: int = 0) -> dict[str, float]:
    """One cell of the sweep: honest read latency/throughput plus the
    shed accounting, with the crowd and the qos limits toggled."""

    async def scenario() -> dict[str, float]:
        keepalive = 0.2
        honest_count, greedy_count = 2, 6
        overrides: dict[str, Any] = {}
        if qos:
            # Mirrors the flash_crowd chaos scenario's tuning.
            overrides.update(
                qos_frame_rate=15.0, qos_frame_burst=20.0,
                qos_inbox_limit=512, qos_idle_multiple=10.0)
        config = fast_protocol_config(
            keepalive_interval=keepalive,
            double_check_probability=0.0,
            request_timeout=1.25,
            max_read_retries=2,
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
        cluster = await LocalCluster.launch(
            spec, settle=0.8, plane=FaultPlane(seed=seed))
        honest = cluster.clients[:honest_count]
        honest_ids = {client.node_id for client in honest}
        # 10 reads/s per honest client fits inside the 15/s frame
        # budget, exactly as in the chaos scenario.
        load = ReadLoad(cluster, KVGet(key="k"), interval=0.1,
                        clients=honest)
        flood = FlashCrowd(cluster, cluster.clients[honest_count:],
                           KVGet(key="bulk"),
                           concurrency=CONCURRENCY) if crowd else None
        try:
            await cluster.write(cluster.clients[0],
                                KVPut(key="k", value="v"))
            await cluster.write(cluster.clients[0],
                                KVPut(key="bulk", value="x" * 1048576))
            await asyncio.sleep(config.max_latency + keepalive)
            load.start()
            if flood is not None:
                flood.start()
                await asyncio.sleep(0.5)  # let the crowd ramp
            t0 = cluster.scheduler.now
            await asyncio.sleep(WINDOW)
            t1 = cluster.scheduler.now
            if flood is not None:
                await flood.stop()
            await load.stop()
            durations = _honest_read_durations(cluster, honest_ids, t0, t1)
            counters = cluster.metrics.snapshot()
            return {
                "crowd": 1.0 if crowd else 0.0,
                "qos": 1.0 if qos else 0.0,
                "honest_reads": float(len(durations)),
                "honest_reads_per_s": len(durations) / (t1 - t0),
                "honest_p99_s": _percentile(durations, 0.99),
                "crowd_completed": float(
                    flood.completed if flood is not None else 0),
                "qos_shed_total": counters.get("qos_shed_total", 0.0),
                "qos_shed_rate": counters.get("qos_shed_rate", 0.0),
                "qos_shed_queue_full": counters.get(
                    "qos_shed_queue_full", 0.0),
            }
        finally:
            if flood is not None:
                await flood.stop()
            await load.stop()
            await cluster.aclose()

    return asyncio.run(scenario())


def run_sweep() -> dict:
    cells = [(False, True), (True, False), (True, True)]
    t0 = time.perf_counter()
    rows = [measure_admission(crowd, qos) for crowd, qos in cells]
    elapsed = time.perf_counter() - t0
    print_table(
        "Q0: honest reads under a flash crowd (real sockets)",
        ["crowd", "qos", "reads/s", "p99 s", "crowd ok", "shed",
         "shed rate", "shed queue"],
        [("on" if row["crowd"] else "off",
          "on" if row["qos"] else "off",
          round(row["honest_reads_per_s"], 1),
          round(row["honest_p99_s"], 4),
          int(row["crowd_completed"]),
          int(row["qos_shed_total"]),
          int(row["qos_shed_rate"]),
          int(row["qos_shed_queue_full"])) for row in rows])
    return {"rows": rows, "wall_seconds": elapsed}


def test_q0_admission(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = {(row["crowd"], row["qos"]): row for row in result["rows"]}
    # The shape, not the absolute timings: honest reads flowed in every
    # cell, and admission control actually shed crowd traffic.
    for row in result["rows"]:
        assert row["honest_reads"] > 0
    assert rows[(1.0, 1.0)]["qos_shed_total"] > 0
    assert rows[(1.0, 0.0)]["qos_shed_total"] == 0


if __name__ == "__main__":
    run_sweep()
