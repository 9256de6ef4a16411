"""C1 -- Crash detection and recovery latency over real sockets.

Measures the Section 3.5 recovery path end to end as a function of
``keepalive_interval``: crash a master under continuous read load in a
live :class:`~repro.net.deploy.LocalCluster` on a (healthy) fault
plane and record

* **detection latency** -- crash to the first survivor executing the
  corrective action (the ``master_crash_detections`` timeline);
* **adoption latency** -- crash to the last orphaned slave adopted;
* **read unavailability** -- the longest gap between accepted reads
  across the fault window (clients homed elsewhere keep reading, so
  this is usually far smaller than the detection latency).

The paper ties all three to the keep-alive cadence: suspicion fires
after ``broadcast_suspect_after`` (six keep-alive intervals here), so
halving the interval should roughly halve detection.  The sweep prints
the measured latencies against that bound.

Run standalone for the table, or under pytest-benchmark.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import asyncio
import time

from repro.chaos import FaultPlane
from repro.chaos.scenarios import ReadLoad
from repro.content.kvstore import KVGet, KVPut
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)

from benchmarks.common import FULL, print_table

#: Suspicion threshold in keep-alive intervals (mirrors the chaos
#: scenarios: heartbeats ride the same cadence as keep-alives).
SUSPECT_MULTIPLE = 6
#: Detection bound in keep-alive intervals (suspicion plus slack for
#: the heartbeat that notices and the broadcast that announces it).
BOUND_MULTIPLE = 10


def measure_recovery(keepalive_interval: float,
                     seed: int = 0) -> dict[str, float]:
    """Crash one master under load; return the recovery latencies."""

    async def scenario() -> dict[str, float]:
        config = fast_protocol_config(
            double_check_probability=0.0,
            keepalive_interval=keepalive_interval,
            broadcast_heartbeat_interval=keepalive_interval,
            broadcast_suspect_after=SUSPECT_MULTIPLE * keepalive_interval,
            request_timeout=1.0,
            max_read_retries=3,
        )
        spec = NetDeploymentSpec(num_masters=3, slaves_per_master=2,
                                 num_clients=4, seed=seed, protocol=config)
        cluster = await LocalCluster.launch(
            spec, settle=0.8, plane=FaultPlane(seed=seed))
        load = ReadLoad(cluster, KVGet(key="bench"))
        try:
            await cluster.write(cluster.clients[0],
                                KVPut(key="bench", value="v"))
            await asyncio.sleep(config.max_latency + keepalive_interval)
            load.start()
            await asyncio.sleep(0.4)

            crash_t = cluster.scheduler.now
            await cluster.crash_node("master-01")
            bound = BOUND_MULTIPLE * keepalive_interval

            def detected() -> bool:
                timeline = cluster.metrics.timelines.get(
                    "master_crash_detections")
                return timeline is not None and any(
                    at >= crash_t for at, _value in timeline.points)

            await cluster.wait_for(detected, timeout=3 * bound,
                                   what="crash detection")
            timeline = cluster.metrics.timelines["master_crash_detections"]
            detection = min(at for at, _value in timeline.points
                            if at >= crash_t) - crash_t

            await cluster.wait_for(
                lambda: cluster.metrics.count("slaves_adopted")
                >= spec.slaves_per_master,
                timeout=2 * bound, what="slave adoption")
            adoption = cluster.scheduler.now - crash_t

            # Let reads flow past the fault before closing the window.
            await asyncio.sleep(0.5)
            window_end = cluster.scheduler.now
            await load.stop()
            return {
                "keepalive_interval": keepalive_interval,
                "suspect_after": config.broadcast_suspect_after,
                "detection_bound_s": bound,
                "detection_latency_s": detection,
                "adoption_latency_s": adoption,
                "unavailability_s": load.max_gap(crash_t, window_end),
                "reads_accepted": float(load.accepted),
            }
        finally:
            await load.stop()
            await cluster.aclose()

    return asyncio.run(scenario())


def run_sweep() -> dict:
    intervals = [0.1, 0.15, 0.2, 0.3] if FULL else [0.15, 0.3]
    t0 = time.perf_counter()
    rows = [measure_recovery(interval) for interval in intervals]
    elapsed = time.perf_counter() - t0
    print_table(
        "C1: crash detection vs keepalive_interval (real sockets)",
        ["keepalive s", "suspect s", "detect s", "bound s", "adopt s",
         "unavail s", "reads ok"],
        [(row["keepalive_interval"], row["suspect_after"],
          row["detection_latency_s"], row["detection_bound_s"],
          row["adoption_latency_s"], row["unavailability_s"],
          int(row["reads_accepted"])) for row in rows])
    return {"rows": rows, "wall_seconds": elapsed}


def test_c1_chaos_recovery(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for row in result["rows"]:
        # The recovery story, not just a timing: detection must beat the
        # keep-alive bound and load must have kept flowing throughout.
        assert row["detection_latency_s"] <= row["detection_bound_s"]
        assert row["reads_accepted"] > 0


if __name__ == "__main__":
    run_sweep()
