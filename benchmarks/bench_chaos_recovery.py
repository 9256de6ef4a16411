"""C1 -- Crash detection and recovery latency over real sockets.

Plays the ``master_crash`` chaos scenario (a master crashed under
continuous read load in a live :class:`~repro.net.deploy.LocalCluster`
on a healthy fault plane, then restarted) once per
``keepalive_interval`` and tabulates its verdict's timings:

* **detection latency** -- crash to the first survivor executing the
  corrective action (the ``master_crash_detections`` timeline);
* **adoption latency** -- crash to the last orphaned slave adopted;
* **read unavailability** -- the longest gap between accepted reads
  from the crash to the restart (clients homed elsewhere keep reading,
  so this is usually far smaller than the detection latency).

The paper ties all three to the keep-alive cadence: suspicion fires
after ``broadcast_suspect_after`` (six keep-alive intervals here), so
halving the interval should roughly halve detection.  The verdict
judges detection against its own bound, ten keep-alive intervals.

Run standalone for the table, or under pytest-benchmark.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import asyncio
import dataclasses
import time

from repro.chaos.scenarios import (
    K_DETECT,
    MASTER_CRASH,
    ScenarioVerdict,
    play_scenario,
)

from benchmarks.common import FULL, print_table

#: Suspicion threshold in keep-alive intervals (as in the chaos
#: scenarios: heartbeats ride the same cadence as keep-alives).
SUSPECT_MULTIPLE = 6


def recovery_verdict(keepalive_interval: float,
                     seed: int = 0) -> ScenarioVerdict:
    """``master_crash`` with its keep-alive cadence set to
    ``keepalive_interval``."""
    cast = MASTER_CRASH.casts[0]
    protocol = dataclasses.replace(
        cast.protocol, keepalive_interval=keepalive_interval,
        broadcast_heartbeat_interval=keepalive_interval,
        broadcast_suspect_after=SUSPECT_MULTIPLE * keepalive_interval)
    return asyncio.run(play_scenario(dataclasses.replace(
        MASTER_CRASH, casts=(dataclasses.replace(cast, protocol=protocol),)),
        seed))


def run_sweep() -> dict:
    intervals = [0.1, 0.15, 0.2, 0.3] if FULL else [0.15, 0.3]
    t0 = time.perf_counter()
    verdicts = {interval: recovery_verdict(interval) for interval in intervals}
    elapsed = time.perf_counter() - t0
    print_table(
        "C1: crash detection vs keepalive_interval (real sockets)",
        ["keepalive s", "suspect s", "detect s", "bound s", "adopt s",
         "unavail s", "reads ok", "verdict"],
        [(interval, SUSPECT_MULTIPLE * interval,
          v.timings["detection_latency"], v.timings["detection_bound"],
          v.timings["slave_adoption"], v.timings["read_unavailability"],
          int(v.counters["reads_accepted"]),
          "passed" if v.passed else "FAILED")
         for interval, v in verdicts.items()])
    return {"verdicts": verdicts, "wall_seconds": elapsed}


def test_c1_chaos_recovery(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for interval, verdict in result["verdicts"].items():
        # The recovery story, not just a timing: every check of the
        # scenario held, detection within its own cadence's bound.
        assert verdict.passed, [check.name for check in verdict.failures()]
        assert verdict.timings["detection_bound"] == \
            round(K_DETECT * interval, 4)


if __name__ == "__main__":
    sys.exit(0 if all(v.passed for v in run_sweep()["verdicts"].values())
             else 1)
