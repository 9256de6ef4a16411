"""E7 -- The write-rate ceiling from commit spacing (Section 3.1, 6).

Claim: "two write operations cannot be, time-wise, closer than
max_latency to each other.  This obviously limits the number of write
operations that can be executed in a given time" -- i.e. committed
writes/second <= 1 / max_latency -- "which is why we advocate our
architecture only for applications where there is a high reads to writes
ratio."

Sweep max_latency under write pressure; measure committed writes/s
against the 1/max_latency ceiling, minimum observed commit gaps, and
read availability (reads keep flowing while writes queue).
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis.writes import max_write_rate
from repro.content.kvstore import KVPut
from repro.core.config import ProtocolConfig

from benchmarks.common import (
    FULL,
    build_system,
    print_table,
    scaled,
    schedule_uniform_reads,
)


def measure(max_latency: float, writes: int, seed: int = 8) -> dict:
    protocol = ProtocolConfig(
        max_latency=max_latency,
        keepalive_interval=min(1.0, max_latency / 2),
        double_check_probability=0.0)
    system = build_system(protocol=protocol, seed=seed)
    start = system.now
    # Saturating write pressure: all writes submitted up front.
    for i in range(writes):
        system.schedule_op(system.clients[i % 4], start + 0.1 + i * 0.01,
                           KVPut(key=f"w{i:04d}", value=i))
    # A read stream running alongside, to show reads are not blocked.
    end = schedule_uniform_reads(system, writes * 2, rate=10.0,
                                 seed=seed + 1)
    system.run_for(max(end - system.now, writes * max_latency) + 30.0)
    commit_times = sorted(system.masters[0].history.times.values())[1:]
    gaps = [b - a for a, b in zip(commit_times, commit_times[1:])]
    span = (commit_times[-1] - commit_times[0]) if len(commit_times) > 1 \
        else 1.0
    return {
        "committed": len(commit_times),
        "rate": (len(commit_times) - 1) / span,
        "ceiling": max_write_rate(max_latency),
        "min_gap": min(gaps) if gaps else float("inf"),
        "reads_accepted": system.metrics.count("reads_accepted"),
        "violations": len(system.check_consistency_window()),
    }


def run_sweep() -> list[tuple]:
    writes = scaled(30, 10)
    latencies = [0.5, 1.0, 2.0, 5.0, 10.0] if FULL else [0.5, 2.0, 5.0]
    rows = []
    for max_latency in latencies:
        result = measure(max_latency, writes)
        rows.append((max_latency, result["committed"], result["rate"],
                     result["ceiling"], result["min_gap"],
                     int(result["reads_accepted"]), result["violations"]))
    print_table(
        "E7: committed write throughput vs max_latency (saturating load)",
        ["max_latency", "committed", "writes/s", "ceiling 1/L",
         "min commit gap", "reads ok", "window violations"],
        rows)
    return rows


def test_e07_write_throughput(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for row in rows:
        max_latency, _committed, rate, ceiling, min_gap = row[:5]
        assert rate <= ceiling * 1.02
        assert min_gap >= max_latency - 1e-6
        assert row[6] == 0
    # Throughput tracks the ceiling closely under saturation.
    for row in rows:
        assert row[2] > 0.8 * row[3]


if __name__ == "__main__":
    run_sweep()
