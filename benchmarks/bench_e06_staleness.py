"""E6 -- Staleness rejections vs max_latency and keep-alive frequency
(Sections 3.1-3.2).

Claims: (a) stale answers are always rejected (the inconsistency window
is a hard guarantee); (b) "by carefully selecting the value for
max_latency, and the frequency masters send keep-alive packets, the
probability of such events occurring can be reduced"; (c) clients behind
slow links may never get fresh answers unless they relax their own bound:
their reads *fail* once the retry budget is spent, and every read is
accounted for (accepted + failed == submitted).

Sweep (max_latency, keepalive_interval, client link delay); measure the
fraction of slave replies rejected as stale and compare with the
quasi-analytic model in :mod:`repro.analysis.staleness`.  The consistency
window must show zero violations in every cell.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis.staleness import staleness_rejection_probability
from repro.core.config import ProtocolConfig
from repro.sim.latency import ConstantLatency, LatencyMatrix, UniformLatency

from benchmarks.common import (
    FULL,
    build_system,
    print_table,
    scaled,
    schedule_uniform_reads,
)


def measure(max_latency: float, keepalive: float, slave_client_delay: float,
            reads: int, seed: int = 6) -> dict:
    protocol = ProtocolConfig(max_latency=max_latency,
                              keepalive_interval=keepalive,
                              double_check_probability=0.0,
                              max_read_retries=3,
                              request_timeout=max(10.0,
                                                  4 * slave_client_delay))
    matrix = LatencyMatrix(ConstantLatency(0.01))
    system = build_system(protocol=protocol, seed=seed, latency=matrix)
    jitter = UniformLatency(0.5 * slave_client_delay,
                            1.5 * slave_client_delay)
    for slave in system.slaves:
        for client in system.clients:
            matrix.set_pair(slave.node_id, client.node_id, jitter)
    end = schedule_uniform_reads(system, reads, rate=5.0, seed=seed)
    system.run_for(end - system.now + 20 * max_latency + 60.0)
    ok = system.metrics.count("read_reply_ok")
    stale = system.metrics.count("read_reply_stale")
    total = ok + stale
    model = staleness_rejection_probability(
        keepalive_interval=keepalive, max_latency=max_latency,
        delay_model=jitter, master_to_slave_delay=0.01, samples=8000)
    return {
        "measured": stale / total if total else 0.0,
        "model": model,
        "violations": len(system.check_consistency_window()),
        "accepted": system.metrics.count("reads_accepted"),
        "failed": system.metrics.count("reads_failed"),
    }


def run_sweep() -> list[tuple]:
    reads = scaled(600, 150)
    if FULL:
        cells = [
            (5.0, 1.0, 0.05), (5.0, 4.0, 0.05), (2.0, 1.0, 0.05),
            (2.0, 1.0, 1.0), (2.0, 1.0, 1.8), (1.0, 0.9, 0.3),
            (5.0, 1.0, 4.0),
        ]
    else:
        cells = [(5.0, 1.0, 0.05), (2.0, 1.0, 1.5), (1.0, 0.9, 0.3)]
    rows = []
    for max_latency, keepalive, delay in cells:
        result = measure(max_latency, keepalive, delay, reads)
        rows.append((max_latency, keepalive, delay, result["measured"],
                     result["model"], result["accepted"],
                     result["failed"], result["violations"]))
    print_table(
        "E6: stale-reply rate vs (max_latency, keep-alive, link delay)",
        ["max_latency", "keepalive", "link delay", "stale rate",
         "model", "accepted", "failed", "window violations"],
        rows)
    return rows


def test_e06_staleness(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for row in rows:
        # The hard guarantee: never a consistency-window violation.
        assert row[7] == 0
        # Every read resolved: none is still circulating when the run ends.
        assert row[5] + row[6] == scaled(600, 150)
    # Comfortable configuration: essentially no stale replies.
    assert rows[0][3] < 0.02
    # Tight bound + slow link: substantial staleness, roughly as modelled.
    tight = rows[1]
    assert tight[3] > 0.2
    assert abs(tight[3] - tight[4]) < 0.35
    # ... and some reads starve: the budget ends (Section 3.2).
    assert tight[6] > 0


if __name__ == "__main__":
    run_sweep()
