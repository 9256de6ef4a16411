"""A2 -- Ablation: greedy-client throttling (Section 3.3).

Design choice: masters token-bucket double-checks per client and ignore a
large fraction of over-quota requests.  This bench runs one greedy client
(double-checks every read) alongside three honest ones, with throttling
on vs off, and reports:

* master double-check load (what the throttle protects);
* honest-client read latency (must be unaffected either way);
* greedy-client read latency (the throttle's intended victim), measured
  from submit; a read whose double-checks keep being dropped ages past
  ``max_latency``, is retried, and *fails* when its budget is spent, so
  under throttling fewer of the greedy client's reads complete at all.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import random

from repro.content.kvstore import KVGet
from repro.core.config import ProtocolConfig

from benchmarks.common import build_system, print_table, scaled


def run_mode(throttle: bool, reads: int, seed: int = 16) -> dict:
    protocol = ProtocolConfig(
        double_check_probability=0.05,
        greedy_allowance_rate=0.5 if throttle else 1e9,
        greedy_burst=5.0 if throttle else 1e9,
        greedy_drop_fraction=1.0,
    )
    system = build_system(protocol=protocol, seed=seed,
                          client_double_check_overrides={0: 1.0})
    rng = random.Random(seed)
    latencies: dict[str, list[float]] = {c.node_id: []
                                         for c in system.clients}
    failed = dict.fromkeys(latencies, 0)
    t = system.now
    for i in range(reads):
        t += 0.1
        client = system.clients[i % 4]

        def record(outcome, client_id=client.node_id):
            if outcome["status"] == "accepted":
                latencies[client_id].append(outcome["latency"])
            else:
                failed[client_id] += 1

        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(200):04d}"),
                           None, record)
    system.run_for(t - system.now + 240.0)

    def mean(values):
        return sum(values) / len(values) if values else float("nan")

    greedy = latencies["client-00"]
    honest = [v for cid, vals in latencies.items()
              if cid != "client-00" for v in vals]
    return {
        "mode": "throttled" if throttle else "unthrottled",
        "dc_served": system.metrics.count("double_checks_served"),
        "dc_dropped": system.metrics.count("double_checks_dropped_greedy"),
        "honest_latency": mean(honest),
        "greedy_latency": mean(greedy),
        "greedy_done": len(greedy),
        "greedy_failed": failed["client-00"],
        "honest_failed": sum(failed.values()) - failed["client-00"],
    }


def run_sweep() -> list[dict]:
    reads = scaled(800, 200)
    results = [run_mode(False, reads), run_mode(True, reads)]
    print_table(
        "A2: greedy-client throttling on/off "
        "(client-00 double-checks 100% of reads)",
        ["mode", "dc served", "dc dropped", "honest mean lat (s)",
         "greedy mean lat (s)", "greedy reads done"],
        [(r["mode"], int(r["dc_served"]), int(r["dc_dropped"]),
          r["honest_latency"], r["greedy_latency"], r["greedy_done"])
         for r in results])
    return results


def test_a02_greedy_clients(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    unthrottled, throttled = results
    # The throttle rejects the bulk of the abuser's checks (the served
    # count converges over the long drain as the bucket refills -- the
    # protection is about *rate*, visible in the drop count).
    assert throttled["dc_dropped"] > unthrottled["dc_served"]
    assert unthrottled["dc_dropped"] == 0
    # Honest clients keep their fast path in both modes.
    assert throttled["honest_latency"] < 0.2
    assert abs(throttled["honest_latency"]
               - unthrottled["honest_latency"]) < 0.05
    # The abuser pays: its latency degrades vs the unthrottled world.
    assert throttled["greedy_latency"] > 2 * unthrottled["greedy_latency"]
    # Every read resolved, and only the abuser's ever fail.
    share = scaled(800, 200) // 4
    for result in results:
        assert result["greedy_done"] + result["greedy_failed"] == share
        assert result["honest_failed"] == 0
    assert unthrottled["greedy_failed"] == 0


if __name__ == "__main__":
    run_sweep()
