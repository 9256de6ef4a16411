"""From a run's raw windows to named metrics with units.

The measurement rule: a throughput-type metric is the median over
windows of the per-window value, a latency percentile is the median
over windows of the per-window percentile, and every time is divided by
the calibration reading that brackets its load slice (``_x``: multiples
of one reference exchange).  Raw wall-clock values sit beside them
under ``raw.*``.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracing import LAYERS
from workloads import WORKLOADS

Metrics = dict[str, dict[str, Any]]


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return float("nan")
    rank = -(-len(ordered) * pct // 100)
    return ordered[max(1, int(rank)) - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _put(metrics: Metrics, name: str, value: float, unit: str,
         samples: int) -> None:
    metrics[name] = {"value": value, "unit": unit, "samples": samples}


def summarise(run: dict[str, Any], setups: list[float],
              trace: bool) -> Metrics:
    """Every metric this run supports, by name."""
    workload = WORKLOADS[run["workload"]]
    windows = [_window(r, workload.tail_pct) for r in run["records"]]
    plain = [w for w in windows if not w["traced"]]
    traced = [w for w in windows if w["traced"]]
    metrics: Metrics = {}
    if not trace:
        _end_to_end(metrics, run, plain, setups, workload.tail_pct)
    _run_counters(metrics, run, plain, traced)
    if trace:
        for name, kernel in run["kernels"].items():
            _put(metrics, name, kernel["value"], kernel["unit"],
                 kernel["samples"])
        _trace(metrics, plain, traced)
    return metrics


def _window(record: dict[str, Any], tail_pct: int) -> dict[str, Any]:
    """One window's values, each slice divided by its own calibration."""
    slices = record["slices"]
    latencies = sorted(latency / s["calib"]
                       for s in slices for latency in s["latencies"])
    reads = len(latencies)
    x_time = sum(s["elapsed"] / s["calib"] for s in slices)
    return {
        **record,
        "reads": reads,
        "elapsed": sum(s["elapsed"] for s in slices),
        "calib": statistics.fmean(s["calib"] for s in slices),
        "cost_x": x_time / reads if reads else float("nan"),
        "p50_x": percentile(latencies, 50),
        "tail_x": percentile(latencies, tail_pct),
        "commits_x": [commit / s["calib"]
                      for s in slices for commit in s["commits"]],
    }


def _end_to_end(metrics: Metrics, run: dict[str, Any],
                windows: list[dict[str, Any]], setups: list[float],
                tail_pct: int) -> None:
    """The bounded metrics.

    Each carries ``noise`` where the run itself can estimate it: how far
    the value would move if the same run were made again, as a share of
    the value.  For a median over windows that is the windows'
    interquartile spread over the root of their number; ``compare`` uses
    it when a side has one set only.
    """
    reads = sum(w["reads"] for w in windows)

    def windowed(name: str, value: float, unit: str, samples: int,
                 per_window: list[float]) -> None:
        _put(metrics, name, value, unit, samples)
        metrics[name]["noise"] = spread(per_window) / max(1, len(per_window)) ** 0.5

    _put(metrics, "setup_s", statistics.median(setups), "s", len(setups))
    if len(setups) > 1:
        metrics["setup_s"]["noise"] = \
            (max(setups) - min(setups)) / statistics.median(setups)
    for name, key, unit in (("read_cost_x", "cost_x", "x/read"),
                            ("read_p50_x", "p50_x", "x"),
                            ("read_tail_x", "tail_x", "x")):
        values = [w[key] for w in windows]
        windowed(name, statistics.median(values), unit, reads, values)
    metrics["read_tail_x"]["percentile"] = tail_pct
    commits = [commit for w in windows for commit in w["commits_x"]]
    windowed("write_commit_p50_x",
             statistics.median(commits) if commits else float("nan"), "x",
             len(commits), [statistics.median(w["commits_x"])
                            for w in windows if w["commits_x"]])
    counters = _sum_counters(windows)
    windowed("wire_bytes_per_read",
             _ratio(counters.get("net_bytes_sent", 0.0),
                    counters.get("reads_accepted", 0.0)), "B/read", reads,
             [_ratio(w["counters"].get("net_bytes_sent", 0.0),
                     w["counters"].get("reads_accepted", 0.0))
              for w in windows])
    # The process's peak resident set at a fixed amount of work: set-up,
    # warm-up and load up to the workload's N-th accepted read.  The
    # peak at the end of a fixed-time closed loop grows with the reads
    # completed, so a faster program would read as a memory regression;
    # that figure is proc.rss_end_mb.  One sample, so no noise estimate.
    _put(metrics, "peak_rss_mb", run["rss_at_reads_mb"] or float("nan"),
         "MiB", run["rss_at_reads"])
    _put(metrics, "failed_frac", _ratio(run["failed"], run["attempted"]),
         "ratio", run["attempted"])


def _sum_counters(windows: list[dict[str, Any]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for window in windows:
        for name, value in window["counters"].items():
            total[name] = total.get(name, 0.0) + value
    return total


def _run_counters(metrics: Metrics, run: dict[str, Any],
                  plain: list[dict[str, Any]],
                  traced: list[dict[str, Any]]) -> None:
    """Per-layer counts and ratios, as deltas over the untraced windows."""
    c = _sum_counters(plain)
    reads = c.get("reads_accepted", 0.0)
    elapsed = sum(w["elapsed"] for w in plain)
    n = int(reads)

    def per_read(name: str, counter: str, scale: float = 1.0,
                 unit: str = "1/read") -> None:
        _put(metrics, name, scale * _ratio(c.get(counter, 0.0), reads),
             unit, n)

    def frac(name: str, hits: str, misses: str) -> None:
        total = c.get(hits, 0.0) + c.get(misses, 0.0)
        _put(metrics, name, _ratio(c.get(hits, 0.0), total), "ratio",
             int(total))

    def count(name: str, counter: str) -> None:
        _put(metrics, name, c.get(counter, 0.0), "count", len(plain))

    per_read("net.transport.msgs_per_read", "net_frames_sent")
    per_read("net.transport.batches_per_kread", "net_batches_sent", 1000.0,
             "1/kread")
    count("net.transport.retries", "net_retries")
    count("net.transport.frames_dropped", "net_frames_dropped")
    frac("crypto.verify_cache_hit_frac", "verify_cache_hits",
         "verify_cache_misses")
    frac("crypto.canonical_cache_hit_frac", "canonical_cache_hits",
         "canonical_cache_misses")
    per_read("core.slave.read_batches_per_kread", "slave_read_batches",
             1000.0, "1/kread")
    frac("core.slave.refused_stale_frac", "slave_reads_refused_stale",
         "slave_reads_served")
    _put(metrics, "core.client.retry_frac",
         _ratio(c.get("read_retries", 0.0), c.get("reads_submitted", 0.0)),
         "ratio", n)
    per_read("core.client.double_checked_frac", "double_checks_sent",
             unit="ratio")
    per_read("core.auditor.audited_per_read", "pledges_audited")
    frac("core.auditor.cache_hit_frac", "auditor_cache_hits",
         "auditor_cache_misses")
    count("core.master.commits", "writes_committed")
    count("qos.shed_total", "qos_shed_total")
    _put(metrics, "shard.max_shard_share", run["max_shard_share"], "ratio",
         run["attempted"])
    cpu = sum(s["cpu"] for w in plain for s in w["slices"])
    _put(metrics, "eventloop.cpu_util", _ratio(cpu, elapsed), "ratio",
         len(plain))
    lags = sorted(run["lags"])
    if lags:  # the ticker runs in traced runs only
        _put(metrics, "eventloop.lag_p99_ms", 1e3 * percentile(lags, 99),
             "ms", len(lags))
    late = sorted(x for w in plain + traced for s in w["slices"]
                  for x in s["late"])
    _put(metrics, "writer.late_p99_ms", 1e3 * percentile(late, 99), "ms",
         len(late))
    if traced:
        # The broadcast keeps no counter of its own; the traced windows
        # count the envelopes its members handled.
        handled = sum(w["trace"]["names"].get(
            "TotalOrderBroadcast.handle_message", 0) for w in traced)
        commits = sum(w["counters"].get("writes_committed", 0.0)
                      for w in traced)
        _put(metrics, "broadcast.msgs_per_commit",
             _ratio(handled, commits), "1/commit", int(commits))

    # Warm-up reads are not counted, so this slightly overstates.
    all_reads = sum(w["reads"] for w in plain + traced)
    _put(metrics, "proc.rss_setup_mb", run["rss_setup_mb"], "MiB", 1)
    _put(metrics, "proc.rss_end_mb", run["rss_end_mb"], "MiB", 1)
    _put(metrics, "proc.rss_growth_kb_per_kread",
         _ratio(1024.0 * (run["rss_end_mb"] - run["rss_setup_mb"]),
                all_reads / 1000.0), "KiB/kread", all_reads)

    readings = run["calib_readings"]
    _put(metrics, "env.calib_us_median", 1e6 * statistics.median(readings),
         "us", len(readings))
    _put(metrics, "env.calib_us_spread", spread(readings), "ratio",
         len(readings))
    _put(metrics, "env.nproc", run["nproc"], "count", 1)
    _put(metrics, "env.loadavg1", run["loadavg1"], "count", 1)

    _put(metrics, "raw.reads_per_s", _ratio(reads, elapsed), "1/s", n)
    latencies = sorted(x for w in plain for s in w["slices"]
                       for x in s["latencies"])
    _put(metrics, "raw.read_p50_ms", 1e3 * percentile(latencies, 50), "ms",
         len(latencies))
    _put(metrics, "raw.read_p99_ms", 1e3 * percentile(latencies, 99), "ms",
         len(latencies))
    commit_times = sorted(x for w in plain for s in w["slices"]
                          for x in s["commits"])
    _put(metrics, "raw.write_commit_p50_ms",
         1e3 * percentile(commit_times, 50), "ms", len(commit_times))
    _put(metrics, "raw.write_commit_p90_ms",
         1e3 * percentile(commit_times, 90), "ms", len(commit_times))


def _trace(metrics: Metrics, plain: list[dict[str, Any]],
           traced: list[dict[str, Any]]) -> None:
    """Per-layer self time and calls per read, from the traced windows.

    A window's self seconds are divided by the window's mean
    calibration, and so is its wall time, so the layers and the event
    loop's remainder add up to the traced wall time exactly.
    """
    reads = sum(w["reads"] for w in traced)
    wall_x = sum(w["elapsed"] / w["calib"] for w in traced)
    covered = 0.0
    for layer in LAYERS:
        self_x = sum(w["trace"]["self"].get(layer, 0.0) / w["calib"]
                     for w in traced)
        calls = sum(w["trace"]["calls"].get(layer, 0) for w in traced)
        covered += self_x
        _put(metrics, f"trace.{layer}.self_x_per_read",
             _ratio(self_x, reads), "x/read", reads)
        _put(metrics, f"trace.{layer}.calls_per_read",
             _ratio(calls, reads), "1/read", reads)
    _put(metrics, "trace.eventloop.self_x_per_read",
         _ratio(wall_x - covered, reads), "x/read", reads)
    _put(metrics, "trace.wall_x_per_read", _ratio(wall_x, reads), "x/read",
         reads)
    untraced_cost = statistics.median(w["cost_x"] for w in plain)
    traced_cost = statistics.median(w["cost_x"] for w in traced)
    _put(metrics, "trace.overhead_frac", traced_cost / untraced_cost - 1.0,
         "ratio", reads)
