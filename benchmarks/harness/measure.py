"""One workload, one process: set up, warm up, measure in windows, check.

Runs as a child of ``run.py``.  All load comes from this process's one
event loop: closed-loop readers are callback chains (a completion
issues the next read), the writer is an open loop on ``call_at``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from functools import partial
from typing import Any

from repro.chaos.invariants import run_safety_checks
from repro.content.kvstore import KVGet, KVPut
from repro.crypto import fastpath
from repro.net.deploy import LocalCluster
from repro.shard.deploy import ShardedCluster, run_shard_safety_checks

from calib import Reference
from tracing import Tracer
from workloads import OP_TIMEOUT, Content, Workload, launch, sinks

#: A window is SLICES load slices of SLICE seconds, each bracketed by
#: calibration readings taken with the load drained.  Sizing runs on a
#: shared 2-core box showed machine speed moving by tens of percent
#: within a second; readings only at a 1 s window's edges predicted its
#: speed three times worse than readings every 0.2 s.
SLICE = 0.2
SLICES = 5
WARMUP_WINDOWS = 2
#: Seconds into a slice at which its write is due.
WRITE_OFFSET = 0.02
#: Scheduling noise allowed on top of ``max_latency`` when judging
#: whether a read was entitled to an older value.
_FRESHNESS_SLACK = 0.05

clock = time.perf_counter


class _Slot:
    """One closed-loop read position: at most one read in flight."""

    __slots__ = ("driver", "sink", "stream", "key", "t0", "busy", "dead")

    def __init__(self, driver: "LoadDriver", sink: Any, stream: Any) -> None:
        self.driver = driver
        self.sink = sink
        self.stream = stream
        self.key = ""
        self.t0 = 0.0
        self.busy = False
        self.dead = False

    def issue(self) -> None:
        driver = self.driver
        self.key = key = self.stream.next()
        self.busy = True
        driver.outstanding += 1
        driver.reads_attempted += 1
        self.t0 = clock()
        self.sink.submit(KVGet(key=key), None, self.done)

    def done(self, outcome: dict[str, Any]) -> None:
        t1 = clock()
        if self.dead:
            return
        driver = self.driver
        self.busy = False
        driver.outstanding -= 1
        latency = t1 - self.t0
        if outcome.get("status") == "accepted" and latency <= OP_TIMEOUT:
            driver.latencies.append(latency)
            driver.reads_accepted += 1
            if driver.reads_accepted == driver.rss_at_reads:
                driver.rss_at_reads_mb = _peak_rss_mb()
            driver.check_read(self.key, self.t0, t1, outcome["result"])
        else:
            driver.failed += 1
        if driver.running:
            self.issue()
        elif driver.outstanding == 0:
            driver.drained()


class LoadDriver:
    """Generates the workload's operations and checks every answer."""

    def __init__(self, workload: Workload, content: Content,
                 cluster: LocalCluster) -> None:
        self.workload = workload
        self.content = content
        self.max_latency = cluster.config.effective_client_max_latency()
        self._loop = asyncio.get_running_loop()
        all_sinks = sinks(cluster)
        self.writer = all_sinks[workload.readers]
        self.slots = [
            _Slot(self, sink, content.key_stream(f"reader{i}.{j}"))
            for i, sink in enumerate(all_sinks[:workload.readers])
            for j in range(workload.depth)]
        self._write_keys = content.key_stream("writer")
        self._write_rng = random.Random(f"values:{content.seed}")
        self._write_half = (workload.write_bytes
                            or workload.value_bytes) // 2
        #: key -> [[submitted, committed | None, value], ...] in order.
        self.written: dict[str, list[list[Any]]] = {}
        #: Reads of written keys, judged after the run: (key, t0, t1, value).
        self.deferred: list[tuple[str, float, float, Any]] = []
        self.wrong = 0
        self.reads_attempted = 0
        self.reads_accepted = 0
        #: ``peak_rss_mb`` is the peak resident set when this many reads
        #: have been accepted, warm-up included: a fixed amount of work,
        #: where the end of a fixed-time closed loop is not.
        self.rss_at_reads = 0
        self.rss_at_reads_mb: float | None = None
        self.writes_attempted = 0
        self.failed = 0
        self.outstanding = 0
        self.running = False
        self.latencies: list[float] = []
        self.commits: list[float] = []
        self.late: list[float] = []
        self._t_end = 0.0
        self._drained = asyncio.Event()

    # -- reads -------------------------------------------------------------

    def check_read(self, key: str, t0: float, t1: float,
                   result: Any) -> None:
        value = result.get("value") if result.get("found") else None
        if key in self.written:
            self.deferred.append((key, t0, t1, value))
        elif value != self.content.initial[key]:
            self.wrong += 1

    def judge_deferred(self) -> int:
        """Reads of written keys that returned a value they must not.

        A read over [t0, t1] may return write i's value if that write
        was submitted by t1 and its successor had not been committed for
        longer than ``max_latency`` when the read began.
        """
        bound = self.max_latency + _FRESHNESS_SLACK
        wrong = 0
        for key, t0, t1, value in self.deferred:
            history = [[float("-inf"), float("-inf"),
                        self.content.initial[key]], *self.written[key]]
            for index, (submitted, _committed, candidate) in \
                    enumerate(history):
                if candidate != value or submitted > t1:
                    continue
                successor = history[index + 1] \
                    if index + 1 < len(history) else None
                if successor is None or successor[1] is None \
                        or successor[1] + bound >= t0:
                    break
            else:
                wrong += 1
        return wrong

    # -- writes ------------------------------------------------------------

    def _fire_write(self, due: float) -> None:
        now = clock()
        self.late.append(now - due)
        key = self._write_keys.next()
        value = self._write_rng.randbytes(self._write_half).hex()
        entry = [now, None, value]
        self.written.setdefault(key, []).append(entry)
        self.outstanding += 1
        self.writes_attempted += 1
        self.writer.submit(KVPut(key=key, value=value), None,
                           partial(self._write_done, entry, due))

    def _write_done(self, entry: list[Any], due: float,
                    outcome: dict[str, Any]) -> None:
        now = clock()
        self.outstanding -= 1
        if outcome.get("status") == "committed" and now - due <= OP_TIMEOUT:
            entry[1] = now
            self.commits.append(now - due)
        else:
            self.failed += 1
        if not self.running and self.outstanding == 0:
            self.drained()

    async def seed_write(self) -> None:
        """One committed write before measuring: the write path works."""
        self._drained.clear()
        self._fire_write(clock())
        await asyncio.wait_for(self._drained.wait(), 10.0)
        if self.failed:
            raise RuntimeError("the seeding write did not commit")

    # -- slices ------------------------------------------------------------

    def drained(self) -> None:
        self._t_end = clock()
        self._drained.set()

    def _stop(self) -> None:
        self.running = False
        if self.outstanding == 0:
            self.drained()

    async def run_slice(self) -> dict[str, Any]:
        """Run load for one slice, then drain; its raw measurements."""
        self.latencies = []
        self.commits = []
        self.late = []
        self._drained.clear()
        self.running = True
        loop = self._loop
        loop_start = loop.time()
        cpu_start = time.process_time()
        t_start = clock()
        loop.call_at(loop_start + WRITE_OFFSET, self._fire_write,
                     t_start + WRITE_OFFSET)
        loop.call_at(loop_start + SLICE, self._stop)
        for slot in self.slots:
            slot.issue()
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   SLICE + OP_TIMEOUT + 0.5)
        except asyncio.TimeoutError:
            self._abandon()
        return {
            "elapsed": self._t_end - t_start,
            "cpu": time.process_time() - cpu_start,
            "latencies": self.latencies,
            "commits": self.commits,
            "late": self.late,
        }

    def _abandon(self) -> None:
        """Give up on whatever is still in flight: it failed."""
        self.running = False
        self.failed += self.outstanding
        self.outstanding = 0
        for index, slot in enumerate(self.slots):
            if slot.busy:
                slot.dead = True
                self.slots[index] = _Slot(self, slot.sink, slot.stream)
        self.drained()


# -- counters ----------------------------------------------------------------

def _counters(cluster: LocalCluster) -> dict[str, float]:
    """Everything the per-layer run counters are deltas of."""
    snapshot = cluster.metrics.snapshot()
    snapshot.update(fastpath.stats())
    auditors = cluster.auditors
    snapshot["auditor_cache_hits"] = sum(a.cache_hits for a in auditors)
    snapshot["auditor_cache_misses"] = sum(a.cache_misses for a in auditors)
    return snapshot


def _delta(after: dict[str, float], before: dict[str, float]
           ) -> dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


class _LagTicker:
    """A 10 ms ticker; how late each tick fires is event-loop lag."""

    INTERVAL = 0.010

    def __init__(self) -> None:
        self.lags: list[float] = []
        self._task: "asyncio.Task[None] | None" = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + self.INTERVAL
            await asyncio.sleep(self.INTERVAL)
            self.lags.append(loop.time() - due)

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass


# -- the run -----------------------------------------------------------------

async def set_up(workload: Workload, seed: int
                 ) -> tuple[LocalCluster, LoadDriver]:
    content = Content(workload, seed)
    cluster = await launch(workload, content)
    driver = LoadDriver(workload, content, cluster)
    await driver.seed_write()
    return cluster, driver


async def setup_only(workload: Workload, seed: int,
                     started: float) -> dict[str, Any]:
    """Set up, report how long it took, tear down."""
    cluster, _driver = await set_up(workload, seed)
    setup_s = time.monotonic() - started
    await cluster.aclose()
    return {"setup_s": setup_s}


async def measure(workload: Workload, seed: int, windows: int,
                  trace: bool, started: float,
                  trace_path: str | None = None) -> dict[str, Any]:
    """Measure ``windows`` windows; with ``trace``, every other one traced."""
    tracer = Tracer() if trace else None
    cluster, driver = await set_up(workload, seed)
    setup_s = time.monotonic() - started
    rss_setup_mb = _peak_rss_mb()
    driver.rss_at_reads = workload.rss_reads_per_window * windows
    reference = Reference()
    await reference.start()
    ticker = _LagTicker() if trace else None
    try:
        for _ in range(WARMUP_WINDOWS * SLICES):
            await driver.run_slice()
        if ticker is not None:
            ticker.start()
        records = []
        calib_before = await reference.reading()
        for index in range(windows):
            traced = tracer is not None and index % 2 == 1
            before = _counters(cluster)
            if traced:
                tracer.install()
            slices = []
            for _ in range(SLICES):
                if traced:
                    tracer.on = True
                record = await driver.run_slice()
                if traced:
                    tracer.on = False
                calib_after = await reference.reading()
                record["calib"] = (calib_before + calib_after) / 2
                calib_before = calib_after
                slices.append(record)
            window: dict[str, Any] = {
                "slices": slices, "traced": traced,
                "counters": _delta(_counters(cluster), before)}
            if traced:
                window["trace"] = tracer.uninstall()
            records.append(window)
        if ticker is not None:
            await ticker.stop()
        checks = await _check(cluster, driver)
        if tracer is not None and trace_path is not None:
            tracer.write_jsonl(trace_path)
        return {
            "workload": workload.name,
            "seed": seed,
            "setup_s": setup_s,
            "records": records,
            "calib_readings": reference.readings,
            "lags": ticker.lags if ticker is not None else [],
            "attempted": driver.reads_attempted + driver.writes_attempted,
            "failed": driver.failed,
            "checks": checks,
            "rss_setup_mb": rss_setup_mb,
            "rss_at_reads": driver.rss_at_reads,
            "rss_at_reads_mb": driver.rss_at_reads_mb,
            "rss_end_mb": _peak_rss_mb(),
            "nproc": os.cpu_count(),
            "loadavg1": os.getloadavg()[0],
            "max_shard_share": _max_shard_share(cluster),
        }
    finally:
        await reference.close()
        await cluster.aclose()


def _peak_rss_mb() -> float:
    """This process's peak resident set, from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that across fork *and* exec, so a
    child reports its parent's peak whenever the parent was larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _max_shard_share(cluster: LocalCluster) -> float:
    """Largest share of accepted reads that one shard served."""
    if not isinstance(cluster, ShardedCluster):
        return 1.0
    per_shard = [sum(len(leg.accepted_log) for leg in state.clients)
                 for state in cluster.shards.values()]
    return max(per_shard) / max(1, sum(per_shard))


async def _check(cluster: LocalCluster, driver: LoadDriver
                 ) -> list[dict[str, Any]]:
    """The correctness gate, outside every timed region."""
    config = cluster.config
    loop = asyncio.get_running_loop()
    auditors = cluster.auditors
    # The auditor lags commits by max_latency + audit_grace on purpose;
    # let it reach the last write so every pledge has been audited.
    deadline = loop.time() + config.max_latency + config.audit_grace + 1.0
    while loop.time() < deadline and any(
            a.pledges_audited + a.pledges_skipped < a.pledges_received
            for a in auditors):
        await asyncio.sleep(0.05)
    if isinstance(cluster, ShardedCluster):
        oracle = [check for results in
                  run_shard_safety_checks(cluster).values()
                  for check in results]
    else:
        oracle = run_safety_checks(cluster)
    checks = [check.to_json() for check in oracle]

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    errors = cluster.handler_errors()
    add("no_handler_errors", not errors,
        f"{len(errors)} handler errors {[repr(e) for e in errors[:3]]}")
    detections = sum(a.detections for a in auditors)
    audited = sum(a.pledges_audited for a in auditors)
    received = sum(a.pledges_received for a in auditors)
    add("no_audit_detections", detections == 0,
        f"{detections} detections in {audited} audited pledges")
    add("audit_backlog_drained", audited == received,
        f"{audited} of {received} forwarded pledges audited")
    wrong = driver.wrong + driver.judge_deferred()
    add("values_match_generator", wrong == 0,
        f"{wrong} reads returned a value the generator did not expect "
        f"({len(driver.deferred)} reads of written keys judged against "
        f"the consistency window)")
    attempted = driver.reads_attempted + driver.writes_attempted
    add("no_failed_ops", driver.failed == 0,
        f"{driver.failed} of {attempted} ops failed")
    add("rss_sample_taken", driver.rss_at_reads_mb is not None,
        f"{driver.reads_accepted} reads accepted; peak_rss_mb is sampled "
        f"at read {driver.rss_at_reads}")
    return checks
