"""Shared infrastructure for the experiment benchmarks.

Every ``bench_eXX_*.py`` module is both:

* a pytest-benchmark target -- ``pytest benchmarks/ --benchmark-only``
  times a representative kernel of each experiment and prints the
  experiment's result table once;
* a standalone script -- ``python benchmarks/bench_eXX_*.py`` runs the
  full sweep and prints the table (what EXPERIMENTS.md records).

Set ``REPRO_BENCH_FULL=1`` to run the full sweeps under pytest too.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from typing import Any, Callable, Iterable, Sequence

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.core.config import ProtocolConfig
from repro.core.system import DeploymentSpec, ReplicationSystem

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def scaled(full_value: int, quick_value: int) -> int:
    """Pick a sweep size depending on full/quick mode."""
    return full_value if FULL else quick_value


def run_parallel_sweep(worker: Callable[..., Any],
                       points: Iterable[tuple],
                       processes: int | None = None) -> list[Any]:
    """Fan independent sweep points across worker processes.

    ``worker`` must be a module-level callable (it is pickled) and each
    entry of ``points`` is its argument tuple.  Results come back in the
    order of ``points`` regardless of which process finished first, and
    every point carries its own seed inside its arguments, so a parallel
    sweep is bit-identical to a serial one -- each worker process has its
    own verify cache, and :class:`ReplicationSystem` starts cold per
    build anyway.

    Process count: explicit ``processes`` arg, else the
    ``REPRO_BENCH_PROCS`` environment variable, else ``os.cpu_count()``.
    A count of 1 (or a single point, or a pool that fails to start --
    e.g. a sandbox without working semaphores) degrades to an inline
    serial loop.
    """
    points = [tuple(point) for point in points]
    if processes is None:
        env = os.environ.get("REPRO_BENCH_PROCS", "")
        if env:
            try:
                processes = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_BENCH_PROCS must be an integer, got {env!r}"
                ) from None
        else:
            processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(points) or 1))
    if processes == 1 or len(points) <= 1:
        return [worker(*point) for point in points]
    try:
        # Fork (where available) so workers inherit imported modules
        # instead of re-importing the benchmark under "spawn".
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes) as pool:
            return pool.starmap(worker, points)
    except (OSError, PermissionError):
        return [worker(*point) for point in points]


def default_store(num_keys: int = 200) -> Callable[[], KeyValueStore]:
    def factory() -> KeyValueStore:
        return KeyValueStore({f"k{i:04d}": i for i in range(num_keys)})
    return factory


def build_system(protocol: ProtocolConfig | None = None,
                 **spec_overrides: Any) -> ReplicationSystem:
    spec_kwargs: dict[str, Any] = dict(
        num_masters=2, slaves_per_master=2, num_clients=4, seed=1,
        protocol=protocol or ProtocolConfig(),
        store_factory=default_store())
    spec_kwargs.update(spec_overrides)
    system = ReplicationSystem.build(DeploymentSpec(**spec_kwargs))
    system.start()
    return system


def schedule_uniform_reads(system: ReplicationSystem, count: int,
                           rate: float, num_keys: int = 200,
                           seed: int = 7) -> float:
    """Schedule ``count`` random point reads at ``rate``/s; returns end t."""
    rng = random.Random(seed)
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        client = system.clients[i % len(system.clients)]
        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(num_keys):04d}"))
    return t


def schedule_write(system: ReplicationSystem, at: float, key: str,
                   value: Any) -> None:
    system.schedule_op(system.clients[0], at, KVPut(key=key, value=value))


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    """Aligned fixed-width table, the format EXPERIMENTS.md records."""
    rows = [tuple(_fmt(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 1000 or (cell != 0 and abs(cell) < 0.001):
            return f"{cell:.3e}"
        return f"{cell:.4f}".rstrip("0").rstrip(".")
    return str(cell)
