"""Schema smoke for the benchmark harness (two-window runs of read_seq).

Collected by ``pytest benchmarks/ --benchmark-only``.  It does not
judge speed: it checks that an untraced and a traced run print every
metric ``BENCHMARK.json`` declares, with a unit, that no operation
failed, and that the traced layers add up to the traced wall time.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run as contract  # noqa: E402  (needs the path entry above)
from tracing import LAYERS  # noqa: E402

_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_WINDOWS = 2


def _both_runs() -> dict[str, dict]:
    return {
        "end_to_end": contract.run_workload("read_seq", 1, _WINDOWS, False),
        "per_layer": contract.run_workload("read_seq", 1, _WINDOWS, True),
    }


def _check_details(declared: dict) -> None:
    """details.json says, for every declared per-layer metric, which
    end-to-end metrics it should move and on which workloads."""
    with open(contract.HERE / "details.json", encoding="utf-8") as handle:
        details = json.load(handle)
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert set(details["workloads"]) == workloads
    assert set(details["per_layer"]) == \
        {m["name"] for m in declared["per_layer"]}
    for name, entry in details["per_layer"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["on"]) <= workloads, name
    for name, workload in details["workloads"].items():
        why = next(w["why"] for w in declared["workloads"]
                   if w["name"] == name)
        assert f"read_tail_x is p{workload['tail_pct']}" in why, name


def test_harness_schema(benchmark):
    runs = benchmark.pedantic(_both_runs, rounds=1, iterations=1)
    declared = contract.benchmark_spec()
    _check_details(declared)
    for group, result in runs.items():
        failed = [c for c in result["checks"] if not c["passed"]]
        assert result["correct"], failed
        assert result["failed"] == 0
        metrics = result["metrics"]
        for metric in declared[group]:
            name = metric["name"]
            assert _NAME.fullmatch(name), name
            assert name in metrics, f"{group} run lacks {name}"
            assert metrics[name]["unit"] == metric["unit"], name
            assert metrics[name]["value"] == metrics[name]["value"], \
                f"{name} is NaN"
    assert runs["end_to_end"]["metrics"]["failed_frac"]["value"] == 0

    traced = runs["per_layer"]["metrics"]
    parts = sum(traced[f"trace.{layer}.self_x_per_read"]["value"]
                for layer in LAYERS)
    remainder = traced["trace.eventloop.self_x_per_read"]["value"]
    assert remainder >= 0, "layer self times exceed the traced wall time"
    parts += remainder
    wall = traced["trace.wall_x_per_read"]["value"]
    assert abs(parts - wall) <= 0.05 * wall, (parts, wall)
    assert "trace.overhead_frac" in traced
