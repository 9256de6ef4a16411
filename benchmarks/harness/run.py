"""Benchmark entry point: one workload per invocation.

    python3 benchmarks/harness/run.py --workload read_seq --seed 1 \
        --seconds 16 --trace 0

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exits non-zero when any correctness check fails.

The work happens in child processes, one after another: extra set-ups
(so ``setup_s`` is a median), the measured run, the per-layer kernels
(traced runs only) and the detection drill.
Each starts from a fresh interpreter, so process-wide caches start cold
and ``peak_rss_mb`` belongs to the measured run alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Where traced runs leave their span files (git-ignored).
OUT_DIR = ROOT / ".bench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
_CHILD_TIMEOUT = 150.0


def _use_source_tree() -> None:
    """Make ``repro`` (from src/) and the harness modules importable."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"no program to measure: {source / 'repro'} "
                         f"is missing")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- children ----------------------------------------------------------------

def _child(mode: str, workload: str, seed: int, seconds: int,
           trace: bool) -> dict[str, Any]:
    """Run one child to completion; its last stdout line is its result."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--started", repr(time.monotonic())]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=_CHILD_TIMEOUT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{mode} child for {workload} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child_main(args: argparse.Namespace) -> int:
    import asyncio

    _use_source_tree()
    if args.child == "drill":
        from drill import run_drill
        result = asyncio.run(run_drill(args.seed))
    elif args.child == "kernels":
        from kernels import run_kernels
        result = asyncio.run(run_kernels())
    else:
        import measure
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        if args.child == "setup":
            result = asyncio.run(measure.setup_only(
                workload, args.seed, args.started))
        else:
            trace = bool(args.trace)
            trace_path = None
            if trace:
                OUT_DIR.mkdir(exist_ok=True)
                trace_path = str(OUT_DIR / f"spans-{workload.name}-"
                                           f"seed{args.seed}.jsonl")
            result = asyncio.run(measure.measure(
                workload, args.seed, args.seconds, trace, args.started,
                trace_path))
            result["trace_path"] = trace_path
    print(json.dumps(result))
    return 0


# -- one workload --------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int,
                 trace: bool) -> dict[str, Any]:
    """Everything one invocation measures, as one JSON-shaped dict."""
    _use_source_tree()
    from summary import summarise

    setups = []
    if not trace:
        setups = [_child("setup", workload, seed, seconds, trace)["setup_s"]
                  for _ in range(SETUPS - 1)]
    run = _child("measure", workload, seed, seconds, trace)
    setups.append(run["setup_s"])
    if trace:
        run["kernels"] = _child("kernels", workload, seed, seconds, trace)
    drill = _child("drill", workload, seed, seconds, trace)
    checks = run["checks"] + drill["checks"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(check["passed"] for check in checks),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "checks": checks,
        "metrics": summarise(run, setups, trace),
        "trace_path": run.get("trace_path"),
    }


def benchmark_spec() -> dict[str, Any]:
    """BENCHMARK.json: what this benchmark promises to print."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "measure", "kernels", "drill"))
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args)
    _use_source_tree()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    if args.seconds < 2:
        parser.error("--seconds must be at least 2")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for check in result["checks"]:
        if not check["passed"]:
            print(f"FAILED {check['name']}: {check['detail']}",
                  file=sys.stderr)
    metrics = result["metrics"]
    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]}
                    for m in declared},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
