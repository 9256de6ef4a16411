"""Whole sets of runs, and comparisons between them.

    PYTHONPATH=src python -m benchmarks.harness run --seed 1 --out A.json
    PYTHONPATH=src python -m benchmarks.harness run --seed 1 --traced \
        --repeat 3 --out B.json
    PYTHONPATH=src python -m benchmarks.harness compare A.json B.json

``run`` performs one *set* (every workload once, through the same
``run.py`` the driver calls, for ``run_seconds`` windows) or
``--repeat K`` sets back to back, prints every metric by name with unit,
sample count and bound, and exits non-zero if any correctness check
failed.  ``compare`` judges B against A, one row per (end-to-end metric,
workload); a row resolves only where both sides know their noise, so
record at least two sets a side (``--repeat 2``) for a full verdict.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run as contract  # noqa: E402  (needs the path entry above)

Set = dict[str, dict[str, Any]]


# -- run -----------------------------------------------------------------------

def _run_set(names: list[str], seed: int, seconds: int,
             traced: bool) -> Set:
    """Every named workload once; with ``traced``, a traced run as well."""
    results: Set = {}
    for name in names:
        result = contract.run_workload(name, seed, seconds, trace=False)
        if traced:
            layers = contract.run_workload(name, seed, seconds, trace=True)
            # End-to-end metrics always come from the untraced run.
            result["metrics"] = {**layers["metrics"], **result["metrics"]}
            result["checks"] += layers["checks"]
            result["correct"] = result["correct"] and layers["correct"]
            result["trace_path"] = layers["trace_path"]
        results[name] = result
        _print_workload(name, result)
    return results


def _print_workload(name: str, result: dict[str, Any]) -> None:
    bounds = {m["name"]: m["bound"]
              for m in contract.benchmark_spec()["end_to_end"]}
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"\n== {name}: {verdict}, {result['failed']} of "
          f"{result['attempted']} ops failed")
    for check in result["checks"]:
        mark = "ok  " if check["passed"] else "FAIL"
        print(f"   {mark} {check['name']}: {check['detail']}")
    for metric, entry in result["metrics"].items():
        bound = f"bound {bounds[metric]:.2f}" if metric in bounds else ""
        print(f"   {metric:44s} {entry['value']:14.5f} {entry['unit']:8s}"
              f" n={entry['samples']:<8d} {bound}")
    if result.get("trace_path"):
        print(f"   spans: {result['trace_path']}")


def _print_repeats(sets: list[Set]) -> None:
    """Per-metric min / median / max across sets: the A/A spread."""
    end_to_end = [m["name"]
                  for m in contract.benchmark_spec()["end_to_end"]]
    print(f"\n== spread over {len(sets)} sets (min / median / max, "
          f"range as a share of the median)")
    for name in sets[0]:
        for metric in end_to_end:
            values = [s[name]["metrics"][metric]["value"] for s in sets]
            middle = statistics.median(values)
            print(f"   {name:10s} {metric:22s} {min(values):12.4f} "
                  f"{middle:12.4f} {max(values):12.4f} "
                  f"{(max(values) - min(values)) / middle:8.3f}")


def _command_run(args: argparse.Namespace) -> int:
    spec = contract.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = [_run_set(names, args.seed, seconds, args.traced)
            for _ in range(args.repeat)]
    if len(sets) > 1:
        _print_repeats(sets)
    correct = all(result["correct"] for s in sets for result in s.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "traced": args.traced, "correct": correct,
                       "sets": sets, "claim": None}, out, indent=1)
            out.write("\n")
    return 0 if correct else 1


# -- compare -------------------------------------------------------------------

def _side(sets: list[Set], workload: str, metric: str
          ) -> tuple[float, float | None]:
    """(median value, noise) of one metric on one side.

    With several sets, noise is what was observed: the run-to-run range
    over the median.  With one set it is the run's own estimate (see
    ``summary._end_to_end``), or None where the run has none; and for a
    metric in reference exchanges it is at least the run's
    ``env.calib_us_spread``, how far the machine's speed moved under it.
    """
    results = [s[workload]["metrics"] for s in sets]
    values = [metrics[metric]["value"] for metrics in results]
    middle = statistics.median(values)
    if len(values) > 1:
        return middle, (max(values) - min(values)) / middle
    entry = results[0][metric]
    noise = entry.get("noise")
    if noise is not None and entry["unit"].startswith("x"):
        noise = max(noise, results[0]["env.calib_us_spread"]["value"])
    return middle, noise


def _load_sets(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _command_compare(args: argparse.Namespace) -> int:
    file_a, file_b = _load_sets(args.a), _load_sets(args.b)
    if file_a["seconds"] != file_b["seconds"]:
        print(f"not comparable: A measured {file_a['seconds']} windows per "
              f"workload, B {file_b['seconds']}")
        return 2
    if file_a["seed"] != file_b["seed"]:
        print(f"note: A is seed {file_a['seed']}, B seed {file_b['seed']}; "
              f"deltas include the difference between their inputs")
    a, b = file_a["sets"], file_b["sets"]
    worse = 0
    print(f"{'workload':10s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'delta':>8s} {'bound':>6s} {'noise':>6s}  verdict")
    for metric in contract.benchmark_spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a[0]:
            if workload not in b[0]:
                continue
            value_a, noise_a = _side(a, workload, name)
            value_b, noise_b = _side(b, workload, name)
            delta = value_b / value_a - 1.0  # every metric: lower is better
            if noise_a is None or noise_b is None:
                verdict, shown = "unresolved", "     -"
            else:
                noise = max(noise_a, noise_b)
                shown = f"{noise:6.3f}"
                verdict = "unresolved" if noise > bound else \
                    "worse" if delta > bound else "ok"
            worse += verdict == "worse"
            print(f"{workload:10s} {name:22s} {value_a:12.4f} "
                  f"{value_b:12.4f} {delta:+8.3f} {bound:6.2f} "
                  f"{shown}  {verdict}")
    for label, sets in (("A", a), ("B", b)):
        failed = [(workload, result["failed"]) for s in sets
                  for workload, result in s.items()
                  if result["failed"] or not result["correct"]]
        print(f"{label}: failed ops or checks on {failed or 'no workload'}")
        worse += len(failed) if label == "B" else 0
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run sets of all workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--traced", action="store_true",
                     help="add a traced run per workload (per-layer metrics)")
    run.add_argument("--repeat", type=int, default=1,
                     help="sets to run back to back")
    run.add_argument("--out", help="write the sets to this JSON file")
    run.set_defaults(handler=_command_run)
    compare = commands.add_parser("compare", help="judge B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=_command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
