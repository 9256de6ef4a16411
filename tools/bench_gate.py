"""CI gate on one benchmark run: correct, and a counted metric in bound.

    python3 benchmarks/harness/run.py --workload read_sat --seed 1 \
        --seconds 2 --trace 1 \
        | python -m tools.bench_gate net.transport.msgs_per_read 2.5
    python3 benchmarks/harness/run.py --workload read_seq --seed 1 \
        --seconds 2 --trace 0 \
        | python -m tools.bench_gate wire_bytes_per_read 385

Reads the run's output on standard input -- its last line is the result
object -- and exits non-zero unless the run was ``correct`` (oracle,
value check, ``audit_backlog_drained``, detection drill) and the named
metric is at most the limit.  Meant for *counts*, which repeat on any
machine; a two-second run's timings do not.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    name, limit = argv[0], float(argv[1])
    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("bench_gate: the run printed nothing", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not result["correct"]:
        # The run has already named the failed checks on stderr.
        print("bench_gate: the run is not correct", file=sys.stderr)
        return 1
    value = result["metrics"][name]["value"]
    verdict = "ok" if value <= limit else "over the limit"
    print(f"bench_gate: {name} = {value:.3f} (limit {limit:g}): {verdict}")
    return 0 if value <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
