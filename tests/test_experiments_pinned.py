"""The simulator experiments print the bytes pinned in tests/data.

Each of E1-E9 and A1-A4 (``benchmarks/bench_e0[1-9]*.py``,
``benchmarks/bench_a0*.py``) is a deterministic function of its seeds, so
a change that is meant to leave the protocol's behaviour alone must leave
their output alone too, byte for byte.  Each script runs in quick mode as
a subprocess -- ``PYTHONPATH=src REPRO_BENCH_PROCS=1`` -- and its stdout
is held against ``tests/data/experiments/<name>.txt``; a mismatch prints
the unified diff.  E10 (wall-clock crypto timings) and the benchmark
harness are not deterministic and stay out.

A change that moves an experiment on purpose regenerates its file with
the same command and says why in its change note:

    REPRO_BENCH_PROCS=1 PYTHONPATH=src python benchmarks/<name>.py \\
        > tests/data/experiments/<name>.txt
"""

from __future__ import annotations

import difflib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "experiments"
SCRIPTS = sorted([*ROOT.glob("benchmarks/bench_e0[1-9]*.py"),
                  *ROOT.glob("benchmarks/bench_a0*.py")])


def test_every_experiment_is_pinned():
    assert len(SCRIPTS) == 13
    assert sorted(p.stem for p in SCRIPTS) == sorted(
        p.stem for p in PINNED.glob("*.txt"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_experiment_prints_the_pinned_bytes(script):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_FULL"}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_BENCH_PROCS="1")
    run = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    expected = (PINNED / f"{script.stem}.txt").read_text()
    if run.stdout != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            run.stdout.splitlines(keepends=True),
            fromfile=f"pinned/{script.stem}.txt",
            tofile=f"now/{script.stem}.txt"))
        pytest.fail(f"{script.name} printed other bytes:\n{diff}")
