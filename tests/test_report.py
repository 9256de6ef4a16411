"""Tests for the markdown run-report generator."""

from __future__ import annotations

import random

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import AlwaysLie
from repro.core.config import ProtocolConfig
from repro.report import judge_run, render_markdown_report

from .conftest import make_system


SAFE = "**Run verdict: SAFE — the accountability guarantee held.**"
UNSAFE = "**Run verdict: UNSAFE — see violations above.**"


def run_small(adversaries=None, p=0.1, **overrides):
    system = make_system(protocol=ProtocolConfig(
        double_check_probability=p, max_latency=2.0,
        keepalive_interval=0.5), adversaries=adversaries or {},
        **overrides)
    system.start()
    rng = random.Random(1)
    t = system.now
    for i in range(40):
        t += 0.25
        system.schedule_op(system.clients[i % 4], t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    system.schedule_op(system.clients[0], system.now + 2.0,
                       KVPut(key="w", value=1))
    system.run_for(t - system.now + 60.0)
    return system


class TestReport:
    def test_sections_present(self):
        report = render_markdown_report(run_small())
        for heading in ("# Simulation run report", "## Deployment",
                        "## Traffic", "## Defence", "## Audit",
                        "## Verdict"):
            assert heading in report

    def test_safe_verdict_for_honest_run(self):
        report = render_markdown_report(run_small())
        assert SAFE in report
        assert "CONSISTENCY VIOLATIONS" not in report

    def test_counts_reflected(self):
        system = run_small()
        report = render_markdown_report(system)
        accepted = int(system.metrics.count("reads_accepted"))
        assert f"| {accepted} |" in report

    def test_adversarial_run_still_safe_verdict(self):
        """Wrong accepts covered by audit detections stay SAFE -- that is
        the accountability guarantee, not wrongness prevention."""
        system = run_small(adversaries={0: AlwaysLie()}, p=0.0)
        report = render_markdown_report(system)
        assert SAFE in report

    def test_diverged_masters_render_unsafe(self):
        """The report and ``repro-sim run`` read one verdict: masters
        that end at one version with two states fail both."""
        system = run_small(seed=3)
        system.masters[1].store.apply_write(KVPut(key="w", value="forked"))
        verdict = judge_run(system)
        assert not verdict.passed
        assert not verdict.summary["masters_converged"]
        report = render_markdown_report(system, verdict=verdict)
        assert UNSAFE in report and SAFE not in report
        assert "**MASTERS DIVERGED:**" in report
        assert render_markdown_report(system) == report

    def test_custom_title(self):
        report = render_markdown_report(run_small(), title="Nightly soak")
        assert report.startswith("# Nightly soak")

    def test_cli_report_flag(self, tmp_path):
        import contextlib
        import io

        from repro.cli import main

        target = tmp_path / "report.md"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", "--reads", "30", "--seed", "3",
                         "--masters", "2", "--slaves-per-master", "2",
                         "--clients", "4", "--report", str(target)])
        assert code == 0
        text = target.read_text()
        assert "## Verdict" in text
        assert "report written to" in out.getvalue()
