"""Tests for the command-line front-end."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import build_parser, cmd_run, main, parse_adversary
from repro.core.adversary import (
    AlwaysLie,
    BrokenSignature,
    Colluding,
    ProbabilisticLie,
    Unresponsive,
)


class TestAdversaryParsing:
    @pytest.fixture
    def rng(self):
        return random.Random(1)

    def test_always_lie(self, rng):
        index, strategy = parse_adversary("0:always-lie", rng)
        assert index == 0 and isinstance(strategy, AlwaysLie)

    def test_probabilistic_with_param(self, rng):
        index, strategy = parse_adversary("3:probabilistic:0.4", rng)
        assert index == 3
        assert isinstance(strategy, ProbabilisticLie)
        assert strategy.lie_rate == 0.4

    def test_colluding(self, rng):
        _index, strategy = parse_adversary("1:colluding:9", rng)
        assert isinstance(strategy, Colluding)

    def test_unresponsive(self, rng):
        _index, strategy = parse_adversary("2:unresponsive:0.3", rng)
        assert isinstance(strategy, Unresponsive)
        assert strategy.drop_rate == 0.3

    def test_broken_signature(self, rng):
        _index, strategy = parse_adversary("2:broken-signature", rng)
        assert isinstance(strategy, BrokenSignature)

    def test_bad_specs_rejected(self, rng):
        import argparse

        for bad in ("noindex", "x:always-lie", "0:made-up"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_adversary(bad, rng)


class TestRunCommand:
    def run_cli(self, *extra: str) -> tuple[int, str]:
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", "--reads", "60", "--seed", "5",
                         "--clients", "4", "--slaves-per-master", "2",
                         "--masters", "2", *extra])
        return code, out.getvalue()

    def test_honest_run_exits_zero(self):
        code, output = self.run_cli()
        assert code == 0
        assert "reads accepted          : 60" in output
        assert "window violations       : 0" in output

    def test_json_output(self):
        code, output = self.run_cli("--json")
        assert code == 0
        summary = json.loads(output)
        assert summary["classification"]["accepted_total"] == 60
        assert summary["consistency_window_violations"] == 0

    def test_adversarial_run_detected(self):
        code, output = self.run_cli("--adversary", "0:always-lie",
                                    "--adversary", "1:always-lie",
                                    "--adversary", "2:always-lie",
                                    "--adversary", "3:always-lie",
                                    "-p", "0.3")
        assert code == 0  # everything wrong was detected
        assert "slaves excluded" in output

    def test_writes(self):
        code, output = self.run_cli("--write-every", "20",
                                    "--max-latency", "2.0",
                                    "--keepalive-interval", "0.5")
        assert code == 0
        assert "writes committed        : 3" in output

    def test_content_types(self):
        for content in ("fs", "db", "catalog"):
            code, _out = self.run_cli("--content", content,
                                      "--content-size", "40")
            assert code == 0, content

    def test_multi_auditor(self):
        code, output = self.run_cli("--auditors", "2", "-p", "0.0")
        assert code == 0
        assert "auditor coverage        : 60/60" in output

    def test_crash_schedule_reported(self):
        code, output = self.run_cli("--masters", "3",
                                    "--crash", "master-01@1,2")
        assert code == 0
        assert "benign failures         : 1 crashes, 1 recoveries" in output
        assert "crash" in output and "master-01" in output

    def test_crash_schedule_json_events(self):
        code, output = self.run_cli("--masters", "3", "--json",
                                    "--crash", "master-02@1")
        assert code == 0
        failures = json.loads(output)["failures"]
        assert failures["crashes"] == 1
        assert failures["recoveries"] == 0
        assert failures["events"][0]["node"] == "master-02"

    def test_overlapping_crashes_converge(self):
        """The sequencer and the auditor down together: the run exits 0
        only if every master ends at one version (a forked order ended
        this run at 8, 7, 7) and every slave is served by exactly one
        live master (divided by per-member views, both of master-00's
        slaves ended it served by two)."""
        code, output = self.run_cli(
            "--seed", "0",
            "--masters", "3", "--clients", "4", "--content-size", "5",
            "--reads", "24", "--read-rate", "1.6667", "--write-every", "3",
            "--max-latency", "2", "--keepalive-interval", "1", "-p", "0.1",
            "--crash", "master-00@5.7,5", "--crash", "zz-auditor-00@6.2,5",
            "--json")
        summary = json.loads(output)
        assert code == 0
        assert summary["masters_converged"]
        assert len(set(summary["versions"].values())) == 1
        assert summary["ownership_violations"] == []
        assert len(summary["slave_owners"]) == 6
        assert all(len(owners) == 1
                   for owners in summary["slave_owners"].values())

    def test_clients_follow_the_live_auditor(self):
        """Two auditors, each down in turn, the second for good: the run
        exits 0 only if every client ends on the live auditor, the one
        every master names (a client failed over twice was once left on
        the dead one)."""
        code, output = self.run_cli(
            "--auditors", "2", "--crash", "zz-auditor-01@2,3",
            "--crash", "zz-auditor-00@8", "--json")
        summary = json.loads(output)
        assert code == 0
        assert summary["ownership_violations"] == []
        assert summary["client_auditors"] == {
            f"client-{i:02d}": "zz-auditor-01" for i in range(4)}

    def test_bad_crash_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --crash"):
            self.run_cli("--crash", "nonsense")
        with pytest.raises(SystemExit, match="bad --crash"):
            self.run_cli("--crash", "ghost-99@1")

    def test_churn_flags_go_together(self):
        with pytest.raises(SystemExit, match="go together"):
            self.run_cli("--churn-mtbf", "10")

    def test_churn_run_survives(self):
        # Aggressive trusted-server churn: the run must still complete
        # and the summary must carry the failure log.
        code, output = self.run_cli("--masters", "3", "--json",
                                    "--churn-mtbf", "2.0",
                                    "--churn-mttr", "0.5",
                                    "--seed", "9")
        summary = json.loads(output)
        assert summary["failures"]["crashes"] >= 1
        assert code in (0, 1)  # churn may legitimately cost liveness


class TestDemoCommand:
    def test_all_scenarios_run(self):
        import contextlib
        import io

        for scenario in ("cdn", "byzantine", "quorum"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["demo", "--scenario", scenario])
            assert code == 0, (scenario, out.getvalue())
            assert "scenario:" in out.getvalue()


@pytest.mark.net
def _stub_scenarios(monkeypatch, passed: bool) -> list[tuple[str, int]]:
    """Make ``run_scenario_sync`` return a canned verdict; returns the
    (name, seed) calls it receives."""
    import repro.chaos
    from repro.chaos.invariants import CheckResult
    from repro.chaos.scenarios import ScenarioVerdict

    calls: list[tuple[str, int]] = []

    def run_scenario_sync(name: str, seed: int = 0) -> ScenarioVerdict:
        calls.append((name, seed))
        return ScenarioVerdict(
            scenario=name, seed=seed, passed=passed,
            checks=[CheckResult("write_committed", True, "1 of 1"),
                    CheckResult("no_forged_reads", passed, "0 wrong")],
            counters={"reads_accepted": 2.0})

    monkeypatch.setattr(repro.chaos, "run_scenario_sync", run_scenario_sync)
    return calls


class TestNetDemoCommand:
    def test_full_cycle_over_sockets(self, monkeypatch, capsys):
        """``chaos --scenario net_demo`` runs the scenario at the given
        seed and prints its verdict as JSON, exit 0 when it passes (the
        live run and its check names: test_chaos_scenarios.py::
        test_net_demo_cycle)."""
        calls = _stub_scenarios(monkeypatch, passed=True)
        code = main(["chaos", "--scenario", "net_demo", "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert calls == [("net_demo", 11)]
        assert json.loads(captured.out) == [{
            "scenario": "net_demo", "seed": 11, "passed": True,
            "checks": [
                {"name": "write_committed", "passed": True,
                 "detail": "1 of 1"},
                {"name": "no_forged_reads", "passed": True,
                 "detail": "0 wrong"}],
            "timings": {}, "counters": {"reads_accepted": 2.0}}]
        assert captured.err == ""


class TestChaosCommand:
    def test_list_names_every_scenario(self, capsys):
        from repro.chaos import SCENARIOS

        assert main(["chaos", "--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(SCENARIOS)
        assert {"net_demo", "shard_rebalance"} <= set(listed)

    def test_a_failed_scenario_exits_1(self, monkeypatch, capsys):
        calls = _stub_scenarios(monkeypatch, passed=False)
        code = main(["chaos", "--scenario", "net_demo",
                     "--scenario", "master_crash", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert calls == [("net_demo", 3), ("master_crash", 3)]
        assert [verdict["passed"] for verdict in json.loads(captured.out)] \
            == [False, False]
        assert captured.err == "FAILED: ['net_demo', 'master_crash']\n"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.masters == 3
        assert args.double_check_probability == 0.05

    def test_obs_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.seed == 0
        assert args.out == "obs-out"

    def test_obs_overrides(self):
        args = build_parser().parse_args(
            ["obs", "--seed", "3", "--out", "/tmp/traces"])
        assert args.seed == 3
        assert args.out == "/tmp/traces"
