"""The verdict of a simulator run, and its markdown report.

:func:`judge_run` judges a finished
:class:`~repro.core.system.ReplicationSystem` run once: the run summary
with the checks' keys added, and a :class:`RunVerdict` that passes when
no accepted read falls outside the consistency window, every wrongly
accepted read is known to the audit, the live masters converged and no
slave or client has a dead or double owner.  ``repro-sim run`` exits,
prints its JSON and its text by it.

``render_markdown_report(system)`` turns the same run into a
self-contained markdown document: deployment shape, traffic and defence
counters, latency percentiles, auditor statistics with backlog
sparkline, and the verdict.  The CLI exposes it as
``repro-sim run --report FILE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core import oracle
from repro.core.system import ReplicationSystem
from repro.metrics import summarize


@dataclass(frozen=True)
class RunVerdict:
    """The summary ``repro-sim run`` prints, and the full list of
    consistency-window violations behind its count."""

    summary: dict[str, Any]
    violations: list[dict[str, Any]]

    @property
    def passed(self) -> bool:
        summary = self.summary
        return (not self.violations
                and summary["auditor"]["detections"]
                >= summary["classification"]["accepted_wrong"]
                and summary["masters_converged"]
                and not summary["ownership_violations"])


def judge_run(system: ReplicationSystem) -> RunVerdict:
    """Judge a finished run: ``system.summary()`` plus the checks."""
    summary = system.summary()
    violations = system.check_consistency_window()
    summary["consistency_window_violations"] = len(violations)
    # Replicas that delivered the same commits hold the same state: the
    # masters still up must end at one version and one digest.
    live = [m for m in system.masters if not m.crashed]
    summary["masters_converged"] = len(
        {(m.version, m.store.state_digest()) for m in live}) <= 1
    # And hold one ownership map: every slave served by one live master,
    # every client forwarding to the auditor every live master names.
    summary["slave_owners"] = oracle.slave_owners(system.masters,
                                                  system.slaves)
    summary["client_auditors"] = oracle.client_auditors(system.clients)
    summary["ownership_violations"] = oracle.ownership_violations(
        [*system.masters, *system.auditors], system.slaves, system.clients)
    return RunVerdict(summary, violations)


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def render_markdown_report(system: ReplicationSystem,
                           title: str = "Simulation run report",
                           verdict: RunVerdict | None = None) -> str:
    """Render the run and its verdict (judged here if not given) as a
    markdown document."""
    verdict = verdict or judge_run(system)
    summary, violations = verdict.summary, verdict.violations
    counters = summary["counters"]

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    classification = summary["classification"]
    detections = summary["auditor"]["detections"]
    config = system.config
    sections: list[str] = [f"# {title}", ""]

    # -- deployment ------------------------------------------------------
    spec = system.spec
    sections += [
        "## Deployment",
        "",
        _table(["masters", "slaves", "auditors", "clients", "seed",
                "max_latency", "p(double-check)", "read quorum",
                "audit fraction"],
               [(spec.num_masters,
                 spec.num_masters * spec.slaves_per_master,
                 spec.num_auditors, spec.num_clients, spec.seed,
                 config.max_latency, config.double_check_probability,
                 config.read_quorum, config.audit_fraction)]),
        "",
        f"Simulated time: **{system.now:.1f} s** — "
        f"{system.simulator.events_processed} events, "
        f"{system.network.messages_delivered} messages delivered, "
        f"{system.network.messages_dropped} dropped.",
        "",
    ]

    # -- traffic ---------------------------------------------------------
    latency = summarize(system.metrics.samples.get("read_latency", []))
    sections += [
        "## Traffic",
        "",
        _table(["reads accepted", "reads failed", "writes committed",
                "double-checks served", "sensitive reads"],
               [(c("reads_accepted"), c("reads_failed"),
                 c("writes_committed"), c("double_checks_served"),
                 c("sensitive_reads"))]),
        "",
    ]
    if latency["count"]:
        sections += [
            _table(["read latency", "mean", "p50", "p90", "p99", "max"],
                   [("seconds", latency["mean"], latency["p50"],
                     latency["p90"], latency["p99"], latency["max"])]),
            "",
        ]

    # -- defence -----------------------------------------------------------
    sections += [
        "## Defence",
        "",
        _table(["lies served", "caught red-handed", "caught by audit",
                "slaves excluded", "clients reassigned", "reads tainted"],
               [(c("slave_lies_served"), c("immediate_detections"),
                 detections,
                 c("exclusions"), c("clients_reassigned"),
                 c("reads_tainted"))]),
        "",
    ]

    # -- audit ---------------------------------------------------------------
    received = sum(a.pledges_received for a in system.auditors)
    audited = sum(a.pledges_audited for a in system.auditors)
    skipped = sum(a.pledges_skipped for a in system.auditors)
    sections += [
        "## Audit",
        "",
        _table(["auditors", "pledges received", "audited", "skipped",
                "coverage", "cache hit rate"],
               [(len(system.auditors), received, audited, skipped,
                 f"{audited / received:.1%}" if received else "n/a",
                 f"{system.auditor.cache_hit_rate():.2f}")]),
        "",
    ]
    backlog = system.metrics.timelines.get("auditor_backlog_seconds")
    if backlog is not None and backlog.points and (backlog.max() or 0) > 0:
        sections += [
            f"Audit backlog over time (peak "
            f"{backlog.max():.2f} s of work):",
            "",
            "```",
            backlog.sparkline(width=72),
            "```",
            "",
        ]

    # -- verdict ------------------------------------------------------------
    wrong = classification["accepted_wrong"]
    problems = summary["ownership_violations"]
    sections += [
        "## Verdict",
        "",
        _table(["accepted total", "accepted wrong",
                "wrong known to audit", "window violations",
                "masters converged", "ownership violations"],
               [(classification["accepted_total"], wrong,
                 min(wrong, detections), len(violations),
                 "yes" if summary["masters_converged"] else "**no**",
                 len(problems))]),
        "",
    ]
    if not summary["masters_converged"]:
        sections += ["**MASTERS DIVERGED:** " + ", ".join(
            f"{m.node_id} at version {m.version}, state "
            f"{m.store.state_digest()[:12]}"
            for m in system.masters if not m.crashed), ""]
    if problems:
        sections += ["**OWNERSHIP VIOLATIONS:**", "",
                     *(f"- {problem}" for problem in problems), ""]
    if violations:
        sections += ["**CONSISTENCY VIOLATIONS:**", ""]
        sections.append(_table(
            ["client", "request", "version", "accepted at",
             "next commit at"],
            [(v["client"], v["request_id"], v["version"],
              v["accepted_at"], v["next_commit_at"])
             for v in violations]))
        sections.append("")
    sections.append(
        "**Run verdict: "
        + ("SAFE — the accountability guarantee held.**" if verdict.passed
           else "UNSAFE — see violations above.**"))
    sections.append("")
    return "\n".join(sections)
