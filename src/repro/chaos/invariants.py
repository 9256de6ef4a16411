"""Named pass/fail verdicts over the offline safety oracle.

The ground truth itself -- reference-master choice, archive replay,
per-read classification, window violations -- is
:mod:`repro.core.oracle`, shared with the simulator.  This module turns
it into the :class:`CheckResult` list chaos scenarios and the benchmark
report, and adds the two checks only a faulted deployment needs: the
surviving trusted set converged on one history, and no client is left
pointing at a crashed master.

These checks close the loop the paper's Section 3.5 leaves to the
reader: after crashes, partitions and corrupted frames, no client may
have accepted a stale or forged result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.oracle import (
    ClusterLike,
    classify_accepted_reads,
    consistency_window_violations,
    reference_master,
    trusted_version_stores,
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One named invariant verdict with a human-readable detail."""

    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}


def check_no_forged_reads(cluster: ClusterLike) -> CheckResult:
    """Every accepted read matches the trusted re-execution at its version."""
    reads = classify_accepted_reads(cluster)
    wrong = [record["request_id"] for record in reads.wrong]
    total = reads.correct + len(wrong) + reads.beyond_history
    # A version beyond the reference archive would mean a client accepted
    # content the trusted history cannot account for -- treat as failure.
    passed = not wrong and not reads.beyond_history
    return CheckResult(
        name="no_forged_reads", passed=passed,
        detail=(f"{total} accepted reads, {len(wrong)} forged "
                f"({wrong[:5]}), {reads.beyond_history} beyond trusted "
                f"history" if not passed else f"{total} accepted reads all "
                f"match trusted history (reference "
                f"{reads.reference.node_id})"))


def check_consistency_window(cluster: ClusterLike,
                             slack: float = 0.05) -> CheckResult:
    """Section 3.1's max_latency bound over every accepted read."""
    violations = len(consistency_window_violations(cluster, slack))
    total = sum(len(client.accepted_log) for client in cluster.clients)
    bound = cluster.config.effective_client_max_latency()
    return CheckResult(
        name="consistency_window", passed=violations == 0,
        detail=f"{violations} of {total} accepted reads outside the "
               f"{bound:.2f}s window (+{slack:.2f}s slack)")


def check_survivors_converged(cluster: ClusterLike) -> CheckResult:
    """Every live master agrees with the reference version and history."""
    reference = reference_master(cluster)
    lagging: list[str] = []
    diverged: list[str] = []
    for master in cluster.masters:
        if master.crashed:
            continue
        if master.version != reference.version:
            lagging.append(f"{master.node_id}@{master.version}")
            continue
        for version, op in enumerate(master.history.ops):
            if reference.history.ops[version] != op:
                diverged.append(f"{master.node_id}@{version}")
                break
    passed = not lagging and not diverged
    return CheckResult(
        name="survivors_converged", passed=passed,
        detail=(f"reference {reference.node_id}@{reference.version}; "
                f"lagging={lagging} diverged={diverged}" if not passed
                else f"all live masters at version {reference.version} "
                f"with identical histories"))


def check_clients_on_live_masters(cluster: ClusterLike) -> CheckResult:
    """No ready client is still pointed at a crashed master."""
    stranded = [
        client.node_id for client in cluster.clients
        if client.ready and client.master_id is not None
        and cluster.node(client.master_id).crashed
    ]
    return CheckResult(
        name="clients_on_live_masters", passed=not stranded,
        detail=(f"stranded on crashed masters: {stranded}" if stranded
                else f"{len(cluster.clients)} clients all assigned to "
                f"live masters"))


def run_safety_checks(cluster: ClusterLike,
                      window_slack: float = 0.05) -> list[CheckResult]:
    """The full post-run oracle; call after faults healed and load stopped."""
    return [
        check_no_forged_reads(cluster),
        check_consistency_window(cluster, slack=window_slack),
        check_survivors_converged(cluster),
        check_clients_on_live_masters(cluster),
    ]


__all__ = [
    "CheckResult",
    "ClusterLike",
    "check_clients_on_live_masters",
    "check_consistency_window",
    "check_no_forged_reads",
    "check_survivors_converged",
    "reference_master",
    "run_safety_checks",
    "trusted_version_stores",
]
