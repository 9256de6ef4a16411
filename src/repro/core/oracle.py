"""Offline ground truth: what *should* every accepted read have returned?

One implementation for every substrate: the simulator
(:class:`repro.core.system.ReplicationSystem`), a socket cluster
(:class:`repro.net.deploy.LocalCluster`) and one shard of a sharded one
(:class:`repro.shard.deploy.ShardView`) all satisfy
:class:`ClusterLike`.  Replay a trusted master's totally ordered op
archive from the initial content to reconstruct the store at every
committed version, then hold every accepted read against it.  Used only
by the harness -- the protocol itself never consults it.

Under faults the reference master must be chosen (rank 0 may be the one
that crashed): :func:`reference_master` picks the live master with the
longest archive.  The simulator's post-run methods pin rank 0 instead.

Presentations of these results live with their consumers: count dicts
on ``ReplicationSystem``, named pass/fail verdicts in
:mod:`repro.chaos.invariants`.

:func:`ownership_violations` judges the trusted set's other replicated
state, the :class:`~repro.core.view.TrustedView` (who serves which
slave, which slaves are out, which auditor each client's pledges go
to), the same way: from outside, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from repro.content.queries import ReadQuery, operation_from_wire
from repro.content.store import ContentStore
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.core.master import MasterServer
from repro.core.slave import SlaveServer
from repro.core.trusted import TrustedServer
from repro.crypto.hashing import constant_time_equals, sha1_hex
from repro.sim.network import Node


class ClusterLike(Protocol):
    """The deployment surface the oracle needs (structural)."""

    masters: list[MasterServer]
    clients: list[Client]
    initial_store: ContentStore
    config: ProtocolConfig

    def node(self, node_id: str) -> Node: ...


def reference_master(cluster: ClusterLike) -> MasterServer:
    """The master whose archive defines trusted history for the run.

    Prefer non-crashed masters; among those, the longest archive wins
    (a master that restarted mid-run may have gaps the survivors do
    not).  Ties break by node id for determinism.
    """
    candidates = sorted(
        cluster.masters,
        key=lambda m: (not m.crashed, len(m.history), m.node_id),
        reverse=True)
    return candidates[0]


def trusted_version_stores(
        cluster: ClusterLike,
        reference: MasterServer) -> dict[int, ContentStore]:
    """Replay the reference master's op archive from the initial content."""
    return dict(reference.history.replay(cluster.initial_store))


@dataclass
class ReadClassification:
    """Every accepted read, held against trusted history."""

    reference: MasterServer
    correct: int = 0
    #: One record per accepted read whose result hash differs from the
    #: trusted re-execution at its version.
    wrong: list[dict[str, Any]] = field(default_factory=list)
    #: Reads at a version the reference archive does not reach: content
    #: trusted history cannot account for.
    beyond_history: int = 0


def classify_accepted_reads(
        cluster: ClusterLike,
        reference: MasterServer | None = None) -> ReadClassification:
    """Compare every accepted read against trusted history.

    A read is *correct* when its accepted result hash equals the hash of
    the trusted re-execution at the accepted version -- the same check
    the auditor performs online.
    """
    outcome = ReadClassification(reference or reference_master(cluster))
    stores = trusted_version_stores(cluster, outcome.reference)
    cache: dict[tuple[int, str], str] = {}
    for client in cluster.clients:
        for record in client.accepted_log:
            key = (record.version, sha1_hex(record.query_wire))
            trusted_hash = cache.get(key)
            if trusted_hash is None:
                store = stores.get(record.version)
                if store is None:
                    outcome.beyond_history += 1
                    continue
                query = operation_from_wire(record.query_wire)
                assert isinstance(query, ReadQuery)
                trusted_hash = sha1_hex(store.execute_read(query).result)
                cache[key] = trusted_hash
            if constant_time_equals(record.result_hash, trusted_hash):
                outcome.correct += 1
            else:
                outcome.wrong.append({
                    "client": record.request_id.split(":")[0],
                    "request_id": record.request_id,
                    "version": record.version,
                    "double_checked": record.double_checked,
                    "slaves": record.slave_ids,
                })
    return outcome


def consistency_window_violations(
        cluster: ClusterLike, slack: float,
        reference: MasterServer | None = None) -> list[dict[str, Any]]:
    """Accepted reads that break the paper's max_latency guarantee.

    Section 3.1: "a client is guaranteed that once max_latency time
    has elapsed since committing a write, no other client will accept
    a read that is not dependent on that write."  Concretely: a read
    accepted at version ``v`` is a violation if some version ``v+1``
    was committed more than ``max_latency`` before the acceptance
    time.  ``slack`` absorbs clock noise (1e-9 in the simulator; an
    event loop under load needs tens of milliseconds).
    """
    commit_times = (reference or reference_master(cluster)).history.times
    bound = cluster.config.effective_client_max_latency()
    violations: list[dict[str, Any]] = []
    for client in cluster.clients:
        client_bound = max(bound, client.max_latency)
        for record in client.accepted_log:
            next_commit = commit_times.get(record.version + 1)
            if next_commit is None:
                continue  # read was at the newest version
            if record.accepted_at > next_commit + client_bound + slack:
                violations.append({
                    "client": client.node_id,
                    "request_id": record.request_id,
                    "version": record.version,
                    "accepted_at": record.accepted_at,
                    "next_commit_at": next_commit,
                })
    return violations


def slave_owners(masters: Sequence[MasterServer],
                 slaves: Sequence[SlaveServer]) -> dict[str, list[str]]:
    """Every slave no live master has excluded -> the live masters
    whose ``slaves`` hold it."""
    live = [m for m in masters if not m.crashed]
    excluded = {slave for m in live for slave in m.excluded_slaves}
    return {slave.node_id: [m.node_id for m in live
                            if slave.node_id in m.slaves]
            for slave in slaves if slave.node_id not in excluded}


def client_auditors(clients: Sequence[Client]) -> dict[str, str]:
    """Every ready client that is up -> the auditor it forwards to."""
    return {client.node_id: client.auditor_id for client in clients
            if client.ready and not client.crashed}


def ownership_violations(trusted: Sequence[TrustedServer],
                         slaves: Sequence[SlaveServer],
                         clients: Sequence[Client] = ()) -> list[str]:
    """Sections 3.1, 3.4 and 3.5, judged once the run is over: every live
    trusted server holds one equal ``view``.  By that view each slave not
    excluded is owned by a live master and, if up, is fresh; each client
    of :func:`client_auditors` forwards to the auditor it names, which
    is up when one is, and holds only slaves its live master's last
    assignment to it lists."""
    live = [n for n in trusted if not n.crashed]
    if not live:
        return ["no trusted server is up"]
    view, ids = live[0].view, {n.node_id for n in live}
    split = sorted(n.node_id for n in live if n.view != view)
    if split:
        return [f"the views at {split} differ from {live[0].node_id}'s"]
    problems: list[str] = []
    for slave in (s for s in slaves if s.node_id not in view.excluded):
        owner = view.owners.get(slave.node_id)
        if owner not in ids:
            problems.append(f"{slave.node_id} held by {owner}, not live")
        elif not (slave.crashed or slave.is_fresh()):
            problems.append(f"{slave.node_id} is not fresh")
    auditors_up = ids.intersection(view.auditors)
    masters = {n.node_id: n for n in live if isinstance(n, MasterServer)}
    for client in clients:
        if not client.ready or client.crashed:
            continue
        auditor, named = client.auditor_id, view.auditor_for(client.node_id)
        if auditor != named or (auditors_up and auditor not in auditors_up):
            problems.append(f"{client.node_id} forwards to {auditor}, "
                            f"the view names {named}")
        master = masters.get(client.master_id or "")
        record = master and master.client_assignments.get(client.node_id)
        listed = {c.subject_id for c in record.slave_certificates} \
            if record else set()
        if master and not listed.issuperset(client.assigned_slaves):
            problems.append(f"{client.node_id} holds {client.assigned_slaves}"
                            f", {master.node_id} lists {sorted(listed)}")
    return problems


__all__ = [
    "ClusterLike",
    "ReadClassification",
    "classify_accepted_reads",
    "client_auditors",
    "consistency_window_violations",
    "ownership_violations",
    "reference_master",
    "slave_owners",
    "trusted_version_stores",
]
