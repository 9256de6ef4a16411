"""The kitchen-sink soak: everything at once, safety must hold.

One long simulated run combining: three content-agnostic masters, two
auditors, quorum-2 reads, writes near the spacing ceiling, message loss,
a master crash/recovery, an auditor crash, a colluding pair, a stealthy
liar, a broken-signature node, a greedy client and a slow client.

Assertions are the system's core safety contract:

* zero consistency-window violations;
* every wrongly accepted read is known to an auditor (detections >=
  wrong accepts) and the responsible slaves end up excluded;
* no double-checked accept is ever wrong;
* honest slaves are never excluded (no false convictions);
* trusted replicas converge.
"""

from __future__ import annotations

import random

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import (
    BrokenSignature,
    Colluding,
    ProbabilisticLie,
)
from repro.core.config import ProtocolConfig

from .conftest import make_system


@pytest.fixture(scope="module")
def soak_system():
    protocol = ProtocolConfig(
        max_latency=3.0,
        keepalive_interval=0.8,
        double_check_probability=0.08,
        read_quorum=2,
        max_read_retries=4,
        # Tight double-check budget so the greedy client (0.5 checks/s)
        # actually exceeds it.
        greedy_allowance_rate=0.1,
        greedy_burst=2.0,
    )
    system = make_system(
        num_masters=3, slaves_per_master=3, num_clients=10,
        num_auditors=2, seed=777, loss_probability=0.01,
        protocol=protocol,
        adversaries={
            0: Colluding(group_seed=13),
            1: Colluding(group_seed=13),
            4: ProbabilisticLie(0.15, rng=random.Random(5)),
            7: BrokenSignature(garble_rate=0.5, rng=random.Random(6)),
        },
        client_double_check_overrides={9: 1.0},      # greedy client
        client_max_latency_overrides={8: 12.0},      # slow-ish client
    )
    system.start()
    system.run_for(5.0)

    rng = random.Random(99)
    t = system.now
    # 600 reads over ~120 s plus writes at roughly half the ceiling.
    for i in range(600):
        t += 0.2
        client = system.clients[i % 10]
        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    for j in range(15):
        system.schedule_op(system.clients[j % 3], system.now + 3 + j * 8.0,
                           KVPut(key=f"hot{j % 5}", value=j))
    # Chaos: crash a non-sequencer master mid-run, and one auditor.
    system.failures.crash_for(system.masters[2], system.now + 30.0, 40.0)
    system.failures.crash_for(system.auditors[1], system.now + 60.0, 25.0)
    system.run_for(t - system.now + 240.0)
    return system


class TestSoak:
    def test_consistency_window_never_violated(self, soak_system):
        assert soak_system.check_consistency_window() == []

    def test_no_wrong_accept_escapes_the_audit(self, soak_system):
        result = soak_system.classify_accepted_reads()
        detections = sum(a.detections for a in soak_system.auditors)
        immediate = soak_system.metrics.count("immediate_detections")
        assert detections + immediate >= result["accepted_wrong"]

    def test_double_checked_accepts_never_wrong(self, soak_system):
        result = soak_system.classify_accepted_reads()
        assert all(not r["double_checked"] for r in result["wrong_records"])

    def test_liars_excluded_honest_slaves_spared(self, soak_system):
        excluded = set()
        for master in soak_system.masters:
            excluded |= master.excluded_slaves
        liars = {"slave-00-00", "slave-00-01", "slave-01-01"}
        # The active liars (colluding pair + stealthy) must be caught.
        assert liars & excluded == liars & excluded  # subset check below
        for liar in liars:
            slave = next(s for s in soak_system.slaves
                         if s.node_id == liar)
            if slave.strategy.lies_told > 0:
                assert liar in excluded, f"{liar} lied but was not excluded"
        # No honest slave is ever excluded (framing impossible).
        honest = {s.node_id for s in soak_system.slaves
                  if s.strategy.name == "honest"}
        assert not (honest & excluded)

    def test_broken_signature_node_never_convicted(self, soak_system):
        # It never produced evidence, so it must not be excluded...
        excluded = set()
        for master in soak_system.masters:
            excluded |= master.excluded_slaves
        assert "slave-02-01" not in excluded

    def test_masters_converge_after_chaos(self, soak_system):
        live = [m for m in soak_system.masters if not m.crashed]
        digests = {m.store.state_digest() for m in live}
        assert len(digests) == 1
        versions = {m.version for m in live}
        assert len(versions) == 1

    def test_reads_mostly_succeeded(self, soak_system):
        accepted = soak_system.metrics.count("reads_accepted")
        assert accepted >= 520  # of 600, despite loss + crashes + liars

    def test_writes_all_committed_exactly_once(self, soak_system):
        assert soak_system.metrics.count("writes_committed") == 15
        assert soak_system.masters[0].version == 15

    def test_greedy_client_throttled_not_failing(self, soak_system):
        assert soak_system.metrics.count(
            "double_checks_dropped_greedy") > 0

    def test_auditors_caught_up(self, soak_system):
        # Everything forwarded to a *live* auditor was audited by the end.
        for auditor in soak_system.auditors:
            assert auditor.pledges_audited == (auditor.pledges_received
                                               - auditor.pledges_skipped)
