"""Integration tests: auditor failover across a multi-auditor set.

A client's auditor is ``TrustedView.auditor_for``, a function of the
build-time auditor set and the delivered view; a master re-sends its
clients' assignments, auditor changed, wherever a delivered membership
change moves one (docs/PROTOCOL.md §2.6).
"""

from __future__ import annotations

import dataclasses
import random

from repro.content.kvstore import KVGet
from repro.core import oracle
from repro.core.adversary import ProbabilisticLie
from repro.core.config import ProtocolConfig

from .conftest import make_system


def drive(system, count, rate=5.0, seed=1, start_offset=0.0):
    rng = random.Random(seed)
    t = system.now + start_offset
    for i in range(count):
        t += 1.0 / rate
        system.schedule_op(system.clients[i % len(system.clients)], t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestAuditorFailover:
    def build(self, **kwargs):
        system = make_system(num_auditors=2, num_clients=8,
                             protocol=ProtocolConfig(
                                 double_check_probability=0.0), **kwargs)
        system.start()
        return system

    def test_clients_repointed_to_surviving_auditor(self):
        system = self.build()
        victim = system.auditors[0]
        affected_before = [c.node_id for c in system.clients
                           if c.auditor_id == victim.node_id]
        assert affected_before  # hash spread puts someone on auditor 0
        system.failures.crash_at(victim, system.now + 1.0)
        system.run_for(15.0)  # crash detected + failover notices sent
        survivor = system.auditors[1].node_id
        for client in system.clients:
            assert client.auditor_id == survivor
        assert system.metrics.count("clients_auditor_failover") > 0

    def test_pledges_keep_flowing_after_failover(self):
        system = self.build()
        victim = system.auditors[0]
        system.failures.crash_at(victim, system.now + 1.0)
        system.run_for(15.0)
        end = drive(system, 80)
        system.run_for(end - system.now + 60.0)
        survivor = system.auditors[1]
        assert survivor.pledges_received == 80
        assert survivor.pledges_audited == 80

    def test_detection_continues_after_failover(self):
        system = make_system(
            num_auditors=2, num_clients=8,
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: ProbabilisticLie(0.5,
                                             rng=random.Random(3))})
        system.start()
        system.failures.crash_at(system.auditors[0], system.now + 1.0)
        system.run_for(15.0)
        end = drive(system, 100)
        system.run_for(end - system.now + 90.0)
        assert system.auditors[1].detections >= 1 or \
            system.metrics.count("exclusions") >= 1

    def test_recovered_auditor_rejoins_rotation(self):
        system = self.build()
        victim = system.auditors[0]
        home = {c.node_id: c.auditor_id for c in system.clients}
        system.failures.crash_for(victim, system.now + 1.0, 15.0)
        system.run_for(30.0)  # crash, failover, recovery, readmission
        assert system.metrics.count("auditor_recovery_noticed") > 0
        # The delivered ``up`` puts the victim back in every master's
        # view, so new assignments use the full set again ...
        clients = [f"client-{i:02d}" for i in range(8)]
        for master in system.masters:
            assert victim.node_id in master.view.alive
            assert {master.view.auditor_for(c) for c in clients} == {
                a.node_id for a in system.auditors}
        # ... and the clients it lost are handed back.
        assert {c.node_id: c.auditor_id for c in system.clients} == home

    def test_only_the_setup_master_repoints(self):
        """While ready, a client takes an assignment only from the master
        it set up with, and such a re-point is not a setup: it moves the
        auditor, counts no ``client_setup_completed`` and re-sends no
        read.  A master that still lists it must not move its slaves."""
        system = self.build()
        client = system.clients[0]
        own = next(m for m in system.masters
                   if m.node_id == client.master_id)
        other = next(m for m in system.masters if m is not own)
        moved = next(a.node_id for a in system.auditors
                     if a.node_id != client.auditor_id)
        slaves = client.assigned_slaves
        setups = system.metrics.count("client_setup_completed")
        stale = other._make_assignment(client.node_id)
        other.send(client.node_id, dataclasses.replace(stale,
                                                       auditor_id=moved))
        system.run_for(1.0)
        assert client.auditor_id != moved
        assert client.assigned_slaves == slaves
        own.send(client.node_id, dataclasses.replace(
            own.client_assignments[client.node_id], auditor_id=moved))
        system.run_for(1.0)
        assert client.auditor_id == moved
        assert client.assigned_slaves == slaves
        assert system.metrics.count("client_setup_completed") == setups
        assert system.metrics.count("reads_reissued_after_exclusion") == 0

    def test_a_master_crash_repoints_nobody(self):
        system = self.build()
        system.failures.crash_for(system.masters[1], system.now + 1.0, 10.0)
        system.run_for(30.0)
        assert system.metrics.count("master_crash_noticed") > 0
        assert system.metrics.count("clients_auditor_failover") == 0


def six_clients(num_auditors):
    """3 masters x 2 slaves, 6 clients, seed 4, every read audited."""
    system = make_system(num_masters=3, slaves_per_master=2, num_clients=6,
                         seed=4, num_auditors=num_auditors,
                         protocol=ProtocolConfig(
                             double_check_probability=0.0))
    system.start()
    return system


def stranded(system):
    """Ready clients that name a crashed auditor."""
    down = {a.node_id for a in system.auditors if a.crashed}
    return sorted(c.node_id for c in system.clients
                  if c.ready and c.auditor_id in down)


class TestNoClientOnACrashedAuditor:
    """Failover once went by the client's *static* hash auditor: only
    clients whose hash auditor crashed were moved, so a client already
    moved once stayed on its second auditor when that one crashed too,
    and every pledge of its accepted reads went to a dead node."""

    def assert_pledges_reach(self, system, survivor, reads=60):
        received = survivor.pledges_received
        end = drive(system, reads)
        system.run_for(end - system.now + 30.0)
        assert system.metrics.count("reads_accepted") >= reads
        assert survivor.pledges_received - received == reads
        assert oracle.ownership_violations(
            [*system.masters, *system.auditors], system.slaves,
            system.clients) == []

    def test_two_auditors_second_crash(self):
        """client-00's auditor, zz-auditor-01, is down from +1 s to
        +10 s; then zz-auditor-00 crashes.  client-00 and client-05 were
        left naming the dead zz-auditor-00."""
        system = six_clients(2)
        auditors = {a.node_id: a for a in system.auditors}
        assert system.clients[0].auditor_id == "zz-auditor-01"
        system.failures.crash_for(auditors["zz-auditor-01"],
                                  system.now + 1.0, 9.0)
        system.run_for(20.0)
        system.failures.crash_at(auditors["zz-auditor-00"],
                                 system.now + 1.0)
        system.run_for(20.0)
        assert stranded(system) == []
        self.assert_pledges_reach(system, auditors["zz-auditor-01"])

    def test_three_auditors_two_crashes(self):
        """zz-auditor-01 crashes, then zz-auditor-02, the auditor
        client-00 had moved to: client-00 stayed on the dead one."""
        system = six_clients(3)
        auditors = {a.node_id: a for a in system.auditors}
        system.failures.crash_at(auditors["zz-auditor-01"],
                                 system.now + 1.0)
        system.run_for(15.0)
        assert system.clients[0].auditor_id == "zz-auditor-02"
        system.failures.crash_at(auditors["zz-auditor-02"],
                                 system.now + 1.0)
        system.run_for(20.0)
        assert stranded(system) == []
        self.assert_pledges_reach(system, auditors["zz-auditor-00"])