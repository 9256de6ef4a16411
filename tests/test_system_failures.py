"""Integration tests: benign crash failures of trusted servers.

Section 3.1: "in the event of a master crash, the remaining ones will
divide its slave set.  This also entails that all the clients connected
to the crashed server will have to go through the setup process again."
Who owns which slave is replicated state: every trusted server computes
it from its enrolled certificates and the delivered membership.
"""

from __future__ import annotations

import random

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core import oracle
from repro.core.config import ProtocolConfig
from repro.core.messages import BcastExcludeSlave

from .conftest import make_system


def spread_reads(system, count, rate, rng_seed=1):
    rng = random.Random(rng_seed)
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        client = system.clients[i % len(system.clients)]
        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestMasterCrash:
    def build(self, **kwargs):
        defaults = dict(
            num_masters=3, slaves_per_master=2, num_clients=6,
            protocol=ProtocolConfig(double_check_probability=0.05))
        defaults.update(kwargs)
        system = make_system(**defaults)
        system.start()
        system.run_for(5.0)
        return system

    def test_survivors_divide_slave_set(self):
        system = self.build()
        crashed = system.masters[2]
        orphan_ids = set(crashed.slaves)
        system.failures.crash_at(crashed, system.now + 1.0)
        system.run_for(30.0)
        adopted = set()
        for master in system.masters[:2]:
            adopted |= orphan_ids & set(master.slaves)
        assert adopted == orphan_ids
        # Disjoint division: no slave adopted twice.
        overlap = set(system.masters[0].slaves) & set(
            system.masters[1].slaves)
        assert overlap == set()
        assert system.metrics.count("slaves_adopted") == len(orphan_ids)

    def test_orphan_slaves_keep_serving_via_new_master(self):
        system = self.build()
        crashed = system.masters[2]
        orphan = crashed.slaves[0]
        system.failures.crash_at(crashed, system.now + 1.0)
        system.run_for(30.0)
        slave = next(s for s in system.slaves if s.node_id == orphan)
        # The adopted slave keeps getting keep-alives and stays fresh.
        assert slave.is_fresh()

    def test_orphan_slaves_receive_writes_from_adopter(self):
        system = self.build()
        crashed = system.masters[2]
        orphan = crashed.slaves[0]
        system.failures.crash_at(crashed, system.now + 1.0)
        system.run_for(15.0)
        writer = system.clients[0]
        if writer.master_id == crashed.node_id:
            writer = system.clients[1]
        writer.submit_write(KVPut(key="post-crash", value=1))
        system.run_for(40.0)
        slave = next(s for s in system.slaves if s.node_id == orphan)
        assert slave.version == system.masters[0].version >= 1
        assert slave.store.state_digest() == \
            system.masters[0].store.state_digest()

    def test_clients_of_crashed_master_re_setup(self):
        system = self.build()
        crashed = system.masters[2]
        victims = [c for c in system.clients
                   if c.master_id == crashed.node_id]
        system.failures.crash_at(crashed, system.now + 1.0)
        system.run_for(2.0)
        # Force the victims to notice: writes to a dead master time out.
        results = []
        for victim in victims:
            victim.submit_write(KVPut(key=f"from-{victim.node_id}",
                                      value=1), callback=results.append)
        system.run_for(200.0)
        for victim in victims:
            assert victim.master_id != crashed.node_id
        assert all(r["status"] == "committed" for r in results)

    def test_writes_continue_after_sequencer_crash(self):
        system = self.build()
        # master-00 is the broadcast sequencer.
        system.failures.crash_at(system.masters[0], system.now + 1.0)
        system.run_for(10.0)
        writer = next(c for c in system.clients
                      if c.master_id != "master-00")
        results = []
        writer.submit_write(KVPut(key="after-seq-crash", value=1),
                            callback=results.append)
        system.run_for(60.0)
        assert results and results[0]["status"] == "committed"
        assert system.masters[1].version == system.masters[2].version == 1


def owned_once(system):
    """The ownership invariant's violations (none when it holds)."""
    return oracle.ownership_violations(
        [*system.masters, *system.auditors], system.slaves, system.clients)


class TestOwnership:
    """A crashed master's slaves are divided by the delivered view, so
    no slave ends with no live owner or two, and every member holds the
    same ``view``."""

    @pytest.mark.parametrize("num_masters, seed, second, second_at", [
        (4, 85, 2, 0.14),   # slave-00-01 used to end with no owner
        (5, 205, 1, 0.19),  # slave-00-00 likewise
    ])
    def test_sequencer_then_a_follower_crash_orphan_nothing(
            self, num_masters, seed, second, second_at):
        """The sequencer crashes for good, a second master 0.13-0.18 s
        later, inside the first's suspicion window: the survivors keep
        a majority, and every slave ends owned once and fresh."""
        system = make_system(num_masters=num_masters, slaves_per_master=2,
                             num_clients=4, seed=seed,
                             protocol=ProtocolConfig())
        system.start()
        system.run_for(5.5)
        system.failures.crash_at(system.masters[0], system.now + 0.01)
        system.failures.crash_at(system.masters[second],
                                 system.now + second_at)
        system.run_for(40.0)
        assert owned_once(system) == []
        assert all(slave.is_fresh() for slave in system.slaves)

    def test_an_adopted_slave_excluded_after_going_home(self):
        """A client set up on an adopter keeps the adopted slave when
        its home takes it back; excluded after that, the slave must
        still be taken from the client and what it vouched for alone
        tainted."""
        system = make_system(
            num_masters=3, slaves_per_master=1, num_clients=6,
            protocol=ProtocolConfig(read_quorum=2,
                                    double_check_probability=0.0))
        home, adopted = system.masters[2], "slave-02-00"
        system.failures.crash_at(home, 0.1)
        system.start(settle=5.0)
        adopter = system.node(system.masters[0].view.owners[adopted])
        assert adopted in adopter.slaves and owned_once(system) == []
        client = next(c for c in system.clients
                      if c.master_id == adopter.node_id)
        assert adopted in client.assigned_slaves
        for index in range(3):
            system.schedule_op(client, system.now + 0.5 * index,
                               KVGet(key=f"k{index:03d}"))
        system.run_for(3.0)
        system.failures.recover_at(home, system.now)
        system.run_for(5.0)
        assert home.slaves == [adopted] and adopted not in adopter.slaves
        assert owned_once(system) == []
        assert adopted in client.assigned_slaves  # no notice on hand-back
        system.masters[1].broadcast.broadcast(BcastExcludeSlave(
            slave_id=adopted, discovery="audit"))
        system.run_for(2.0)
        assert adopted not in client.assigned_slaves
        assert len(client.tainted_reads) == 3
        assert system.metrics.count("exclusions") == 1

    def test_a_master_the_client_left_moves_none_of_its_slaves(self):
        """A client re-set-up on another master is still in its first
        master's ``client_assignments``.  An exclusion of a slave that
        stale record lists must not install that master's replacement:
        the client would hold a slave its own master never gave it."""
        system = make_system(
            num_masters=3, slaves_per_master=2, num_clients=6, seed=23,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    request_timeout=1.0))
        system.start(settle=3.0)
        first = system.masters[1]
        client = next(c for c in system.clients
                      if c.master_id == first.node_id)
        for node in (first, *map(system.node, client.assigned_slaves)):
            system.failures.crash_for(node, system.now, 20.0)
        for index in range(6):
            system.schedule_op(client, system.now + 0.5 * index,
                               KVGet(key=f"k{index:03d}"))
        system.run_for(30.0)
        assert client.master_id == "master-02"
        own = system.node(client.master_id)
        stale = first.client_assignments[client.node_id]
        gone = next(cert.subject_id for cert in stale.slave_certificates
                    if cert.subject_id not in client.assigned_slaves)
        system.masters[0].broadcast.broadcast(BcastExcludeSlave(
            slave_id=gone, discovery="audit"))
        system.run_for(3.0)
        listed = {cert.subject_id for cert in
                  own.client_assignments[client.node_id].slave_certificates}
        assert set(client.assigned_slaves) <= listed
        assert owned_once(system) == []


class TestMasterRecovery:
    def test_recovered_master_catches_up_on_writes(self):
        system = make_system(num_masters=3, num_clients=3)
        system.start()
        target = system.masters[1]
        system.failures.crash_for(target, system.now + 1.0, 20.0)
        system.run_for(3.0)
        writer = next(c for c in system.clients
                      if c.master_id != target.node_id)
        writer.submit_write(KVPut(key="while-down", value=1))
        system.run_for(60.0)
        assert target.version == system.masters[0].version == 1
        assert target.store.state_digest() == \
            system.masters[0].store.state_digest()


class TestAuditorCrash:
    def test_audits_resume_after_auditor_recovery(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        system.failures.crash_for(system.auditor, system.now + 1.0, 15.0)
        end = spread_reads(system, 40, rate=4.0)
        system.run_for(end - system.now + 60.0)
        # Pledges sent while the auditor was down are lost (network drops
        # to crashed nodes), but reads themselves kept working and new
        # pledges flow after recovery.
        assert system.metrics.count("reads_accepted") == 40
        assert system.auditor.pledges_received > 0
        assert system.auditor.pledges_audited == \
            system.auditor.pledges_received

    def test_auditor_catches_up_on_writes_after_recovery(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, max_latency=2.0,
            keepalive_interval=0.5))
        system.start()
        system.failures.crash_for(system.auditor, system.now + 1.0, 10.0)
        system.run_for(3.0)
        system.clients[0].submit_write(KVPut(key="during-crash", value=1))
        system.run_for(120.0)
        assert system.auditor.version == 1
        assert system.auditor.store.state_digest() == \
            system.masters[0].store.state_digest()


class TestSlaveCrashWithParkedRead:
    def test_slave_answers_again_after_crashing_with_a_parked_read(self):
        """Crash between answering a read and sending its reply: that
        reply is lost, the slave is not -- it used to keep counting
        ``slave_reads_served`` and never send again."""
        system = make_system(
            num_masters=1, slaves_per_master=1, num_clients=1,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    simulate_service_times=False))
        system.start()
        system.run_for(2.0)
        slave, client = system.slaves[0], system.clients[0]
        deliver = slave.on_message
        crashes = []

        def crash_once_parked(src_id, message):
            deliver(src_id, message)
            if slave._pending_reads and not crashes:
                crashes.append(system.now)
                slave.crash()

        slave.on_message = crash_once_parked
        outcomes = []
        client.submit_read(KVGet(key="k001"), callback=outcomes.append)
        system.run_for(1.0)
        assert crashes and outcomes == []
        slave.recover()
        served, sent = slave.reads_served, slave.messages_sent
        for index in range(5):
            system.schedule_op(client, system.now + 1.0 + index,
                               KVGet(key=f"k{index:03d}"),
                               callback=outcomes.append)
        system.run_for(120.0)
        assert slave.reads_served > served
        assert slave.messages_sent > sent
        assert slave._pending_reads == []
        assert [o["status"] for o in outcomes] == ["accepted"] * 6


class TestClientCrash:
    """A client's operations in flight are held on the client; the
    time-outs that drive them die with a crash, so recovery sends them
    again -- they used to stay in ``_reads``/``_writes`` for good when
    the client was down past its time-out."""

    def build(self):
        system = make_system(
            num_masters=1, slaves_per_master=1, num_clients=1,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    request_timeout=2.0))
        system.start()
        system.run_for(2.0)
        return system, system.clients[0]

    def test_reads_and_writes_in_flight_resolve_after_recovery(self):
        system, client = self.build()
        outcomes = []
        client.submit_read(KVGet(key="k001"), callback=outcomes.append)
        client.submit_write(KVPut(key="w", value=1),
                            callback=outcomes.append)
        client.crash()  # the requests are out; the replies will be lost
        system.run_for(10.0)  # down past every time-out
        assert outcomes == [] and client._reads and client._writes
        client.recover()
        system.run_for(10.0)
        assert sorted(o["status"] for o in outcomes) == \
            ["accepted", "committed"]
        assert not client._reads and not client._writes
        # The write was committed while the client was down; the
        # re-sent request is confirmed, not applied twice.
        assert system.masters[0].version == 1

    def test_setup_in_progress_restarts(self):
        system = make_system(num_masters=1, slaves_per_master=1,
                             num_clients=1)
        client = system.clients[0]
        system.start()
        client.ready = False
        client._begin_setup()
        client.crash()  # the directory's reply is lost
        system.run_for(30.0)
        assert not client.ready
        client.recover()
        system.run_for(5.0)
        assert client.ready


class TestCombinedChaos:
    def test_no_wrong_accepts_under_churn_with_liar(self):
        """Crash churn + a lying slave + message loss: the safety
        property (wrong accepts are eventually detected; double-checked
        reads are never wrong) must survive."""
        from repro.core.adversary import ProbabilisticLie

        system = make_system(
            num_masters=3, slaves_per_master=2, num_clients=6,
            loss_probability=0.02, seed=31,
            protocol=ProtocolConfig(double_check_probability=0.1),
            adversaries={0: ProbabilisticLie(0.2, rng=random.Random(8))})
        system.start()
        system.run_for(5.0)
        system.failures.crash_for(system.masters[2], system.now + 10.0,
                                  30.0)
        end = spread_reads(system, 150, rate=5.0, rng_seed=9)
        system.schedule_op(system.clients[0], system.now + 20.0,
                           KVPut(key="chaos", value=1))
        system.run_for(end - system.now + 120.0)
        result = system.classify_accepted_reads()
        # Every wrong accept must have been flagged by the audit (none
        # slipped through unaudited).
        assert system.auditor.detections >= result["accepted_wrong"]
        # The liar is gone by the end.
        assert system.metrics.count("exclusions") >= 1
        assert system.check_consistency_window() == []
