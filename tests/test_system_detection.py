"""Integration tests: Byzantine slaves, detection and corrective action.

Covers Sections 3.3 (probabilistic checking), 3.4 (auditing) and 3.5
(exclusion and reassignment) against the adversary strategies.
"""

from __future__ import annotations

import random

from repro.content.kvstore import KVGet
from repro.core.adversary import (
    AlwaysLie,
    Colluding,
    ProbabilisticLie,
    TargetedLie,
    Unresponsive,
)
from repro.core.config import ProtocolConfig
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import HMACSigner

from .conftest import make_system


def certified_key_system():
    """3 masters x 2 slaves, 2 clients, no double-checks, started."""
    system = make_system(
        num_masters=3, slaves_per_master=2, num_clients=2, seed=3,
        protocol=ProtocolConfig(double_check_probability=0.0))
    system.start()
    system.run_for(5.0)
    return system


def signers_from(public_key):
    """Every signer an adversary can make of a public key it holds: each
    of its ``bytes`` attributes, taken as an HMAC key."""
    held = (getattr(public_key, name) for name in dir(public_key))
    return [HMACSigner(key_bytes=value) for value in held
            if isinstance(value, bytes)]


def drive_reads(system, count, rate=5.0, clients=None, seed=1):
    """Schedule ``count`` random point reads at ``rate``/s; returns t_end."""
    rng = random.Random(seed)
    clients = clients or system.clients
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        client = clients[i % len(clients)]
        system.schedule_op(client, t, KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestImmediateDiscovery:
    def test_always_liar_caught_by_double_check(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.5,
                                    audit_fraction=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive_reads(system, 100)
        system.run_for(60.0)
        assert system.metrics.count("immediate_detections") >= 1
        assert system.metrics.count("exclusions_immediate") == 1
        assert "slave-00-00" in system.masters[0].excluded_slaves
        assert "slave-00-00" in system.masters[1].excluded_slaves

    def test_clients_reassigned_and_reissue(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.5,
                                    audit_fraction=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive_reads(system, 100)
        system.run_for(60.0)
        assert system.metrics.count("clients_reassigned") >= 1
        # No client keeps the excluded slave.
        for client in system.clients:
            assert "slave-00-00" not in client.assigned_slaves
        # The discovering client re-issued and eventually accepted.
        assert system.metrics.count("reads_accepted") == 100

    def test_wrong_results_blocked_by_full_double_check(self):
        """p = 1.0 is the paper's '100% correctness' dial."""
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=1.0),
            adversaries={0: AlwaysLie(), 1: AlwaysLie()})
        system.start()
        drive_reads(system, 60)
        system.run_for(60.0)
        result = system.classify_accepted_reads()
        assert result["accepted_wrong"] == 0

    def test_accusation_with_honest_slave_dismissed(self):
        """A spurious accusation must not exclude an honest slave."""
        system = make_system()
        system.start()
        drive_reads(system, 20)
        system.run_for(30.0)
        # Manufacture an accusation from a *real* (honest) pledge.
        from repro.core.messages import Accusation

        pledge = None
        for entry_client in system.clients:
            if entry_client.accepted_log:
                break
        master = system.masters[0]
        # Replay an honest pledge from the auditor's received set.
        honest = [e for v in system.auditor._parked.values() for e in v]
        if not honest:
            # Pledges were all audited already; grab one via a fresh read.
            outcomes = []
            client = system.clients[0]
            client.submit_read(KVGet(key="k001"), callback=outcomes.append)
            system.run_for(5.0)
        # Simplest honest pledge source: ask a slave directly.
        slave = system.slaves[0]
        from repro.content.kvstore import KVGet as Get
        from repro.core.messages import ReadRequest

        captured = {}

        class Spy:
            node_id = "client-00"

        # Instead of spying, go through evaluate_pledge directly.
        from repro.core.messages import Pledge
        from repro.crypto.hashing import sha1_hex

        query = Get(key="k001")
        outcome = slave.store.execute_read(query)
        pledge = Pledge.make(slave.keys, query.to_wire(),
                             sha1_hex(outcome.result),
                             slave.latest_stamp, "client-00:r999")
        assert master.evaluate_pledge(pledge) == "innocent"
        master._handle_accusation("client-00", Accusation(
            pledge=pledge, discovery="immediate"))
        system.run_for(10.0)
        assert system.metrics.count("exclusions") == 0
        assert slave.node_id not in master.excluded_slaves

    def test_client_cannot_frame_slave_with_forged_pledge(self):
        """Section 3.3: framing requires faking the slave's signature --
        with the client's own key, or with anything the slave's
        certificate holds, which is a public key and signs nothing."""
        from repro.core.messages import Accusation, Pledge
        from repro.content.kvstore import KVGet as Get

        system = certified_key_system()
        master = system.masters[0]
        slave = system.slaves[0]
        client = system.clients[0]
        cert = master.find_slave_cert(slave.node_id)
        forgers = [client.keys.signer, *signers_from(cert.subject_public_key)]
        assert len(forgers) > 1
        for forger in forgers:
            # Claimed to come from the slave, with a wrong result hash.
            forged = Pledge.make(KeyPair(slave.node_id, forger),
                                 Get(key="k001").to_wire(), "00" * 20,
                                 slave.latest_stamp, "client-00:r123")
            assert master.evaluate_pledge(forged) == "forged"
            master._handle_accusation(client.node_id, Accusation(
                pledge=forged, discovery="immediate"))
        system.run_for(10.0)
        assert system.metrics.count("exclusions") == 0
        assert system.metrics.count("accusations_forged") == len(forgers)
        assert all(not m.excluded_slaves for m in system.masters)

    def test_slave_cannot_mint_its_masters_stamp(self):
        """A slave holds its masters' public keys to check keep-alives;
        it cannot make a stamp a client accepts with them."""
        from repro.core.messages import VersionStamp

        system = certified_key_system()
        slave = system.slaves[0]
        client = system.clients[0]
        forgers = signers_from(slave.master_keys["master-00"])
        assert forgers
        for forger in forgers:
            minted = VersionStamp.make(KeyPair("master-00", forger),
                                       0, system.now)
            assert not minted.verify(client.keys,
                                     client._master_key("master-00"))


class TestDelayedDiscovery:
    def test_audit_catches_liar_without_double_checks(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive_reads(system, 60)
        system.run_for(60.0)
        assert system.auditor.detections >= 1
        assert system.metrics.count("exclusions_audit") == 1
        assert "slave-00-00" in system.masters[0].excluded_slaves

    def test_wrong_accepts_match_audit_detections(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: ProbabilisticLie(0.3,
                                             rng=random.Random(9))})
        system.start()
        drive_reads(system, 200, rate=10.0)
        system.run_for(120.0)
        result = system.classify_accepted_reads()
        # Every wrongly accepted read was forwarded and audited; detections
        # count each lie the auditor saw.
        assert result["accepted_wrong"] >= 1
        assert system.auditor.detections >= result["accepted_wrong"] * 0.9

    def test_stealthy_liar_eventually_excluded(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.02),
            adversaries={0: ProbabilisticLie(0.05,
                                             rng=random.Random(4))})
        system.start()
        drive_reads(system, 400, rate=20.0)
        system.run_for(120.0)
        assert system.metrics.count("exclusions") == 1

    def test_targeted_liar_caught_by_audit(self):
        """Lying only to one victim defeats nothing: the victim's pledges
        are audited like everyone else's."""
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={i: TargetedLie({"client-00"},
                                        rng=random.Random(i))
                         for i in range(4)})
        system.start()
        drive_reads(system, 120, rate=10.0)
        system.run_for(90.0)
        assert system.metrics.count("exclusions") >= 1

    def test_honest_system_no_exclusions(self):
        system = make_system()
        system.start()
        drive_reads(system, 100, rate=10.0)
        system.run_for(60.0)
        assert system.metrics.count("exclusions") == 0
        assert system.auditor.detections == 0


class TestUnresponsiveSlaves:
    def test_unresponsive_slave_causes_retries_not_exclusion(self):
        system = make_system(adversaries={0: Unresponsive(1.0)})
        system.start()
        drive_reads(system, 40, rate=2.0)
        system.run_for(120.0)
        # No evidence, no exclusion -- but clients recover via timeout and
        # re-setup, so reads still complete.
        assert system.metrics.count("exclusions") == 0
        assert system.metrics.count("read_timeouts") >= 1
        accepted = system.metrics.count("reads_accepted")
        assert accepted >= 30


class TestColludingGroup:
    def test_colluders_caught_by_audit_in_base_protocol(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0),
            adversaries={0: Colluding(7), 1: Colluding(7)})
        system.start()
        drive_reads(system, 80, rate=10.0)
        system.run_for(90.0)
        assert system.metrics.count("exclusions") >= 2
