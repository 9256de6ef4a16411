"""Unit tests for client-side paths not covered elsewhere."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.analysis import detection_cdf, detection_quantile
from repro.content.kvstore import KVGet, KVPut

from .conftest import make_system


class TestDetectionQuantile:
    def test_inverse_of_cdf(self):
        p, q = 0.1, 0.5
        for quantile in (0.5, 0.9, 0.99):
            n = detection_quantile(quantile, p, q)
            assert detection_cdf(math.ceil(n), p, q) >= quantile
            assert detection_cdf(int(n * 0.9), p, q) < quantile + 0.02

    def test_ninety_five_is_three_means(self):
        # The continuous rule of thumb 3/(p*q) overshoots the discrete
        # geometric slightly at large p.
        assert detection_quantile(0.95, 0.1, 1.0) == \
            pytest.approx(3.0 / 0.1, rel=0.1)

    def test_edges(self):
        assert detection_quantile(0.5, 0.0, 1.0) == float("inf")
        assert detection_quantile(0.9, 1.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            detection_quantile(1.0, 0.1, 0.5)


class TestClientQueueing:
    def test_ops_submitted_before_setup_flush_after(self):
        system = make_system()
        # Do NOT start clients; submit first.
        for master in system.masters:
            master.start()
        system.auditor.start()
        for slave in system.slaves:
            slave.start()
        system.simulator.run_for(2.0)
        client = system.clients[0]
        results = []
        client.submit_read(KVGet(key="k001"), callback=results.append)
        assert not client.ready  # queued, setup kicked off
        system.run_for(10.0)
        assert results and results[0]["status"] == "accepted"

    def test_multiple_queued_ops_preserved(self):
        system = make_system()
        for master in system.masters:
            master.start()
        system.auditor.start()
        for slave in system.slaves:
            slave.start()
        system.simulator.run_for(2.0)
        client = system.clients[1]
        results = []
        for i in range(5):
            client.submit_read(KVGet(key=f"k{i:03d}"),
                               callback=results.append)
        system.run_for(15.0)
        assert len(results) == 5
        assert all(r["status"] == "accepted" for r in results)


class TestWriteTimeouts:
    def test_write_to_dead_master_eventually_commits_elsewhere(self):
        system = make_system(num_masters=3, num_clients=6)
        system.start()
        client = system.clients[0]
        victim = next(m for m in system.masters
                      if m.node_id == client.master_id)
        system.failures.crash_at(victim, system.now + 0.5)
        system.run_for(1.0)
        results = []
        client.submit_write(KVPut(key="x", value=1),
                            callback=results.append)
        system.run_for(200.0)
        assert results and results[0]["status"] == "committed"
        # Exactly one commit despite the retry through a new master.
        live = next(m for m in system.masters if not m.crashed)
        assert live.version == 1

    def test_write_gives_up_when_all_masters_dead(self):
        system = make_system(num_masters=2, num_clients=2)
        system.start()
        for master in system.masters:
            system.failures.crash_at(master, system.now + 0.5)
        system.run_for(1.0)
        results = []
        system.clients[0].submit_write(KVPut(key="x", value=1),
                                       callback=results.append)
        system.run_for(400.0)
        assert results and results[0]["status"] == "failed"


class TestSlaveCertificateCheck:
    """Setup and mid-run reassignment share one certificate check."""

    @pytest.mark.parametrize("entry", ["_handle_assignment",
                                       "_install_assignment"])
    def test_unvouched_certificates_are_counted_not_adopted(self, entry):
        from repro.core.messages import SlaveAssignment
        from repro.crypto.certificates import Certificate

        system = make_system()
        system.start()
        system.run_for(5.0)
        client = system.clients[0]
        assert client.ready
        assigned = client.assigned_slaves
        master, slave = system.masters[0], system.slaves[0]
        stranger = system.clients[1].keys
        unknown_issuer = Certificate.issue(
            stranger, "slave-x", "x:1", slave.keys.public_key, issued_at=0.0)
        good = master.find_slave_cert(master.slaves[0])
        forged = dataclasses.replace(good, subject_id="slave-y")
        getattr(client, entry)(SlaveAssignment(
            slave_certificates=(unknown_issuer, forged),
            auditor_id=client.auditor_id))
        assert system.metrics.count("client_bad_slave_certs") == 2
        assert "slave-x" not in client.slave_certs
        assert "slave-y" not in client.slave_certs
        if entry == "_install_assignment":
            assert client.assigned_slaves == assigned
