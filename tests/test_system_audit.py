"""Integration tests: auditor mechanics (Section 3.4).

Lagging version advancement, query-result caching, sampled auditing, and
the crypto-asymmetry bookkeeping behind the auditor's throughput claim.
"""

from __future__ import annotations

import random

from repro.content.kvstore import KVGet, KVPut
from repro.core.config import ProtocolConfig
from repro.core.messages import AuditBatch, Pledge, VersionStamp
from repro.crypto.hashing import sha1_hex

from .conftest import make_system


def drive_reads(system, count, rate, keys=10, seed=1, key_rng=None):
    rng = key_rng or random.Random(seed)
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        client = system.clients[i % len(system.clients)]
        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(keys):03d}"))
    return t


class TestAuditLagDiscipline:
    def test_auditor_waits_more_than_max_latency_after_commit(self):
        config = ProtocolConfig(max_latency=3.0, keepalive_interval=1.0,
                                audit_grace=2.0,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        system.clients[0].submit_write(KVPut(key="x", value=1))
        system.run_for(1.0)
        commit_time = None
        advance_time = None
        # Poll simulated time for the two transitions.
        for _ in range(300):
            system.run_for(0.1)
            if commit_time is None and system.masters[0].version == 1:
                commit_time = system.now
            if advance_time is None and system.auditor.version == 1:
                advance_time = system.now
                break
        assert commit_time is not None and advance_time is not None
        assert advance_time - commit_time >= config.max_latency

    def test_pledges_for_future_version_parked_until_reachable(self):
        config = ProtocolConfig(max_latency=3.0, keepalive_interval=1.0,
                                audit_grace=3.0,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        system.clients[0].submit_write(KVPut(key="k001", value="new"))
        system.run_for(6.0)  # masters committed; auditor still at v0
        assert system.masters[0].version == 1
        assert system.auditor.version == 0
        # A read now pledges at version 1 -- ahead of the auditor.
        system.clients[1].submit_read(KVGet(key="k001"))
        system.run_for(1.0)
        parked = sum(len(q) for q in system.auditor._parked.values())
        assert parked >= 0  # may already be audited if timing raced
        system.run_for(60.0)
        # Eventually audited, and cleanly.
        assert system.auditor.pledges_audited == \
            system.auditor.pledges_received
        assert system.auditor.detections == 0

    def test_audits_against_historical_version(self):
        """A pledge from version v is audited against the v snapshot even
        after the auditor moved past v -- no false detections."""
        config = ProtocolConfig(max_latency=2.0, keepalive_interval=0.5,
                                double_check_probability=0.0)
        system = make_system(protocol=config)
        system.start()
        # Interleave reads and writes on the same key.
        t = system.now
        for i in range(4):
            system.schedule_op(system.clients[0], t + i * 6.0,
                               KVPut(key="hot", value=i))
        rng = random.Random(5)
        for _ in range(40):
            client = system.clients[rng.randrange(4)]
            system.schedule_op(client, t + rng.uniform(0, 30),
                               KVGet(key="hot"))
        system.run_for(120.0)
        assert system.auditor.detections == 0
        assert system.auditor.pledges_audited == \
            system.auditor.pledges_received


class TestAuditorCache:
    def test_repeated_queries_hit_cache(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        # All clients read the same key over and over.
        t = system.now
        for i in range(50):
            system.schedule_op(system.clients[i % 4], t + i * 0.2,
                               KVGet(key="k001"))
        system.run_for(60.0)
        assert system.auditor.cache_misses == 1
        assert system.auditor.cache_hits == 49
        assert system.auditor.cache_hit_rate() > 0.97

    def test_cache_keyed_by_version(self):
        system = make_system(protocol=ProtocolConfig(
            max_latency=2.0, keepalive_interval=0.5,
            double_check_probability=0.0))
        system.start()
        t = system.now
        system.schedule_op(system.clients[0], t + 1.0, KVGet(key="k001"))
        system.schedule_op(system.clients[0], t + 3.0,
                           KVPut(key="k001", value="v2"))
        system.schedule_op(system.clients[1], t + 12.0, KVGet(key="k001"))
        system.run_for(60.0)
        # Same query at two versions: two cache misses, no false alarms.
        assert system.auditor.cache_misses == 2
        assert system.auditor.detections == 0

    def test_cache_disabled(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, auditor_cache_enabled=False))
        system.start()
        t = system.now
        for i in range(20):
            system.schedule_op(system.clients[i % 4], t + i * 0.2,
                               KVGet(key="k001"))
        system.run_for(30.0)
        # Disabled means *fully* disabled: the cache is never consulted,
        # never populated, and the hit/miss counters never move -- the
        # A3 disabled-cache baseline must show pure re-execution.
        assert system.auditor.cache_hits == 0
        assert system.auditor.cache_misses == 0
        assert system.auditor._cache == {}
        assert system.auditor.pledges_audited > 0

    DEPTH = 2

    def _read_past_the_history(self, cache_enabled):
        """Reads at 3 x depth versions, then an honest pledge at version
        0, which the history has dropped: what the audit says of it, and
        whether the history still holds each version the cache does."""
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, max_latency=1.0,
            keepalive_interval=0.5, audit_grace=0.5,
            version_history_depth=self.DEPTH,
            auditor_cache_enabled=cache_enabled))
        system.start()
        client, auditor = system.clients[0], system.auditor
        for i in range(3 * self.DEPTH):
            client.submit_read(KVGet(key="k001"))
            system.run_for(1.0)
            client.submit_write(KVPut(key=f"w{i}", value=i))
            system.run_for(3.0)
        assert auditor.version == 3 * self.DEPTH
        assert auditor.store_at(0) is None
        query = KVGet(key="k001")
        pledge = Pledge.make(
            system.slaves[0].keys, query.to_wire(),
            sha1_hex(system.initial_store.execute_read(query).result),
            VersionStamp.make(system.masters[0].keys, 0, system.now),
            f"{client.node_id}:r99")
        names = ("pledges_audited", "audits_clean", "audits_unverifiable",
                 "audit_detections")
        before = [system.metrics.count(name) for name in names]
        auditor.on_message(client.node_id, AuditBatch((pledge,)))
        system.run_for(3.0)
        outcome = {name: system.metrics.count(name) - was
                   for name, was in zip(names, before)}
        return outcome, {version: auditor.store_at(version) is not None
                         for version in auditor._cache}

    def test_cache_answers_only_for_retained_versions(self):
        """A pledge at a version the history dropped is unverifiable
        whether or not the cache is on (A3 turns it off), and the cache
        holds no more versions than the history does."""
        cached, versions = self._read_past_the_history(True)
        uncached, _ = self._read_past_the_history(False)
        assert cached == uncached == {
            "pledges_audited": 0, "audits_clean": 0,
            "audits_unverifiable": 1, "audit_detections": 0}
        assert 0 < len(versions) <= self.DEPTH
        assert all(versions.values())


class TestSampledAuditing:
    def test_fraction_zero_audits_nothing(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, audit_fraction=0.0))
        system.start()
        drive_reads(system, 40, rate=10.0)
        system.run_for(30.0)
        assert system.auditor.pledges_received == 40
        assert system.auditor.pledges_skipped == 40
        assert system.auditor.pledges_audited == 0

    def test_fraction_half_audits_roughly_half(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0, audit_fraction=0.5))
        system.start()
        drive_reads(system, 200, rate=20.0)
        system.run_for(60.0)
        audited = system.auditor.pledges_audited
        assert 70 <= audited <= 130

    def test_sampling_weakens_detection_proportionally(self):
        """With audit_fraction f, a one-shot lie escapes with ~1-f."""
        from repro.core.adversary import ProbabilisticLie

        def run(fraction, seed):
            system = make_system(
                seed=seed,
                protocol=ProtocolConfig(double_check_probability=0.0,
                                        audit_fraction=fraction),
                adversaries={0: ProbabilisticLie(
                    0.5, rng=random.Random(seed))})
            system.start()
            drive_reads(system, 60, rate=10.0, seed=seed)
            system.run_for(60.0)
            return system.auditor.detections

        full = run(1.0, 3)
        none = run(0.0, 3)
        assert full >= 1
        assert none == 0


class TestCryptoAsymmetryBookkeeping:
    def test_auditor_never_signs(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        baseline = system.auditor.keys.signatures_made
        drive_reads(system, 50, rate=10.0)
        system.run_for(60.0)
        # Stamps/pledges are signed by masters/slaves; the auditor's key
        # signs nothing during auditing.
        assert system.auditor.keys.signatures_made == baseline
        assert system.auditor.keys.verifications_done > 0

    def test_slaves_sign_once_per_read(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        before = {s.node_id: s.keys.signatures_made for s in system.slaves}
        drive_reads(system, 40, rate=10.0)
        system.run_for(60.0)
        total_new = sum(s.keys.signatures_made - before[s.node_id]
                        for s in system.slaves)
        assert total_new == 40
