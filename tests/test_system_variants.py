"""Integration tests: the Section 4 variants.

Security-sensitive reads (per-level double-check probabilities, level 1.0
executed only on trusted masters) and multi-slave quorum reads.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.content.kvstore import KVAggregate, KVGet
from repro.core.adversary import AlwaysLie, Colluding
from repro.core.config import ProtocolConfig
from repro.core.variants import SecurityLevelPolicy

from .conftest import make_system


class TestSecurityLevels:
    def test_sensitive_read_served_by_master_only(self):
        system = make_system()
        system.start()
        before = system.metrics.count("slave_reads_served")
        outcomes = []
        system.clients[0].submit_read(KVGet(key="k001"), level="sensitive",
                                      callback=outcomes.append)
        system.run_for(10.0)
        assert outcomes[0]["status"] == "accepted"
        assert outcomes[0]["double_checked"] is True
        assert system.metrics.count("sensitive_reads") == 1
        # No slave executed anything for it.
        assert system.metrics.count("slave_reads_served") == before

    def test_sensitive_reads_always_correct_despite_liars(self):
        system = make_system(
            adversaries={i: AlwaysLie() for i in range(4)},
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    audit_fraction=0.0))
        system.start()
        rng = random.Random(1)
        t = system.now
        for i in range(30):
            system.schedule_op(system.clients[i % 4], t + i * 0.5,
                               KVGet(key=f"k{rng.randrange(100):03d}"),
                               level="sensitive")
        system.run_for(60.0)
        result = system.classify_accepted_reads()
        assert result["accepted_total"] == 30
        assert result["accepted_wrong"] == 0

    def test_normal_level_uses_configured_probability(self):
        config = ProtocolConfig(
            security_levels={"normal": 0.0, "elevated": 1.0,
                             "sensitive": 1.0})
        system = make_system(protocol=config)
        system.start()
        system.clients[0].submit_read(KVGet(key="k001"), level="normal")
        system.run_for(5.0)
        assert system.metrics.count("double_checks_sent") == 0

    def test_unknown_level_raises(self):
        system = make_system()
        system.start()
        with pytest.raises(ValueError, match="unknown security level"):
            system.clients[0].submit_read(KVGet(key="k001"),
                                          level="ultraviolet")

    def test_policy_maps_queries_to_levels(self):
        base = ProtocolConfig()
        config = dataclasses.replace(
            base, security_levels={**base.security_levels, "aggregate": 1.0})
        policy = SecurityLevelPolicy(config)
        policy.add_rule(lambda q: isinstance(q, KVAggregate), "aggregate")
        assert policy.level_for(KVAggregate(prefix="", func="count")) == \
            "aggregate"
        assert policy.level_for(KVGet(key="x")) == "normal"
        assert policy.probability_for(
            KVAggregate(prefix="", func="count")) == 1.0

    def test_policy_validates_levels(self):
        policy = SecurityLevelPolicy(ProtocolConfig())
        with pytest.raises(ValueError):
            policy.add_rule(lambda q: True, "nonexistent")
        with pytest.raises(ValueError):
            SecurityLevelPolicy(ProtocolConfig(), default_level="nope")


class TestQuorumReads:
    def test_quorum_clients_get_multiple_slaves(self):
        system = make_system(
            protocol=dataclasses.replace(ProtocolConfig(), read_quorum=2),
            slaves_per_master=3)
        system.start()
        for client in system.clients:
            assert len(client.assigned_slaves) == 2
            assert len(set(client.assigned_slaves)) == 2

    def test_single_liar_triggers_forced_double_check(self):
        system = make_system(
            protocol=dataclasses.replace(
                ProtocolConfig(double_check_probability=0.0), read_quorum=2),
            slaves_per_master=3,
            adversaries={0: AlwaysLie()})
        system.start()
        rng = random.Random(2)
        t = system.now
        for i in range(40):
            system.schedule_op(system.clients[i % 4], t + i * 0.5,
                               KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(90.0)
        assert system.metrics.count("quorum_disagreements") >= 1
        assert system.metrics.count("double_checks_forced") >= 1
        # The lone liar cannot pass a wrong answer through the quorum.
        assert system.classify_accepted_reads()["accepted_wrong"] == 0
        assert system.metrics.count("exclusions") >= 1

    def test_full_collusion_passes_quorum_but_audit_catches(self):
        """If every quorum member colludes, the cross-check passes -- the
        paper's residual risk -- and the audit still catches them."""
        system = make_system(
            protocol=dataclasses.replace(
                ProtocolConfig(double_check_probability=0.0), read_quorum=2),
            slaves_per_master=2,
            adversaries={i: Colluding(group_seed=5) for i in range(4)})
        system.start()
        rng = random.Random(3)
        t = system.now
        for i in range(30):
            system.schedule_op(system.clients[i % 4], t + i * 0.5,
                               KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(90.0)
        result = system.classify_accepted_reads()
        assert result["accepted_wrong"] >= 1  # collusion worked briefly
        assert system.auditor.detections >= 1  # but was caught
        assert system.metrics.count("exclusions") >= 1

    def test_quorum_of_honest_slaves_never_disagrees(self):
        system = make_system(
            protocol=dataclasses.replace(ProtocolConfig(), read_quorum=2),
            slaves_per_master=3)
        system.start()
        rng = random.Random(4)
        t = system.now
        for i in range(30):
            system.schedule_op(system.clients[i % 4], t + i * 0.5,
                               KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(60.0)
        assert system.metrics.count("quorum_disagreements") == 0
        assert system.metrics.count("reads_accepted") == 30

    def test_quorum_config_validation(self):
        with pytest.raises(ValueError, match="read_quorum"):
            dataclasses.replace(ProtocolConfig(), read_quorum=0)
