"""Tests for the verify cache and the signed-payload memos.

The load-bearing property throughout: caching only ever short-circuits a
*repeated* computation over identical inputs.  A garbled signature, a
tampered payload or a different key must always fall through to a real
verification -- the cache can make the protocol faster, never more
credulous.  The uncached references are ``signatures._verify_dispatch``
and each signed type's static payload builder.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import Pledge, VersionStamp
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.crypto import fastpath, signatures
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import constant_time_equals, sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer, verify_signature
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.shard.map import ShardMap


@pytest.fixture(autouse=True)
def _clean_fastpath():
    """Each test starts with a cold cache and zeroed stats."""
    fastpath.VERIFY_CACHE.clear()
    fastpath.reset_stats()


def _rsa_keys(owner_id: str, seed: int, metrics=None) -> KeyPair:
    return KeyPair(owner_id, new_signer(
        "rsa", rng=random.Random(seed), rsa_bits=256), metrics=metrics)


def _hmac_keys(owner_id: str, seed: int, metrics=None) -> KeyPair:
    return KeyPair(owner_id, new_signer(
        "hmac", rng=random.Random(seed)), metrics=metrics)


class TestLRUCache:
    def test_get_miss_then_hit(self):
        cache = fastpath.LRUCache(4)
        assert cache.get("a") is fastpath.MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_falsy_values_are_cacheable(self):
        cache = fastpath.LRUCache(4)
        cache.put("a", False)
        assert cache.get("a") is False

    def test_eviction_is_least_recently_used(self):
        cache = fastpath.LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_existing_key_updates_value_and_recency(self):
        cache = fastpath.LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # no eviction: same key
        cache.put("c", 3)   # evicts "b", the oldest untouched entry
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            fastpath.LRUCache(0)


class TestVerifyCacheSoundness:
    """The ISSUE's invariant: priming never launders a mismatch."""

    def test_garbled_signature_fails_after_priming(self):
        keys = _rsa_keys("signer", seed=11)
        verifier = _hmac_keys("verifier", seed=12)
        message = b"the pledged payload"
        signature = keys.sign(message)
        # Prime the cache with the valid triple.
        assert verifier.verify(keys.public_key, message, signature)
        assert verifier.verify(keys.public_key, message, signature)
        # A garbled signature over the *same* payload must still fail.
        assert not verifier.verify(keys.public_key, message, signature + 1)
        assert not verifier.verify(keys.public_key, message, signature ^ 1)

    def test_tampered_payload_fails_after_priming(self):
        keys = _rsa_keys("signer", seed=13)
        verifier = _hmac_keys("verifier", seed=14)
        signature = keys.sign(b"honest payload")
        assert verifier.verify(keys.public_key, b"honest payload", signature)
        assert not verifier.verify(keys.public_key, b"forged payload",
                                   signature)

    def test_hmac_garbled_signature_fails_after_priming(self):
        keys = _hmac_keys("signer", seed=15)
        verifier = _hmac_keys("verifier", seed=16)
        signature = keys.sign(b"payload")
        assert verifier.verify(keys.public_key, b"payload", signature)
        garbled = bytes(signature[:-1]) + bytes([signature[-1] ^ 0xFF])
        assert not verifier.verify(keys.public_key, b"payload", garbled)

    def test_rejections_are_cached_too(self):
        keys = _rsa_keys("signer", seed=17)
        verifier = _hmac_keys("verifier", seed=18)
        bad = keys.sign(b"some other payload")
        assert not verifier.verify(keys.public_key, b"payload", bad)
        before = fastpath.VERIFY_CACHE.hits
        assert not verifier.verify(keys.public_key, b"payload", bad)
        assert fastpath.VERIFY_CACHE.hits == before + 1

    def test_repeat_verification_hits_cache(self):
        keys = _rsa_keys("signer", seed=19)
        verifier = _hmac_keys("verifier", seed=20)
        signature = keys.sign(b"payload")
        verifier.verify(keys.public_key, b"payload", signature)
        hits = fastpath.VERIFY_CACHE.hits
        for _ in range(3):
            assert verifier.verify(keys.public_key, b"payload", signature)
        assert fastpath.VERIFY_CACHE.hits == hits + 3

    def test_cached_verdicts_equal_the_uncached_reference(self):
        rsa = _rsa_keys("signer", seed=21)
        mac = _hmac_keys("signer", seed=22)
        cases = []
        for keys in (rsa, mac):
            good = keys.sign(b"payload")
            other = keys.sign(b"another payload")
            cases += [(keys.public_key, b"payload", good),
                      (keys.public_key, b"payload", other),
                      (keys.public_key, b"forged", good)]
        cases.append((rsa.public_key, b"payload", mac.sign(b"payload")))
        for public_key, message, signature in cases:
            reference = signatures._verify_dispatch(public_key, message,
                                                    signature)
            # First call fills the cache, second is answered from it.
            assert verify_signature(public_key, message,
                                    signature) is reference
            assert verify_signature(public_key, message,
                                    signature) is reference
        assert fastpath.VERIFY_CACHE.hits == len(cases)

    def test_one_full_verification_per_reply_and_one_per_stamp(self):
        """A client's acceptance checks over a stream of replies under
        one keep-alive stamp: every pledge is verified in full, the
        stamp once for the whole stream."""
        master = _rsa_keys("master-00", seed=25)
        slave = _rsa_keys("slave-00-00", seed=26)
        client = _hmac_keys("client-00", seed=27)
        stamp = VersionStamp.make(master, version=3, timestamp=0.0)
        reads = 40
        accepted = 0
        for i in range(reads):
            result = {"key": f"k{i % 8}", "value": [i % 8, "payload"]}
            pledge = Pledge.make(slave, query_wire=("get", f"k{i % 8}"),
                                 result_hash=sha1_hex(result), stamp=stamp,
                                 request_id=f"req-{i:05d}")
            accepted += (
                constant_time_equals(sha1_hex(result), pledge.result_hash)
                and pledge.stamp.verify(client, master.public_key)
                and pledge.verify(client, slave.public_key))
        assert accepted == reads
        assert fastpath.VERIFY_CACHE.misses == reads + 1
        assert fastpath.VERIFY_CACHE.hits == reads - 1

    def test_metrics_counters_flow(self):
        metrics = MetricsRegistry()
        keys = _hmac_keys("signer", seed=23)
        verifier = _hmac_keys("verifier", seed=24, metrics=metrics)
        signature = keys.sign(b"payload")
        verifier.verify(keys.public_key, b"payload", signature)
        verifier.verify(keys.public_key, b"payload", signature)
        assert metrics.count("verify_cache_misses") == 1
        assert metrics.count("verify_cache_hits") == 1


class TestSchemeDispatch:
    """Verification dispatches on the *key's* scheme, not the verifier's."""

    def test_hmac_verifier_accepts_rsa_signature(self):
        rsa = _rsa_keys("master", seed=31)
        client = _hmac_keys("client", seed=32)
        signature = rsa.sign(b"certificate payload")
        assert client.verify(rsa.public_key, b"certificate payload",
                             signature)

    def test_rsa_verifier_accepts_hmac_signature(self):
        hmac_keys = _hmac_keys("peer", seed=33)
        rsa = _rsa_keys("master", seed=34)
        signature = hmac_keys.sign(b"payload")
        assert rsa.verify(hmac_keys.public_key, b"payload", signature)

    def test_unknown_key_type_verifies_nothing(self):
        assert not verify_signature(object(), b"payload", b"sig")

    def test_signature_of_wrong_scheme_fails(self):
        rsa = _rsa_keys("a", seed=35)
        hmac_keys = _hmac_keys("b", seed=36)
        assert not verify_signature(rsa.public_key, b"m",
                                    hmac_keys.sign(b"m"))
        assert not verify_signature(hmac_keys.public_key, b"m",
                                    rsa.sign(b"m"))


class TestPayloadMemo:
    def test_forged_stamp_copy_does_not_inherit_cache(self):
        master = _rsa_keys("master-00", seed=41)
        client = _hmac_keys("client-00", seed=42)
        stamp = VersionStamp.make(master, version=7, timestamp=1.0)
        assert stamp.verify(client, master.public_key)
        # A malicious copy with a bumped version must rebuild its payload
        # (the memo is init=False, so replace() drops it) and fail.
        forged = dataclasses.replace(stamp, version=8)
        assert forged._payload_cache is None
        assert not forged.verify(client, master.public_key)

    def test_forged_pledge_copy_does_not_inherit_cache(self):
        slave = _rsa_keys("slave-00-00", seed=43)
        master = _rsa_keys("master-00", seed=44)
        client = _hmac_keys("client-00", seed=45)
        stamp = VersionStamp.make(master, version=1, timestamp=0.0)
        pledge = Pledge.make(slave, query_wire=("get", "k1"),
                             result_hash="ab" * 20, stamp=stamp,
                             request_id="r1")
        assert pledge.verify(client, slave.public_key)
        forged = dataclasses.replace(pledge, result_hash="cd" * 20)
        assert forged._payload_cache is None
        assert not forged.verify(client, slave.public_key)

    def test_signed_payload_equals_the_static_reference_builder(self):
        """Fresh, decoded and ``dataclasses.replace`` instances of every
        memoising signed type: the memo is the reference builder's
        bytes, and it is stable."""
        owner = _hmac_keys("content-owner", seed=46)
        master = _hmac_keys("master-00", seed=47)
        slave = _hmac_keys("slave-00-00", seed=48)
        stamp = VersionStamp.make(master, version=2, timestamp=3.0)
        pledge = Pledge.make(slave, query_wire=("get", "k1"),
                             result_hash="ab" * 20, stamp=stamp,
                             request_id="r1")
        cert = Certificate.issue(owner, "master-00", "addr:master-00",
                                 master.public_key, issued_at=1.0,
                                 lifetime=50.0)
        shard_map = ShardMap.make(owner, "ns", epoch=2, seed=9,
                                  assignments={"s1": ("master-01",),
                                               "s0": ("master-00",)},
                                  issued_at=4.0)

        def reference(obj):
            if isinstance(obj, VersionStamp):
                return VersionStamp._payload(obj.version, obj.timestamp,
                                             obj.master_id)
            if isinstance(obj, Pledge):
                return Pledge._payload(obj.query_wire, obj.result_hash,
                                       obj.stamp, obj.slave_id,
                                       obj.request_id)
            if isinstance(obj, Certificate):
                return Certificate._signed_payload(
                    obj.subject_id, obj.address, obj.subject_public_key,
                    obj.issuer_id, obj.issued_at, obj.expires_at)
            return ShardMap._signed_payload(
                obj.namespace, obj.epoch, obj.seed, obj.shard_ids,
                obj.assignments, obj.issuer_id, obj.issued_at)

        for fresh, tampered in (
                (stamp, dataclasses.replace(stamp, version=8)),
                (pledge, dataclasses.replace(pledge, request_id="r2")),
                (cert, dataclasses.replace(cert, address="addr:evil")),
                (shard_map, dataclasses.replace(shard_map, epoch=3))):
            decoded = codec.decode_value(codec.encode_value(fresh))
            assert decoded == fresh and decoded._payload_cache is None
            assert tampered._payload_cache is None
            for obj in (fresh, decoded, tampered):
                payload = obj.signed_payload()
                assert payload == reference(obj)
                assert obj.signed_payload() is payload  # memoised
            assert tampered.signed_payload() != fresh.signed_payload()


class TestEndToEndRSA:
    def test_rsa_system_accepts_reads(self):
        """Clients (HMAC-keyed) complete setup and accept reads on an
        RSA deployment -- the seed looped forever in setup here."""
        from repro.content.kvstore import KVGet, KeyValueStore

        protocol = ProtocolConfig(signer_scheme="rsa", rsa_bits=256,
                                  double_check_probability=0.0)
        system = ReplicationSystem.build(DeploymentSpec(
            num_masters=1, slaves_per_master=1, num_clients=2, seed=5,
            protocol=protocol,
            store_factory=lambda: KeyValueStore({"k1": 1, "k2": 2})))
        system.start()
        t = system.now
        for i in range(10):
            system.schedule_op(system.clients[i % 2], t + 0.5 + i * 0.2,
                               KVGet(key=f"k{1 + i % 2}"))
        system.run_for(20.0)
        assert system.metrics.count("reads_accepted") == 10
        assert system.metrics.count("client_bad_master_certs") == 0
        assert system.metrics.count("verify_cache_hits") > 0
        summary = system.summary()
        assert summary["classification"]["accepted_wrong"] == 0
