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

from repro.content.kvstore import KVGet, KeyValueStore
from repro.core.client import rebuild_pledge
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    AuditBatch,
    Pledge,
    ReadReply,
    Seal,
    VersionStamp,
)
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.crypto import fastpath, hashing, signatures
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import (
    canonical_bytes,
    constant_time_equals,
    sha1_hex,
)
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

    def test_order_across_hits_and_evictions(self):
        cache = fastpath.LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        assert cache.get("a") == "a"     # b c a
        cache.put("d", "d")              # evicts b: c a d
        assert cache.get("c") == "c"     # a d c
        cache.put("a", "A")              # an update is a use: d c a
        cache.put("e", "e")              # evicts d: c a e
        assert cache.get("b") is fastpath.MISS
        assert list(cache._data.items()) == [("c", "c"), ("a", "A"),
                                             ("e", "e")]
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 3)

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
                named = obj.stamp
                return Pledge._payload(
                    canonical_bytes(obj.query_wire), obj.result_hash,
                    VersionStamp._pledge_fields(
                        named.version, named.timestamp, named.master_id,
                        named.signature),
                    obj.slave_id, obj.request_id)
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

    def test_stamp_and_query_memos_equal_the_static_builders(self):
        """The two sub-record memos a pledge's payload is assembled
        from: a fresh, a wire-decoded and a ``replace``d instance each
        hold what the static builders make of their *own* fields."""
        master = _hmac_keys("master-00", seed=47)
        slave = _hmac_keys("slave-00-00", seed=48)
        stamp = VersionStamp.make(master, version=2, timestamp=3.0)
        decoded_stamp = codec.decode_value(codec.encode_value(stamp))
        moved = dataclasses.replace(stamp, timestamp=9.0)
        for obj in (stamp, decoded_stamp, moved):
            assert obj._pledge_fields_cache is None  # until a pledge asks
            fields = obj.pledge_fields()
            assert fields == VersionStamp._pledge_fields(
                obj.version, obj.timestamp, obj.master_id, obj.signature)
            assert obj.pledge_fields() is fields  # memoised
        assert moved.pledge_fields() != stamp.pledge_fields()

        pledge = Pledge.make(slave, query_wire={"op": "kv.get", "key": "k1"},
                             result_hash="ab" * 20, stamp=stamp,
                             request_id="r1")
        decoded = codec.decode_value(codec.encode_value(pledge))
        asked = dataclasses.replace(pledge, query_wire={"op": "kv.get",
                                                        "key": "k2"})
        assert pledge._query_cache is not None  # seeded by make()
        assert decoded._query_cache is None and asked._query_cache is None
        for obj in (pledge, decoded, asked):
            assert obj.query_hash() == sha1_hex(obj.query_wire)
            assert obj._query_cache == canonical_bytes(obj.query_wire)
        assert asked.query_hash() != pledge.query_hash()

    def test_forgery_in_flight_signs_over_the_new_fields(self):
        """The shape ``AnswerSubstitution`` and ``_maybe_garble`` rely
        on: ``replace`` on a pledge whose memos are all warm -- its
        own, and those of the stamp it shares with honest pledges."""
        master = _hmac_keys("master-00", seed=49)
        slave = _hmac_keys("slave-00-00", seed=50)
        client = _hmac_keys("client-00", seed=51)
        stamp = VersionStamp.make(master, version=2, timestamp=3.0)
        pledge = Pledge.make(slave, query_wire={"op": "kv.get", "key": "k1"},
                             result_hash="ab" * 20, stamp=stamp,
                             request_id="r1")
        assert pledge.verify(client, slave.public_key)
        assert stamp._pledge_fields_cache is not None

        later = dataclasses.replace(stamp, timestamp=99.0)
        restamped = dataclasses.replace(pledge, stamp=later)
        assert b"F4:99.0" in restamped.signed_payload()
        assert not restamped.verify(client, slave.public_key)
        assert not later.verify(client, master.public_key)
        # ... and a slave that signs over the forged stamp itself gets
        # a pledge that verifies while the stamp inside still does not.
        resigned = Pledge.make(slave, pledge.query_wire, pledge.result_hash,
                               later, "r1")
        assert resigned.verify(client, slave.public_key)
        assert resigned.signed_payload() == restamped.signed_payload()

        other_query = {"op": "kv.get", "key": "k2"}
        asked = dataclasses.replace(pledge, query_wire=other_query)
        assert canonical_bytes(other_query) in asked.signed_payload()
        assert not asked.verify(client, slave.public_key)
        assert asked.signed_payload() == Pledge.make(
            slave, other_query, pledge.result_hash, stamp,
            "r1").signed_payload()

        garbled = dataclasses.replace(pledge, signature=b"\x00garbage")
        assert garbled.signed_payload() == pledge.signed_payload()
        assert not garbled.verify(client, slave.public_key)
        # The honest pledge and the shared stamp are untouched.
        assert pledge.verify(client, slave.public_key)
        assert stamp.verify(client, master.public_key)


@pytest.fixture
def walks(monkeypatch):
    """Counts top-level canonical walks: each entry into the generic
    walker from outside it (``canonical_bytes``, ``sha1_hex``, a
    record's non-``str`` field).  ``walks()`` reads the count."""
    real = hashing._serialise
    depth = count = 0

    def counting(value, out):
        nonlocal depth, count
        count += depth == 0
        depth += 1
        try:
            real(value, out)
        finally:
            depth -= 1

    monkeypatch.setattr(hashing, "_serialise", counting)
    return lambda: count


class TestWalkCounts:
    """Counts, not timings: they repeat on any machine."""

    def _pledges(self, reads: int):
        """``reads`` pledges under one stamp, as the client at the far
        end of one connection rebuilds them from the slave's replies."""
        master = _hmac_keys("master-00", seed=61)
        slave = _hmac_keys("slave-00-00", seed=62)
        stamp = VersionStamp.make(master, version=4, timestamp=2.0)
        sender, receiver = codec.WireContext(), codec.WireContext()
        rebuilt = []
        for i in range(reads):
            query = KVGet(key=f"k{i}").to_wire()
            result = {"found": True, "value": i}
            pledge = Pledge.make(slave, query, sha1_hex(result), stamp,
                                 request_id=f"r{i}")
            seal = Seal(stamp=pledge.stamp, signature=pledge.signature)
            received = codec.decode_frame(codec.encode_frame(
                ReadReply(f"r{i}", result, seal), sender), receiver)
            rebuilt.append(rebuild_pledge(received, slave.owner_id,
                                          f"r{i}", query))
        return rebuilt

    def test_second_pledge_under_a_stamp_walks_its_query_only(
            self, walks, monkeypatch):
        first, second = self._pledges(2)
        assert second.stamp is first.stamp
        stamps_framed = []
        build = VersionStamp._pledge_fields
        monkeypatch.setattr(
            VersionStamp, "_pledge_fields",
            staticmethod(lambda *fields: stamps_framed.append(fields)
                         or build(*fields)))
        before = walks()
        first.signed_payload()
        assert len(stamps_framed) == 1
        assert walks() - before == 1
        before = walks()
        second.signed_payload()
        assert walks() - before == 1  # its query
        assert len(stamps_framed) == 1  # no stamp field framed again

    def test_auditing_a_cache_hit_pledge_walks_its_query_once(self, walks):
        """``_audit`` files the re-execution under the query's hash and
        ``_finish_audit`` verifies the payload the query is part of:
        one walk between them."""
        system = ReplicationSystem.build(DeploymentSpec(
            num_masters=2, slaves_per_master=1, num_clients=1, seed=3,
            store_factory=lambda: KeyValueStore({"k0": 0, "k1": 1})))
        system.start()
        system.run_for(5.0)
        auditor = system.auditor
        slave = system.slaves[0]
        stamp = slave.latest_stamp
        sender, receiver = codec.WireContext(), codec.WireContext()
        query = KVGet(key="k1").to_wire()
        result_hash = sha1_hex(slave.store.execute_read(
            KVGet(key="k1")).result)

        def forwarded(request_id):
            pledge = Pledge.make(slave.keys, query, result_hash, stamp,
                                 request_id)
            batch = codec.decode_frame(codec.encode_frame(
                AuditBatch((pledge,)), sender), receiver)
            return batch.pledges

        auditor._intake(forwarded("r0"))  # the miss that fills the cache
        system.run_for(1.0)
        hits, audited = auditor.cache_hits, auditor.pledges_audited
        pledges = forwarded("r1")
        before = walks()
        auditor._intake(pledges)
        system.run_for(1.0)
        assert auditor.cache_hits == hits + 1
        assert auditor.pledges_audited == audited + 1
        assert system.metrics.count("audits_bad_signature") == 0
        assert walks() - before == 1

    def test_simulator_run_walks_four_times_a_read(self, walks):
        """Four top-level walks a read, and none of them twice: the
        slave walks the query under the pledge it signs and hashes the
        result it serves; the client hashes the result it received and
        walks its own query under the pledge it rebuilds.  The auditor
        walks nothing: over the simulator objects travel by reference,
        and the pledge it is forwarded is the client's, memos and all.
        (With the slave's pledge travelling whole to the client, three:
        937 on this run, against 1 237 now.)"""
        system = ReplicationSystem.build(DeploymentSpec(
            num_masters=2, slaves_per_master=2, num_clients=3, seed=5,
            store_factory=lambda: KeyValueStore(
                {f"k{i}": i for i in range(20)})))
        system.start()
        start = system.now
        before = walks()
        for i in range(300):
            system.schedule_op(system.clients[i % 3],
                               start + 0.5 + i * 0.05,
                               KVGet(key=f"k{i % 20}"))
        system.run_for(60.0)
        assert system.metrics.count("reads_accepted") == 300
        assert system.metrics.count("pledges_audited") > 250
        # Set-up and keep-alives walk a few dozen times besides.
        assert walks() - before <= 4 * 300 + 50


class TestEndToEndRSA:
    def test_rsa_system_accepts_reads(self):
        """Clients (HMAC-keyed) complete setup and accept reads on an
        RSA deployment -- the seed looped forever in setup here."""
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
