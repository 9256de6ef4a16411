"""Tests for the binary wire codec (repro.net.codec).

Three layers of guarantee:

* **round-trip**: every registered wire type -- all 27 protocol messages
  plus the infrastructure carriers -- decodes back to an equal value,
  and the signed ones (stamps, pledges, certificates) still *verify*
  after the trip, under both signature schemes;
* **hostile input**: truncated, oversized, mis-tagged and unknown-type
  frames raise :class:`CodecError` subclasses, never ``struct.error``
  or ``IndexError``;
* **stability**: the id registry is append-only and its current layout
  is pinned, so an accidental reorder fails a test before it breaks the
  wire.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.totalorder import BroadcastEnvelope
from repro.content.kvstore import KeyValueStore
from repro.content.store import ContentStore
from repro.core import messages as m
from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import HMACPublicKey, new_signer
from repro.net import codec
from repro.net.codec import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    NetHello,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    parse_header,
    registered_wire_types,
    wire_type_id,
)
from repro.net.errors import (
    BadMagic,
    BadVersion,
    CodecError,
    FrameTooLarge,
    TruncatedFrame,
    UnknownReference,
    UnknownWireType,
)
from repro.obs.admin import (
    ObsDumpReply,
    ObsDumpRequest,
    StatusReply,
    StatusRequest,
)
from repro.obs.context import TraceCarrier, TraceContext
from repro.shard.map import ShardMap
from repro.shard.wire import (
    ShardEnvelope,
    ShardMapReply,
    ShardMapRequest,
    WrongShard,
)


def _keys(owner_id: str, scheme: str = "hmac", seed: int = 1) -> KeyPair:
    return KeyPair(owner_id, new_signer(scheme, random.Random(seed)))


MASTER = _keys("master-00")
SLAVE = _keys("slave-00-00", seed=2)
SHARD_MAP = ShardMap.make(
    MASTER, namespace="aa" * 20, epoch=2, seed=7,
    assignments={"s00": ("s00:master-00",), "s01": ("s01:master-00",)},
    issued_at=1.5)
STAMP = m.VersionStamp.make(MASTER, version=3, timestamp=12.5)
PLEDGE = m.Pledge.make(SLAVE, {"kind": "kv_get", "key": "k1"},
                       "ab" * 20, STAMP, request_id="req-7")
SEAL = m.Seal(stamp=PLEDGE.stamp, signature=PLEDGE.signature)
CERT = Certificate.issue(MASTER, "slave-00-00", "127.0.0.1:9001",
                         SLAVE.public_key, issued_at=1.0)


def roundtrip(value):
    return decode_value(encode_value(value))


def stamp_name(stamp: m.VersionStamp) -> bytes:
    """The 8 bytes a connection names ``stamp`` by once it has carried
    it in full; a reference is ``b"r"`` and these."""
    return codec._DOUBLE.pack(stamp.timestamp)


#: One representative instance per registered wire type.  The
#: completeness test below fails if a newly registered type has no entry
#: here, so this table cannot silently fall behind the registry.
EXAMPLES: dict[type, object] = {
    NetHello: NetHello(node_id="client-00"),
    Certificate: CERT,
    RSAPublicKey: RSAPublicKey(n=2**512 + 9, e=65537),
    HMACPublicKey: HMACPublicKey(b"\x00" * 20),
    BroadcastEnvelope: BroadcastEnvelope(
        kind="order", origin="master-00", local_seq=4, global_seq=9,
        payload=("anything", 1), epoch=2, leader="master-00",
        have_seq=8, entries=((9, "master-00", 4),)),
    ContentStore: KeyValueStore({"k1": "v1", "k2": 2}),
    m.VersionStamp: STAMP,
    m.Pledge: PLEDGE,
    m.DirectoryLookup: m.DirectoryLookup(content_key_fingerprint="ff" * 8),
    m.DirectoryListing: m.DirectoryListing(certificates=(CERT,)),
    m.ClientHello: m.ClientHello(client_id="client-00"),
    m.SlaveAssignment: m.SlaveAssignment(slave_certificates=(CERT,),
                                         auditor_id="zz-auditor-00"),
    m.WriteRequest: m.WriteRequest(client_id="client-00",
                                   request_id="w-1",
                                   op_wire={"kind": "kv_put", "key": "k"}),
    m.WriteReply: m.WriteReply(request_id="w-1", committed=True,
                               version=4),
    m.SlaveUpdate: m.SlaveUpdate(from_version=3,
                                 ops_wire=({"kind": "kv_put"},),
                                 stamp=STAMP),
    m.SlaveSnapshot: m.SlaveSnapshot(
        store=KeyValueStore({"a": 1}), stamp=STAMP),
    m.KeepAlive: m.KeepAlive(stamp=STAMP),
    m.ResyncRequest: m.ResyncRequest(have_version=2),
    m.ReadRequest: m.ReadRequest(client_id="client-00", request_id="r-1",
                                 query_wire={"kind": "kv_get", "key": "k"}),
    m.ReadReply: m.ReadReply(request_id="r-1", result={"value": 7},
                             pledge=SEAL, in_sync=True),
    m.DoubleCheckRequest: m.DoubleCheckRequest(
        request_id="r-1", query_wire={"kind": "kv_get"}, want_result=True),
    m.DoubleCheckReply: m.DoubleCheckReply(
        request_id="r-1", result_hash="cd" * 20, version=4,
        result={"value": 7}),
    m.AuditSubmission: m.AuditSubmission(pledge=PLEDGE),
    m.AuditBatch: m.AuditBatch(pledges=(PLEDGE, PLEDGE)),
    m.Seal: SEAL,
    m.Accusation: m.Accusation(pledge=PLEDGE, discovery="audit"),
    m.ExclusionNotice: m.ExclusionNotice(
        excluded_slave_id="slave-00-00",
        replacement=m.SlaveAssignment(slave_certificates=(CERT,),
                                      auditor_id="zz-auditor-00")),
    m.SetupFailed: m.SetupFailed(reason="no slaves"),
    m.BcastWrite: m.BcastWrite(origin_master="master-01",
                               client_id="client-00", request_id="w-1",
                               op_wire={"kind": "kv_put"}),
    m.BcastSlaveList: m.BcastSlaveList(master_id="master-00",
                                       slave_ids=("slave-00-00",)),
    m.BcastExcludeSlave: m.BcastExcludeSlave(
        slave_id="slave-00-00", discovery="immediate"),
    m.BroadcastWrapper: m.BroadcastWrapper(
        envelope=BroadcastEnvelope(kind="heartbeat", origin="master-00")),
    TraceContext: TraceContext(trace_id="t000001", span_id="s000002"),
    TraceCarrier: TraceCarrier(
        context=TraceContext("t000001", "s000002"),
        message=m.KeepAlive(stamp=STAMP)),
    ObsDumpRequest: ObsDumpRequest(max_spans=128, clear=True),
    ObsDumpReply: ObsDumpReply(
        node_id="master-00",
        spans=(("t000001", "s000002", "", "master-00", "master.commit",
                1.0, 2.0, (("version", 3),)),),
        dropped=0),
    codec.FrameBatch: codec.FrameBatch(
        messages=(m.KeepAlive(stamp=STAMP),
                  m.ReadReply(request_id="r-1", result={"value": 7},
                              pledge=PLEDGE, in_sync=True))),
    ShardEnvelope: ShardEnvelope(
        shard_id="s00", src="s00:client-00", dst="s00:master-00",
        message=m.KeepAlive(stamp=STAMP)),
    ShardMap: SHARD_MAP,
    ShardMapRequest: ShardMapRequest(namespace="aa" * 20, have_epoch=1),
    ShardMapReply: ShardMapReply(namespace="aa" * 20, shard_map=SHARD_MAP),
    WrongShard: WrongShard(shard_id="s00", epoch=3),
    StatusRequest: StatusRequest(),
    StatusReply: StatusReply(
        node_id="host-00", now=4.5, events_processed=99, shed_total=11,
        breakers=(("host-01", "open"),), breaker_trips=1,
        shards=(("s00", ("s00:master-00", "s00:slave-00-00")),),
        unsharded=("host-00",), spans_buffered=7, spans_dropped=0,
        contexts_received=12),
}


# -- plain-value round-trips ---------------------------------------------


class TestPlainValues:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 255, -256, 2**64, -(2**64), 2**2048,
        0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"),
        "", "hello", "uniçøde ☃",
        b"", b"\x00\xffbytes",
        [], [1, "two", None], (1, (2, (3,))),
        {"k": 1, 2: "v", (1, 2): [3]},
        {1, 2, 3}, frozenset({"a", "b"}), set(), frozenset(),
        [{"nested": ({"deep": [1, 2, {3}]},)}],
    ])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value
        assert type(roundtrip(value)) is type(value)

    def test_nan_roundtrips(self):
        assert math.isnan(roundtrip(float("nan")))

    def test_bool_int_not_conflated(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_set_encoding_deterministic(self):
        # Same members, different insertion order: identical bytes.
        a = encode_value({"x", "y", "z", "w"})
        b = encode_value({"w", "z", "y", "x"})
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.binary()
        | st.floats(allow_nan=False),
        lambda children: st.lists(children)
        | st.tuples(children, children)
        | st.dictionaries(st.text(), children),
        max_leaves=20))
    def test_property_roundtrip(self, value):
        assert roundtrip(value) == value


# -- registered wire types -----------------------------------------------


class TestRegisteredTypes:
    def test_examples_cover_registry(self):
        registered = set(registered_wire_types().values())
        covered = {cls.__name__ for cls in EXAMPLES}
        # KeyValueStore rides the ContentStore base entry.
        assert covered >= registered, registered - covered

    def test_every_message_type_registered(self):
        for cls in m.WIRE_MESSAGE_TYPES:
            assert wire_type_id(cls) >= 32

    def test_registry_layout_pinned(self):
        # Append-only contract: between wire-version bumps existing ids
        # never move.  New entries must extend this mapping, not alter
        # it.  (Version 4 retired ids 6 and 53, version 6 ids 12-13,
        # 15-16 and 22-23; none is reused.)
        expected_infra = {1: "NetHello", 2: "Certificate",
                          3: "RSAPublicKey", 4: "HMACPublicKey",
                          5: "BroadcastEnvelope", 7: "ContentStore",
                          8: "TraceContext", 9: "TraceCarrier",
                          10: "ObsDumpRequest", 11: "ObsDumpReply",
                          14: "FrameBatch",
                          17: "ShardEnvelope", 18: "ShardMap",
                          19: "ShardMapRequest", 20: "ShardMapReply",
                          21: "WrongShard", 24: "StatusRequest",
                          25: "StatusReply"}
        table = registered_wire_types()
        assert {k: v for k, v in table.items() if k < 32} == expected_infra
        protocol_ids = [i for i in range(32, 59) if i != 53]
        assert [table[i] for i in protocol_ids] \
            == [cls.__name__ for cls in m.WIRE_MESSAGE_TYPES]
        assert table[58] == "Seal"

    @pytest.mark.parametrize(
        "cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
    def test_roundtrip_equal(self, cls):
        value = EXAMPLES[cls]
        decoded = roundtrip(value)
        # Canonical-bytes equality covers types without __eq__ (stores,
        # and SlaveSnapshot which embeds one).
        assert encode_value(decoded) == encode_value(value)
        if cls not in (ContentStore, m.SlaveSnapshot):
            assert decoded == value

    def test_store_roundtrip_preserves_digest(self):
        store = KeyValueStore({"k": "v", "n": 3})
        decoded = roundtrip(store)
        assert isinstance(decoded, KeyValueStore)
        assert decoded.state_digest() == store.state_digest()

    def test_snapshot_roundtrip_preserves_digest(self):
        snap = EXAMPLES[m.SlaveSnapshot]
        decoded = roundtrip(snap)
        assert decoded.store.state_digest() == snap.store.state_digest()
        assert decoded.stamp == snap.stamp

    @pytest.mark.parametrize("scheme", ["hmac", "rsa"])
    def test_signatures_survive_the_wire(self, scheme):
        master = _keys("master-00", scheme, seed=3)
        slave = _keys("slave-00-00", scheme, seed=4)
        verifier = _keys("client-00", scheme, seed=5)
        stamp = m.VersionStamp.make(master, version=9, timestamp=44.0)
        pledge = m.Pledge.make(slave, {"q": 1}, "ef" * 20, stamp, "r-9")

        wire_stamp = roundtrip(stamp)
        wire_pledge = roundtrip(pledge)
        # Keys round-tripped through the wire too (certificate path).
        master_key = roundtrip(master.public_key)
        slave_key = roundtrip(slave.public_key)
        assert wire_stamp.verify(verifier, master_key)
        assert wire_pledge.verify(verifier, slave_key)
        # Tampering is still caught after the trip.
        import dataclasses

        forged = dataclasses.replace(wire_stamp, version=10)
        assert not forged.verify(verifier, master_key)

    def test_certificate_verifies_after_roundtrip(self):
        decoded = roundtrip(CERT)
        decoded.verify(SLAVE, MASTER.public_key, now=2.0)  # raises on failure

    def test_payload_cache_not_transmitted(self):
        stamp = m.VersionStamp.make(MASTER, version=1, timestamp=0.5)
        stamp.signed_payload()  # populate the memo
        decoded = roundtrip(stamp)
        assert decoded._payload_cache is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.text(max_size=12), st.integers(0, 2 ** 40),
                  st.text(alphabet="0123456789abcdef", min_size=40,
                          max_size=40)),
        max_size=10))
    def test_audit_batch_differs_from_submissions_only_in_framing(
            self, specs):
        """Differential: a batch carries each pledge exactly as N
        ``AuditSubmission`` messages would -- same bytes, same decoded
        objects, signatures intact."""
        pledges = tuple(
            m.Pledge.make(SLAVE, {"op": "kv.get", "key": key}, digest,
                          m.VersionStamp.make(MASTER, version, 1.5),
                          request_id=f"client-00:r{index}")
            for index, (key, version, digest) in enumerate(specs))
        body = encode_value(m.AuditBatch(pledges=pledges))
        head = encode_value(m.AuditBatch(pledges=()))[:-2]
        assert body == head + encode_value(pledges)
        assert encode_value(pledges)[2:] == b"".join(
            encode_value(pledge) for pledge in pledges)
        decoded = roundtrip(m.AuditBatch(pledges=pledges))
        assert decoded.pledges == tuple(
            roundtrip(m.AuditSubmission(pledge=pledge)).pledge
            for pledge in pledges)
        assert all(pledge.verify(MASTER, SLAVE.public_key)
                   for pledge in decoded.pledges)

    def test_unregistered_type_rejected_at_encode(self):
        class NotWire:
            pass

        with pytest.raises(CodecError, match="not a wire-registered"):
            encode_value(NotWire())


# -- framing and hostile input -------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self):
        frame = encode_frame(EXAMPLES[m.ReadReply])
        assert decode_frame(frame) == EXAMPLES[m.ReadReply]
        assert parse_header(frame[:HEADER_SIZE]) == len(frame) - HEADER_SIZE

    def test_bad_magic(self):
        frame = bytearray(encode_frame(None))
        frame[0] = ord("X")
        with pytest.raises(BadMagic):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(None))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(BadVersion):
            decode_frame(bytes(frame))

    def test_short_header(self):
        with pytest.raises(TruncatedFrame):
            parse_header(b"RN\x01")

    def test_truncated_body(self):
        frame = encode_frame([1, 2, 3])
        with pytest.raises(TruncatedFrame):
            decode_frame(frame[:-1])

    def test_oversized_declared_length(self):
        header = codec._HEADER.pack(codec.MAGIC, WIRE_VERSION, 0,
                                    MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLarge):
            parse_header(header)

    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_unknown_type_id(self):
        # 29 was never assigned; the rest are retired.
        for type_id in (29, 6, 12, 13, 15, 16, 22, 23, 53):
            body = bytes((codec._T_EXT,)) + codec._encode_varint(type_id)
            with pytest.raises(UnknownWireType):
                decode_value(body)

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_value(b"\x01")

    def test_trailing_bytes(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_collection_count(self):
        # A list claiming a million items inside a tiny body.
        body = bytes((codec._T_LIST,)) + codec._encode_varint(1_000_000)
        with pytest.raises(TruncatedFrame):
            decode_value(body)

    def test_overlong_varint(self):
        body = bytes((codec._T_INT,)) + b"\xff" * 10 + b"\x01"
        with pytest.raises(CodecError):
            decode_value(body)

    def test_malformed_extension_payload(self):
        # A NetHello whose payload is an int, not the field tuple.
        body = (bytes((codec._T_EXT,))
                + codec._encode_varint(wire_type_id(NetHello))
                + encode_value(7))
        with pytest.raises(CodecError):
            decode_value(body)

    def test_hmac_handle_must_be_bytes(self):
        # Anything else off the wire would be a key nothing can look up,
        # hash or fingerprint; it is refused at decode, as ever.
        body = (bytes((codec._T_EXT,))
                + codec._encode_varint(wire_type_id(HMACPublicKey))
                + encode_value(("not bytes",)))
        with pytest.raises(CodecError, match="HMACPublicKey"):
            decode_value(body)

    def test_wrong_arity_extension_payload(self):
        body = (bytes((codec._T_EXT,))
                + codec._encode_varint(wire_type_id(NetHello))
                + encode_value(("only-one-of-two-fields",)))
        with pytest.raises(CodecError, match="2-tuple"):
            decode_value(body)

    def test_bad_utf8_string(self):
        body = bytes((codec._T_STR,)) + codec._encode_varint(2) + b"\xff\xfe"
        with pytest.raises(CodecError, match="utf-8"):
            decode_value(body)

    def test_unhashable_set_member(self):
        body = (bytes((codec._T_SET,)) + codec._encode_varint(1)
                + encode_value([1, 2]))
        with pytest.raises(CodecError, match="unhashable"):
            decode_value(body)

    def test_unknown_store_engine_rejected(self):
        body = (bytes((codec._T_EXT,))
                + codec._encode_varint(wire_type_id(ContentStore))
                + encode_value({"engine": "made-up"}))
        with pytest.raises(CodecError, match="store"):
            decode_value(body)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash(self, blob):
        # Arbitrary garbage must produce a CodecError (or decode, for
        # the rare blob that happens to be well-formed) -- never an
        # uncaught struct/index/overflow error.
        try:
            decode_value(blob)
        except CodecError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=400), st.data())
    def test_truncation_never_crashes(self, cut, data):
        frame = encode_frame(EXAMPLES[m.ReadReply])
        cut = min(cut, len(frame) - 1)
        blob = frame[HEADER_SIZE:cut] if cut > HEADER_SIZE else b""
        try:
            decode_value(blob)
        except CodecError:
            pass


# -- what a connection remembers (WireContext) ---------------------------
#
# The two elisions are transport only: whatever goes in one end of a
# connection comes out of the other field-for-field equal, signing the
# same bytes, whether or not the codec was given the connection's
# context.  The pools below are built to hit every rule the context
# has: more distinct stamps than it remembers (eviction), two masters
# signing at one timestamp (one name, two stamps), a timestamp no eight
# bytes name, stamps that are ``==`` yet sign differently, and result
# hashes that only *look* like a SHA-1.

MASTER_B = _keys("master-01", seed=6)
MASTER_RSA = _keys("master-02", "rsa", seed=8)
STAMPS = (
    *(m.VersionStamp.make(MASTER, version=4, timestamp=20.0 + n / 4)
      for n in range(codec.STAMPS_REMEMBERED + 3)),
    m.VersionStamp.make(MASTER, version=5, timestamp=30.0),
    m.VersionStamp.make(MASTER_B, version=5, timestamp=30.0),
    m.VersionStamp.make(MASTER_RSA, version=5, timestamp=31.5),
    m.VersionStamp.make(MASTER, version=6, timestamp=40),  # an int
    # Equal fields, another signature (the master re-keyed).
    m.VersionStamp.make(_keys("master-00", seed=9), version=3,
                        timestamp=12.5),
    STAMP,
    # ``==`` to STAMP and to each other, and three different payloads.
    dataclasses.replace(STAMP, version=3.0),
    dataclasses.replace(STAMP, version=True + 2),
    m.VersionStamp.make(MASTER, version=0, timestamp=0.0),
    m.VersionStamp.make(MASTER, version=0, timestamp=-0.0),
    m.VersionStamp.make(MASTER, version=0, timestamp=float("nan")),
)
RESULT_HASHES = ("ab" * 20, "AB" * 20, "ab" * 19 + "a", "zz" * 20,
                 "ab" * 19 + " a", "é" * 40, b"\x01" * 20, None, 7)
PLEDGES = tuple(
    m.Pledge.make(SLAVE, {"kind": "kv_get", "key": f"k{index}"},
                  result_hash, stamp, request_id=f"client-00:r{index}")
    for index, (stamp, result_hash) in enumerate(
        (stamp, RESULT_HASHES[n % len(RESULT_HASHES)])
        for n, stamp in enumerate(STAMPS * 2)))

_stamps = st.sampled_from(STAMPS)
_pledges = st.sampled_from(PLEDGES)
_seals = st.sampled_from(tuple(
    m.Seal(stamp=pledge.stamp, signature=pledge.signature)
    for pledge in PLEDGES))
_protocol_messages = st.one_of(
    st.builds(m.KeepAlive, stamp=_stamps),
    st.builds(m.SlaveUpdate, from_version=st.integers(0, 9),
              ops_wire=st.just(({"kind": "kv_put"},)), stamp=_stamps),
    # A reply as a slave sends it, and any other shape it may take.
    st.builds(m.ReadReply, request_id=st.just("client-00:r1"),
              result=st.just({"value": 7}), pledge=_seals),
    st.builds(m.ReadReply,
              request_id=st.sampled_from(("r-other", None, 7)),
              result=st.just({"value": 7}),
              pledge=st.none() | _pledges | _seals, in_sync=st.booleans()),
    st.builds(m.AuditBatch,
              pledges=st.lists(_pledges, max_size=4).map(tuple)),
    st.builds(m.AuditSubmission, pledge=_pledges),
    st.builds(m.DoubleCheckRequest, request_id=st.just("r-1"),
              query_wire=st.just({"q": 1})),
    st.builds(m.Accusation, pledge=_pledges, discovery=st.just("audit")),
)
_carried_messages = st.recursive(
    _protocol_messages,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(
            lambda messages: codec.FrameBatch(messages=tuple(messages))),
        st.builds(ShardEnvelope, shard_id=st.just("s00"),
                  src=st.just("s00:slave-00-00"),
                  dst=st.just("s00:client-00"), message=inner),
        st.builds(TraceCarrier,
                  context=st.just(TraceContext("t000001", "s000002")),
                  message=inner)),
    max_leaves=6)

_VERIFIER = _keys("client-00", seed=5)
_MASTER_KEYS = {keys.owner_id: keys.public_key
                for keys in (MASTER, MASTER_B, MASTER_RSA)}


def _signed_parts(message):
    """Every stamp and pledge a (possibly wrapped) message carries."""
    if isinstance(message, codec.FrameBatch):
        for inner in message.messages:
            yield from _signed_parts(inner)
    elif isinstance(message, (ShardEnvelope, TraceCarrier)):
        yield from _signed_parts(message.message)
    elif isinstance(message, m.AuditBatch):
        for pledge in message.pledges:
            yield from _signed_parts(pledge)
    elif isinstance(message, m.Pledge):
        yield message
        yield message.stamp
    elif isinstance(message, m.VersionStamp):
        yield message
    else:
        for name in ("pledge", "stamp"):
            if getattr(message, name, None) is not None:
                yield from _signed_parts(getattr(message, name))


def _verifies(part) -> bool:
    key = SLAVE.public_key if isinstance(part, m.Pledge) \
        else _MASTER_KEYS[part.master_id]
    return part.verify(_VERIFIER, key)


def _assert_same_message(decoded, original) -> None:
    # NaN is the one value unequal to its own copy; the bytes decide.
    assert encode_value(decoded) == encode_value(original)
    got, sent = list(_signed_parts(decoded)), list(_signed_parts(original))
    assert len(got) == len(sent)
    for ours, theirs in zip(got, sent):
        assert type(ours) is type(theirs)
        assert ours.signed_payload() == theirs.signed_payload()
        assert _verifies(ours) == _verifies(theirs)
    if not any(part.timestamp != part.timestamp for part in sent
               if isinstance(part, m.VersionStamp)):
        assert decoded == original


class TestWireContext:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_carried_messages, max_size=40))
    def test_paired_contexts_are_lossless(self, messages):
        """Encode through one context, decode through its pair: every
        message comes out equal, signs the same bytes and verifies as
        it did; the two contexts end each frame remembering the same
        stamps in the same order; and the context never costs bytes."""
        sender, receiver = codec.WireContext(), codec.WireContext()
        for message in messages:
            frame = encode_frame(message, sender)
            _assert_same_message(decode_frame(frame, receiver), message)
            assert list(receiver.stamps) == list(sender.stamps)
            assert len(frame) <= len(encode_frame(message))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_carried_messages, max_size=40))
    def test_without_a_context_likewise(self, messages):
        for message in messages:
            _assert_same_message(decode_frame(encode_frame(message)),
                                 message)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_carried_messages, max_size=12), _pledges)
    def test_an_accusation_needs_no_context_to_read(self, before, pledge):
        """Evidence is self-contained in its own frame, whatever the
        connection carried before it -- and carrying it teaches the
        connection nothing."""
        sender = codec.WireContext()
        for message in before:
            encode_frame(message, sender)
        encode_frame(m.KeepAlive(stamp=pledge.stamp), sender)
        remembered = sender.stamps
        accusation = m.Accusation(pledge=pledge, discovery="immediate")
        for carried in (accusation,
                        ShardEnvelope(shard_id="s00", src="a", dst="b",
                                      message=TraceCarrier(
                                          context=TraceContext("t", "s"),
                                          message=accusation))):
            frame = encode_frame(carried, sender)
            assert frame == encode_frame(carried)
            assert sender.stamps is remembered
            _assert_same_message(decode_frame(frame), carried)

    def test_a_stamp_crosses_once_and_decodes_to_one_object(self):
        sender, receiver = codec.WireContext(), codec.WireContext()
        reply = m.ReadReply(request_id=PLEDGE.request_id,
                            result={"value": 7}, pledge=SEAL)
        first = encode_frame(reply, sender)
        second = encode_frame(reply, sender)
        in_full = encode_value(STAMP)
        name = b"r" + stamp_name(STAMP)
        assert in_full in first and name not in first
        assert name in second and in_full not in second
        assert len(first) - len(second) == len(in_full) - len(name) == 40
        stamps = [decode_frame(frame, receiver).pledge.stamp
                  for frame in (first, second, second)]
        assert stamps[0] is stamps[1] is stamps[2]
        # ... so the signed-payload memo is built once, as on the sender.
        assert stamps[0]._payload_cache is None
        stamps[2].signed_payload()
        assert stamps[0]._payload_cache == STAMP.signed_payload()

    def test_the_three_elisions_by_the_byte(self):
        """The codec's two -- (1) a stamp by reference, (2) a raw
        digest -- and the protocol's one: (3) a reply vouches with a
        seal, leaving out what the client holds."""
        reply = m.ReadReply(request_id=PLEDGE.request_id,
                            result={"value": 7}, pledge=SEAL)
        whole = dataclasses.replace(reply, pledge=PLEDGE)
        sender = codec.WireContext()
        in_full = encode_frame(reply, sender)
        # (1) the 9-byte name where the stamp went in full.
        assert len(in_full) - len(encode_frame(reply, sender)) \
            == len(encode_value(STAMP)) - 9
        # (3) the request id once, and no query, hash or slave name; a
        #     whole pledge is the same reply spelt longer, by exactly
        #     those four fields.
        body = encode_value(reply)
        assert body.count(encode_value(PLEDGE.request_id)) == 1
        assert encode_value(whole).count(
            encode_value(PLEDGE.request_id)) == 2
        for held in (PLEDGE.query_wire, PLEDGE.slave_id):
            assert encode_value(held) not in body
        assert bytes.fromhex(PLEDGE.result_hash) not in body
        assert len(encode_value(whole)) - len(body) == 21 + sum(
            len(encode_value(field)) for field in (
                PLEDGE.query_wire, PLEDGE.slave_id, PLEDGE.request_id))
        # (2) 20 bytes behind a tag, not 40 characters behind two.
        digest = bytes.fromhex(PLEDGE.result_hash)
        assert b"h" + digest in encode_value(PLEDGE)
        assert PLEDGE.result_hash.encode() not in encode_value(PLEDGE)
        shouting = dataclasses.replace(PLEDGE,
                                       result_hash="AB" * 20)
        assert b"AB" * 20 in encode_value(shouting)
        assert roundtrip(shouting) == shouting

    def test_a_reference_nobody_defined_is_its_own_error(self):
        sender = codec.WireContext()
        encode_frame(m.KeepAlive(stamp=STAMP), sender)
        referring = encode_frame(m.KeepAlive(stamp=STAMP), sender)
        for context in (None, codec.WireContext()):
            with pytest.raises(UnknownReference):
                decode_frame(referring, context)

    def test_a_seals_stamp_is_defined_in_full_then_referenced(self):
        """The slave's replies under one stamp: the first seal carries
        it whole, every later one its name, and each decodes to the one
        stamp the client rebuilds and verifies its pledges under."""
        sender, receiver = codec.WireContext(), codec.WireContext()
        frames = [encode_frame(m.ReadReply(
            request_id=f"client-00:r{n}", result={"value": n},
            pledge=m.Seal(stamp=STAMP, signature=b"s" * 20)), sender)
            for n in range(3)]
        name = b"r" + stamp_name(STAMP)
        assert encode_value(STAMP) in frames[0] and name not in frames[0]
        assert all(name in frame and encode_value(STAMP) not in frame
                   for frame in frames[1:])
        seals = [decode_frame(frame, receiver).pledge for frame in frames]
        assert all(isinstance(seal, m.Seal) for seal in seals)
        assert seals[0].stamp is seals[1].stamp is seals[2].stamp
        assert seals[0].stamp == STAMP
        assert seals[2].stamp.verify(_VERIFIER, MASTER.public_key)

    def test_a_seal_naming_a_stamp_never_sent_is_unknown_reference(self):
        """Connection-fatal (the inbound side aborts on it,
        tests/test_net_inbound.py::TestUnknownReference): the seal's
        stamp is not there to verify, and guessing is not an option."""
        sender = codec.WireContext()
        reply = m.ReadReply(request_id=PLEDGE.request_id,
                            result={"value": 7}, pledge=SEAL)
        defining = encode_frame(reply, sender)
        referring = encode_frame(reply, sender)
        assert len(referring) < len(defining)
        for context in (None, codec.WireContext()):
            with pytest.raises(UnknownReference):
                decode_frame(referring, context)
        receiver = codec.WireContext()
        decode_frame(defining, receiver)
        assert decode_frame(referring, receiver) == reply

    def test_a_failed_frame_leaves_the_context_as_it_found_it(self):
        class NotWire:
            pass

        sender, receiver = codec.WireContext(), codec.WireContext()
        decode_frame(encode_frame(m.KeepAlive(stamp=STAMPS[0]), sender),
                     receiver)
        sent, received = sender.stamps, receiver.stamps
        batch = codec.FrameBatch(messages=(
            m.KeepAlive(stamp=STAMPS[1]), m.KeepAlive(stamp=STAMPS[1]),
            NotWire()))
        with pytest.raises(CodecError, match="not a wire-registered"):
            encode_frame(batch, sender)
        assert sender.stamps is sent
        # The decoding side of the same rule: garbage behind a stamp in
        # the same body takes the stamp with it.
        good = encode_frame(codec.FrameBatch(messages=batch.messages[:2]),
                            codec.WireContext())
        with pytest.raises(CodecError):
            decode_value(good[HEADER_SIZE:-9] + b"\x01" * 9, receiver)
        assert receiver.stamps is received
        assert decode_frame(good, receiver) == codec.FrameBatch(
            messages=batch.messages[:2])
        assert list(receiver.stamps) == [stamp_name(stamp)
                                         for stamp in STAMPS[:2]]

    def test_a_set_member_is_encoded_without_the_context(self):
        """A set's members travel sorted by their encoding, which is no
        order for definitions and references to rely on."""
        sender, receiver = codec.WireContext(), codec.WireContext()
        members = {m.KeepAlive(stamp=STAMP),
                   m.SlaveUpdate(from_version=1, ops_wire=(), stamp=STAMP)}
        frame = encode_frame([STAMP, members], sender)
        assert frame == encode_frame([STAMP, members])
        assert decode_frame(frame, receiver) == [STAMP, members]
        assert list(receiver.stamps) == list(sender.stamps) \
            == [stamp_name(STAMP)]
