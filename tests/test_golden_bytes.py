"""Golden bytes: signed payloads and wire frames pinned across commits.

``tests/data/golden_wire.json`` holds the hex of one signed payload per
fixed-shape signed record and one frame per registered wire id.  Every
commit must reproduce them byte for byte: a serialiser change that
alters what is signed or what crosses the wire fails here, not in a
peer running the previous build.  The signed payloads were written by
the commit *before* the serialisers were rewritten (templated signed
payloads, compiled wire codec) and have never moved.  The frames were
regenerated for wire version 2 (the version byte everywhere, a pledge's
hash raw instead of hex in the seven frames that hold one, and the
hello, which carries the version) and once more for wire version 3 (the
version byte again, the read reply carrying a seal, and the ``Seal``
frame itself), and again for wire versions 4, 5, 6 and 7 (the version
byte, and the types and fields each retired; 6 also added the status
pair).

The same frames then drive the hostile-input checks: every prefix and
every single-byte corruption of a real frame may raise nothing but a
:class:`~repro.net.errors.CodecError` subclass -- and so may the frames
a connection's :class:`~repro.net.codec.WireContext` shortens, read
with the context they were written for, a fresh one or a stale one.

Regenerate (only for an intentional, version-bumped format change)::

    PYTHONPATH=src python -m tests.test_golden_bytes
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.baselines.state_signing import SignedRoot
from repro.content.store import ContentStore
from repro.crypto.certificates import Certificate
from repro.core import messages as m
from repro.net import codec
from repro.net.codec import (
    HEADER_SIZE,
    decode_frame,
    decode_value,
    encode_frame,
    registered_wire_types,
    wire_type_id,
)
from repro.net.errors import CodecError, TruncatedFrame
from repro.shard.map import ShardMap
from tests.test_net_codec import (
    CERT,
    EXAMPLES,
    MASTER,
    PLEDGE,
    SEAL,
    SHARD_MAP,
    SLAVE,
    STAMP,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_wire.json"


def _signed_payloads() -> dict[str, bytes]:
    return {
        "Pledge": PLEDGE.signed_payload(),
        "VersionStamp": STAMP.signed_payload(),
        "Certificate": CERT.signed_payload(),
        "ShardMap": SHARD_MAP.signed_payload(),
        "SignedRoot": SignedRoot.payload(b"\x01" * 20, 7),
    }


def _frames() -> dict[int, bytes]:
    by_id = {wire_type_id(cls): encode_frame(value)
             for cls, value in EXAMPLES.items()}
    assert set(by_id) == set(registered_wire_types())
    return by_id


def _current() -> dict[str, dict[str, str]]:
    return {
        "payloads": {name: blob.hex()
                     for name, blob in _signed_payloads().items()},
        "frames": {str(wire_id): frame.hex()
                   for wire_id, frame in sorted(_frames().items())},
    }


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        loaded: dict[str, dict[str, str]] = json.load(handle)
    return loaded


GOLDEN = _golden() if GOLDEN_PATH.exists() else {"payloads": {},
                                                 "frames": {}}
GOLDEN_FRAMES = {int(wire_id): bytes.fromhex(blob)
                 for wire_id, blob in GOLDEN["frames"].items()}


class TestGoldenPayloads:
    @pytest.mark.parametrize("name", sorted(_signed_payloads()))
    def test_signed_payload_bytes_unchanged(self, name):
        assert _signed_payloads()[name].hex() == GOLDEN["payloads"][name]

    def test_rebuilt_payloads_match_the_memoised_ones(self):
        # ``make``/``issue`` memoise the payload they signed; a decoded
        # copy starts cold and must rebuild the identical bytes.
        for signed in (PLEDGE, STAMP, CERT, SHARD_MAP):
            rebuilt = decode_value(codec.encode_value(signed))
            assert rebuilt._payload_cache is None
            assert rebuilt.signed_payload() == signed.signed_payload()

    def test_a_pledge_signed_by_an_earlier_commit_verifies(self):
        """The cross-commit fixture: the golden Pledge frame carries
        the signatures an earlier build made over the golden payloads.
        Decoded here it rebuilds those payloads and verifies; and the
        signatures this build makes are the ones in the frame, so an
        earlier build verifies ours."""
        pledge = decode_value(GOLDEN_FRAMES[wire_type_id(m.Pledge)][
            HEADER_SIZE:])
        assert pledge.signed_payload().hex() == GOLDEN["payloads"]["Pledge"]
        assert pledge.stamp.signed_payload().hex() \
            == GOLDEN["payloads"]["VersionStamp"]
        assert pledge.verify(MASTER, SLAVE.public_key)
        assert pledge.stamp.verify(SLAVE, MASTER.public_key)
        assert pledge.signature == PLEDGE.signature
        assert pledge.stamp.signature == STAMP.signature

    def test_golden_covers_every_signed_record(self):
        assert set(GOLDEN["payloads"]) == {
            m.Pledge.__name__, m.VersionStamp.__name__,
            Certificate.__name__, ShardMap.__name__, SignedRoot.__name__}


class TestGoldenFrames:
    def test_golden_covers_the_registry(self):
        assert set(GOLDEN_FRAMES) == set(registered_wire_types())

    @pytest.mark.parametrize("wire_id", sorted(registered_wire_types()))
    def test_frame_bytes_unchanged(self, wire_id):
        assert _frames()[wire_id].hex() == GOLDEN["frames"][str(wire_id)]

    @pytest.mark.parametrize("wire_id", sorted(registered_wire_types()))
    def test_canonical_frames_reencode_identically(self, wire_id):
        frame = GOLDEN_FRAMES[wire_id]
        assert encode_frame(decode_frame(frame)) == frame
        assert encode_frame(decode_frame(memoryview(frame))) == frame


def _context_frames() -> list[bytes]:
    """One connection's worth of frames that lean on its context: a
    stamp in full, then by reference alone, in a reply's seal, twice in
    an audit batch, and defined and used inside one batch frame."""
    later = m.VersionStamp.make(MASTER, version=4, timestamp=13.0)
    pledge = m.Pledge.make(SLAVE, {"kind": "kv_get", "key": "k2"},
                           "cd" * 20, later, request_id="req-8")
    sender = codec.WireContext()
    return [encode_frame(message, sender) for message in (
        m.KeepAlive(stamp=STAMP),
        m.KeepAlive(stamp=STAMP),
        m.ReadReply(request_id=PLEDGE.request_id, result={"value": 7},
                    pledge=SEAL),
        m.AuditBatch(pledges=(PLEDGE, PLEDGE)),
        codec.FrameBatch(messages=(
            m.KeepAlive(stamp=later),
            m.ReadReply(request_id="req-8", result=None, pledge=m.Seal(
                stamp=pledge.stamp, signature=pledge.signature)))),
    )]


CONTEXT_FRAMES = _context_frames()


def _decodes_or_codec_error(body: bytes) -> None:
    try:
        decode_value(body)
    except CodecError:
        pass


class TestHostileFrames:
    @pytest.mark.parametrize("wire_id", sorted(registered_wire_types()))
    def test_every_prefix_raises_only_codec_errors(self, wire_id):
        body = GOLDEN_FRAMES[wire_id][HEADER_SIZE:]
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                decode_value(body[:cut])

    @pytest.mark.parametrize("wire_id", sorted(registered_wire_types()))
    def test_byte_flips_raise_only_codec_errors(self, wire_id):
        body = GOLDEN_FRAMES[wire_id][HEADER_SIZE:]
        rng = random.Random(wire_id)
        positions = range(len(body)) if len(body) <= 256 \
            else sorted(rng.sample(range(len(body)), 256))
        for position in positions:
            for flipped in (body[position] ^ 0xFF, body[position] ^ 0x80,
                            rng.randrange(256)):
                mutated = bytearray(body)
                mutated[position] = flipped
                _decodes_or_codec_error(bytes(mutated))

    def test_inserted_and_deleted_bytes_raise_only_codec_errors(self):
        rng = random.Random(99)
        for wire_id, frame in sorted(GOLDEN_FRAMES.items()):
            body = frame[HEADER_SIZE:]
            for _ in range(64):
                position = rng.randrange(len(body) + 1)
                grown = body[:position] + bytes((rng.randrange(256),)) \
                    + body[position:]
                _decodes_or_codec_error(grown)
                _decodes_or_codec_error(
                    body[:position] + body[position + 1:])

    @pytest.mark.parametrize("index", range(len(CONTEXT_FRAMES)))
    @pytest.mark.parametrize("behind", ["matching", "one frame behind",
                                        "fresh"])
    def test_context_frames_raise_only_codec_errors(self, index, behind):
        """Every prefix and every byte flip of a frame that leans on its
        connection, against the context it was written for, the one a
        skipped frame leaves behind and a new connection's: a
        ``CodecError`` subclass or a value, and a context that is as it
        was whenever it is the former."""
        seen = {"matching": index, "one frame behind": max(index - 1, 0),
                "fresh": 0}[behind]
        context = codec.WireContext()
        for frame in CONTEXT_FRAMES[:seen]:
            decode_frame(frame, context)
        remembered = context.stamps
        body = CONTEXT_FRAMES[index][HEADER_SIZE:]
        mutants = [body[:cut] for cut in range(len(body))]
        for position in range(len(body)):
            for flipped in (body[position] ^ 0xFF, body[position] ^ 0x80,
                            body[position] ^ 0x01):
                mutant = bytearray(body)
                mutant[position] = flipped
                mutants.append(bytes(mutant))
        for mutant in mutants:
            try:
                decode_value(mutant, context)
            except CodecError:
                assert context.stamps is remembered
            context.stamps = remembered

    def test_non_minimal_varints_still_decode(self):
        # LEB128 allows padded encodings (0x82 0x00 == 2); peers may
        # send them, so lengths, counts and type ids must all accept
        # them even though the encoder never produces them.
        hello = codec.NetHello(node_id="client-00")
        canonical = codec.encode_value(hello)
        tag_ext, type_id, tag_tuple, count = canonical[:4]
        assert (tag_ext, tag_tuple, count) == (
            codec._T_EXT, codec._T_TUPLE, 2)
        padded_count = canonical[:3] + b"\x82\x00" + canonical[4:]
        assert decode_value(padded_count) == hello
        padded_id = bytes((tag_ext, type_id | 0x80, 0x00)) + canonical[2:]
        assert decode_value(padded_id) == hello
        assert decode_value(b"s\x83\x80\x00abc") == "abc"
        assert decode_value(b"b\x81\x00z") == b"z"
        assert decode_value(b"i\x81\x00\x05") == 5
        assert decode_value(b"l\x80\x80\x00") == []
        assert decode_value(b"d\x81\x00s\x01ki\x01\x07") == {"k": 7}

    def test_dataclass_payload_must_be_a_tuple_of_its_arity(self):
        header = codec.encode_value(codec.NetHello(node_id="n"))[:2]
        for payload in (b"t\x01s\x01n",             # one field short
                        b"t\x03s\x01ni\x01\x01N",   # one too many
                        b"l\x02s\x01ni\x01\x01",    # a list, not a tuple
                        b"N"):
            with pytest.raises(CodecError, match="must be a 2-tuple"):
                decode_value(header + payload)
        # Malformed beats mis-shaped: what fails to decode says so.
        with pytest.raises(TruncatedFrame):
            decode_value(header + b"t\x03s\x01n")
        with pytest.raises(TruncatedFrame):
            decode_value(header + b"t\xff\xff\xff\xff\x0fs\x01n")
        with pytest.raises(TruncatedFrame):
            decode_value(header)

    def test_deep_nesting_is_a_codec_error(self):
        # ~10 KiB of list tags: deeper than the interpreter's stack.
        with pytest.raises(CodecError, match="nested too deeply"):
            decode_value(b"l\x01" * 5000 + b"N")

    def test_store_subclass_rides_the_base_entry(self):
        store = EXAMPLES[ContentStore]
        assert type(store) is not ContentStore
        assert encode_frame(store) == \
            GOLDEN_FRAMES[wire_type_id(ContentStore)]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(_current(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {GOLDEN_PATH}")
