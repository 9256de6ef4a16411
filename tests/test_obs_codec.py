"""Wire-level tests for trace contexts and the admin plane.

The load-bearing property is the *envelope* design: a
:class:`TraceCarrier` wraps the protocol message it carries and the
codec re-encodes that message with the same init-fields-only dataclass
codec it uses for bare sends -- so signed payloads (stamps, pledges)
are byte-identical with and without a context attached, and signatures
verify identically on both paths.  Hypothesis drives that equality over
arbitrary pledge contents.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as m
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.net import codec
from repro.net.codec import (
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
    registered_wire_types,
    wire_type_id,
)
from repro.net.errors import UnknownWireType
from repro.obs.admin import (
    ObsDumpReply,
    ObsDumpRequest,
    ObsHealthReply,
    ObsHealthRequest,
    span_from_wire,
    span_to_wire,
)
from repro.obs.context import TraceCarrier, TraceContext
from repro.obs.spans import Span


def _keys(owner_id: str, scheme: str = "hmac", seed: int = 1) -> KeyPair:
    return KeyPair(owner_id, new_signer(scheme, random.Random(seed)))


MASTER = _keys("master-00")
SLAVE = _keys("slave-00-00", seed=2)
STAMP = m.VersionStamp.make(MASTER, version=3, timestamp=12.5)
CTX = TraceContext("t00000a", "s00000b")


def _pledge(request_id: str = "req-7",
            result_hash: str = "ab" * 20) -> m.Pledge:
    return m.Pledge.make(SLAVE, {"kind": "kv_get", "key": "k1"},
                         result_hash, STAMP, request_id=request_id)


def roundtrip(value):
    return decode_value(encode_value(value))


class TestTraceContextWire:
    def test_context_roundtrip(self):
        assert roundtrip(CTX) == CTX
        # Two fields: a context exists only for a sampled operation.
        assert roundtrip(TraceContext("t1", "s1")) == TraceContext("t1", "s1")
        assert [f.name for f in dataclasses.fields(TraceContext)] == [
            "trace_id", "span_id"]

    def test_carrier_roundtrip_preserves_message(self):
        carrier = TraceCarrier(context=CTX, message=m.KeepAlive(stamp=STAMP))
        back = decode_frame(encode_frame(carrier))
        assert back == carrier
        assert back.context == CTX
        assert back.message.stamp.verify(MASTER, MASTER.public_key)

    def test_carrier_ids_are_appended_infrastructure(self):
        # Extension slots: infra < 32, protocol messages >= 32.  The
        # obs types must stay in the appended 8..13 infra range so the
        # registry remains append-only (wire back-compat).
        ids = {cls: wire_type_id(cls)
               for cls in (TraceContext, TraceCarrier, ObsDumpRequest,
                           ObsDumpReply, ObsHealthRequest, ObsHealthReply)}
        assert ids == {TraceContext: 8, TraceCarrier: 9,
                       ObsDumpRequest: 10, ObsDumpReply: 11,
                       ObsHealthRequest: 12, ObsHealthReply: 13}

    def test_carried_message_encoding_is_byte_identical(self):
        # The envelope wraps, never rewrites: the carried message's
        # encoding equals the bare encoding, so signature checks see
        # identical bytes on both paths.
        message = m.ReadReply(request_id="r-1", result={"value": 7},
                              pledge=_pledge(), in_sync=True)
        bare = encode_value(message)
        back = decode_frame(encode_frame(TraceCarrier(CTX, message)))
        assert encode_value(back.message) == bare

    def test_older_peer_rejects_unknown_extension_gracefully(self):
        # A peer whose registry stops before an id sees UnknownWireType
        # (a CodecError the server turns into net_frames_rejected), not
        # a crash.  Simulated with a future id nothing registers yet.
        unknown = max(registered_wire_types()) + 1
        body = bytes((codec._T_EXT,)) + codec._encode_varint(unknown)
        with pytest.raises(UnknownWireType):
            decode_value(body)

    def test_bare_messages_unchanged_by_obs_registration(self):
        # Tracing-off deployments still send bare protocol messages;
        # their frames must not grow an envelope.
        frame = encode_frame(m.KeepAlive(stamp=STAMP))
        back = decode_frame(frame)
        assert isinstance(back, m.KeepAlive)

    @settings(max_examples=40, deadline=None)
    @given(request_id=st.text(min_size=1, max_size=24),
           result_hash=st.text(
               alphabet="0123456789abcdef", min_size=40, max_size=40),
           trace_id=st.text(min_size=1, max_size=16),
           span_id=st.text(min_size=1, max_size=16))
    def test_signed_payload_identical_inside_carrier(
            self, request_id, result_hash, trace_id, span_id):
        pledge = _pledge(request_id=request_id, result_hash=result_hash)
        submission = m.AuditSubmission(pledge=pledge)
        carrier = TraceCarrier(TraceContext(trace_id, span_id), submission)
        back = decode_frame(encode_frame(carrier))
        carried = back.message.pledge
        assert carried.signed_payload() == pledge.signed_payload()
        assert encode_value(back.message) == encode_value(submission)
        assert carried.verify(MASTER, SLAVE.public_key)


class TestSpanWire:
    def _span(self, end: float | None = 2.5) -> Span:
        return Span(trace_id="t1", span_id="s1", parent_id="s0",
                    node="master-00", op="master.commit", start=1.5,
                    end=end, attrs={"version": 3, "status": "ok"})

    def test_span_tuple_roundtrip(self):
        span = self._span()
        assert span_from_wire(span_to_wire(span)) == span

    def test_open_span_and_missing_parent(self):
        span = Span(trace_id="t1", span_id="s1", parent_id=None,
                    node="n", op="op", start=1.0)
        back = span_from_wire(span_to_wire(span))
        assert back.end is None and back.parent_id is None

    def test_dump_reply_roundtrip_through_codec(self):
        span = self._span()
        reply = ObsDumpReply(node_id="master-00",
                             spans=(span_to_wire(span),), dropped=4)
        back = decode_frame(encode_frame(reply))
        assert back == reply
        assert span_from_wire(back.spans[0]) == span

    def test_admin_requests_roundtrip(self):
        assert roundtrip(ObsDumpRequest(max_spans=7, clear=True)) == \
            ObsDumpRequest(max_spans=7, clear=True)
        assert roundtrip(ObsHealthRequest(probe=9)) == ObsHealthRequest(9)
        health = ObsHealthReply(node_id="n", now=1.25, spans_buffered=3,
                                spans_dropped=0, contexts_received=8,
                                events_processed=100)
        assert roundtrip(health) == health
