"""The inbound connection protocol's frame parser, fed bytes directly.

``NodeServer`` parses frames inside ``data_received``: a TCP segment may
hold several frames, or end anywhere inside one.  However the bytes are
cut, the protocol must hand admission exactly what one ``read_frame``
per frame would have -- same messages, same order -- and an EOF inside
a frame must count as a framing reject.  The golden frames (one per wire
id, ``tests/data/golden_wire.json``) and the status reply in the shapes
the per-plane replies it replaced took are the corpus.

The one failure tier the connection's
:class:`~repro.net.codec.WireContext` adds is pinned the same way: a
reference the connection cannot resolve is counted against its sender
and costs the connection, and nothing of it reaches admission.

No sockets here: the protocol is driven through its callbacks with a
stand-in transport, so every cut is exact and repeatable.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Iterator

import pytest

import repro.core.messages as m
from repro.metrics import MetricsRegistry
from repro.net import codec
from repro.net.codec import FrameBatch, NetHello, WireContext, encode_frame
from repro.net.server import NodeServer, _Connection
from repro.net.transport import read_frame
from repro.obs.admin import ObsDumpRequest, StatusReply, StatusRequest
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator

from tests.test_golden_bytes import GOLDEN
from tests.test_net_codec import PLEDGE, SEAL, STAMP

HELLO = encode_frame(NetHello(node_id="tester"))


def _status_shapes() -> list[bytes]:
    """One status reply per part of it that used to be a reply of its
    own: a bare untraced listener's health, a pool's breakers in every
    state, a shard host's tenants, and a traced listener's counters
    past the one-byte varints."""
    bare = StatusReply(
        node_id="host-00", now=0.0, events_processed=0, shed_total=0,
        breakers=(), breaker_trips=0, shards=(), unsharded=("host-00",),
        spans_buffered=0, spans_dropped=0, contexts_received=0)
    return [encode_frame(reply) for reply in (
        bare,
        replace(bare, breakers=(("host-01", "closed"), ("host-02", "open"),
                                ("host-03", "half_open")),
                breaker_trips=3, shed_total=250),
        replace(bare, shards=(
            ("s00", ("s00:master-00", "s00:slave-00-00",
                     "s00:slave-00-01")),
            ("s01", ("s01:master-00",))), unsharded=()),
        replace(bare, now=86400.125, events_processed=2**40,
                spans_buffered=4096, spans_dropped=70000,
                contexts_received=2**33),
    )]


FRAMES = [bytes.fromhex(frame) for _wire_id, frame in
          sorted(GOLDEN["frames"].items(), key=lambda item: int(item[0]))
          ] + _status_shapes()


def _via_read_frame(frames: list[bytes]) -> list[Any]:
    """What one ``read_frame`` per frame yields, batches unpacked."""

    async def scenario() -> list[Any]:
        dispatched: list[Any] = []
        for frame in frames:
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            message, size = await read_frame(reader)
            assert size == len(frame)
            dispatched.extend(message.messages
                              if isinstance(message, FrameBatch)
                              else [message])
        return dispatched

    return asyncio.run(scenario())


def _wire(messages: list[Any]) -> list[bytes]:
    """Canonical bytes per message (stores have no ``__eq__``)."""
    return [codec.encode_value(message) for message in messages]


MESSAGES = _via_read_frame(FRAMES)
BATCH = encode_frame(FrameBatch(messages=tuple(MESSAGES)))
#: What of ``FRAMES`` reaches admission: the listener answers a bare
#: admin request itself (one written reply each).
ADMIN_REQUESTS = (ObsDumpRequest, StatusRequest)
ADMITTED = [message for message in MESSAGES
            if not isinstance(message, ADMIN_REQUESTS)]


class StandInTransport(asyncio.Transport):
    def __init__(self) -> None:
        super().__init__()
        self.aborted = False
        self.reading = True
        self.written: list[bytes] = []
        #: Set to the protocol's ``pause_writing`` to play a write
        #: buffer that is over its high-water mark.
        self.on_write: Any = None

    def write(self, data: bytes) -> None:
        self.written.append(data)
        if self.on_write is not None:
            self.on_write()

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def abort(self) -> None:
        self.aborted = True


class RecordingServer(NodeServer):
    """Records what reaches admission -- the seam the old per-frame
    reader loop handed each decoded message to -- instead of admitting
    and dispatching it (which unwraps carriers and envelopes; that is
    not under test here)."""

    def __init__(self) -> None:
        simulator = Simulator(0)
        super().__init__(Node("target", simulator, Network(simulator)),
                         MetricsRegistry())
        self.admitted: list[Any] = []

    def _receive(self, src_id: str, message: Any) -> bool:
        assert src_id == "tester"
        self.admitted.append(message)
        return False


class Inbound:
    """A server, one handshaked connection into it, and what arrived."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.server = RecordingServer()
        self.metrics = self.server.metrics
        self.redial()

    def redial(self) -> None:
        """The same peer's next connection to the same server."""
        if hasattr(self, "connection"):
            self.close()
        self.transport = StandInTransport()
        self.connection = _Connection(self.server, self.loop)
        self.connection.connection_made(self.transport)

    def feed(self, *segments: bytes) -> None:
        for segment in segments:
            self.connection.data_received(segment)

    def take(self) -> list[bytes]:
        admitted, self.server.admitted = self.server.admitted, []
        return _wire(admitted)

    def close(self) -> None:
        self.connection.connection_lost(None)


@pytest.fixture
def inbound() -> Iterator[Inbound]:
    loop = asyncio.new_event_loop()
    harness = Inbound(loop)
    try:
        yield harness
    finally:
        harness.close()  # cancels the connection's timer
        loop.close()


class TestSegmentation:
    @pytest.mark.parametrize("index", range(len(FRAMES)))
    def test_golden_frame_split_at_every_offset(self, inbound, index):
        frame = FRAMES[index]
        # A bare admin request is answered by the listener, once per
        # whole frame; everything else reaches admission.
        admin = isinstance(codec.decode_frame(frame), ADMIN_REQUESTS)
        expected = [] if admin else _wire(_via_read_frame([frame]))
        inbound.feed(HELLO)
        for cut in range(1, len(frame)):
            inbound.feed(frame[:cut])
            assert inbound.take() == [], f"dispatched at cut {cut}"
            assert len(inbound.transport.written) == (cut - 1) * admin
            inbound.feed(frame[cut:])
            assert inbound.take() == expected, f"cut {cut}"
            assert len(inbound.transport.written) == cut * admin
        assert inbound.metrics.snapshot().get("net_frames_rejected", 0) == 0

    def test_batch_of_them_split_at_every_offset(self, inbound):
        expected = _wire(_via_read_frame([BATCH]))
        assert expected == _wire(MESSAGES)
        inbound.feed(HELLO)
        for cut in range(1, len(BATCH)):
            inbound.feed(BATCH[:cut], BATCH[cut:])
            assert inbound.take() == expected, f"cut {cut}"
        snap = inbound.metrics.snapshot()
        assert snap["net_batches_received"] == len(BATCH) - 1
        assert snap["net_bytes_received"] == len(BATCH) * (len(BATCH) - 1)

    @pytest.mark.parametrize("segment", [1, 3, 8, 64, 1000, 1 << 20])
    def test_several_frames_per_segment(self, inbound, segment):
        """The hello, every frame and the batch as one byte stream, cut
        into fixed-size segments that ignore frame boundaries."""
        stream = HELLO + b"".join(FRAMES) + BATCH + b"".join(FRAMES)
        inbound.feed(*(stream[at:at + segment]
                       for at in range(0, len(stream), segment)))
        assert inbound.take() == _wire(ADMITTED + MESSAGES + ADMITTED)
        assert len(inbound.transport.written) == \
            2 * (len(MESSAGES) - len(ADMITTED))
        snap = inbound.metrics.snapshot()
        assert snap["net_frames_received"] == len(MESSAGES) * 3
        assert snap["net_bytes_received"] == len(stream) - len(HELLO)
        assert not inbound.transport.aborted

    def test_truncated_tail_at_eof_is_a_framing_reject(self, inbound):
        inbound.feed(HELLO + FRAMES[3] + FRAMES[4][:-2])
        assert inbound.take() == _wire(_via_read_frame([FRAMES[3]]))
        inbound.connection.eof_received()
        snap = inbound.metrics.snapshot()
        assert snap["net_frames_rejected_framing"] == 1
        assert snap["net_rejected_from_tester"] == 1
        assert inbound.transport.aborted

    def test_eof_on_a_frame_boundary_is_not_a_reject(self, inbound):
        inbound.feed(HELLO + FRAMES[3])
        inbound.connection.eof_received()
        assert inbound.metrics.snapshot().get("net_frames_rejected", 0) == 0

    def test_garbage_behind_good_frames_closes_after_dispatching(self,
                                                                 inbound):
        inbound.feed(HELLO + FRAMES[3] + b"GARBAGE-NOT-A-FRAME" + FRAMES[4])
        assert inbound.take() == _wire(_via_read_frame([FRAMES[3]]))
        assert inbound.transport.aborted
        assert inbound.metrics.snapshot()["net_frames_rejected_framing"] == 1
        # Nothing parses on a closed connection, whatever still arrives.
        inbound.feed(FRAMES[4])
        assert inbound.take() == []

    def test_hello_must_come_first_even_mid_segment(self, inbound):
        inbound.feed(FRAMES[3] + HELLO)
        assert inbound.take() == []
        assert inbound.transport.aborted
        assert inbound.metrics.snapshot()["net_handshakes_rejected"] == 1


class TestHalting:
    def test_unread_admin_replies_halt_the_connection(self, inbound):
        """The write buffer over its high-water mark is the callback
        form of a ``drain()`` that blocks: requests behind it wait,
        in order, until the peer has read its replies."""
        request = encode_frame(StatusRequest())
        inbound.transport.on_write = inbound.connection.pause_writing
        inbound.feed(HELLO + request + request + FRAMES[3])
        assert len(inbound.transport.written) == 1
        assert not inbound.transport.reading
        inbound.feed(FRAMES[4])  # raced the pause: kept, not parsed
        assert inbound.take() == []
        inbound.transport.on_write = None
        inbound.connection.resume_writing()
        assert len(inbound.transport.written) == 2
        assert inbound.transport.reading
        assert inbound.take() == _wire(
            _via_read_frame([FRAMES[3], FRAMES[4]]))


def _leaning_frames() -> tuple[bytes, bytes, bytes]:
    """A keep-alive that carries ``STAMP`` in full, the same frame with
    garbage where its batch mate was, and a reply whose seal only
    refers to the stamp -- all three as one connection's pool would
    write them."""
    sender = WireContext()
    batch = encode_frame(FrameBatch(messages=(m.KeepAlive(stamp=STAMP),
                                              "mate")), sender)
    reply = encode_frame(m.ReadReply(request_id=PLEDGE.request_id,
                                     result={"value": 7}, pledge=SEAL),
                         sender)
    assert codec.encode_value(STAMP) in batch
    assert codec.encode_value(STAMP) not in reply
    return batch, batch[:-len("mate")] + b"\xff" * len("mate"), reply


DEFINING, DAMAGED, REFERRING = _leaning_frames()


class TestUnknownReference:
    """A well-framed body naming something this connection never
    carried in full: the shared context is what is lost, like
    alignment, so the connection goes -- counted, attributed, with
    nothing dispatched -- and the peer's next one starts from nothing."""

    def _assert_rejected(self, inbound: Inbound, cut: int,
                         rejected: dict[str, int]) -> None:
        snap = inbound.metrics.snapshot()
        for name, count in rejected.items():
            assert snap.get(name, 0) == count, f"{name} at cut {cut}"
        assert inbound.transport.aborted, f"cut {cut}"
        # Nothing parses on the closed connection, whatever still comes.
        inbound.feed(DEFINING + REFERRING)
        assert inbound.take() == [], f"cut {cut}"

    def test_reference_never_defined_here_split_at_every_offset(
            self, inbound):
        stream = HELLO + REFERRING
        for count, cut in enumerate(range(1, len(stream)), start=1):
            inbound.feed(stream[:cut], stream[cut:])
            assert inbound.take() == [], f"dispatched at cut {cut}"
            self._assert_rejected(inbound, cut, {
                "net_frames_rejected": count,
                "net_frames_rejected_reference": count,
                "net_rejected_from_tester": count,
                "net_frames_rejected_body": 0,
                "net_frames_rejected_framing": 0})
            inbound.redial()

    def test_reference_to_a_frame_rejected_for_its_garbage(self, inbound):
        """The defining frame was skipped as a bad body (the stream
        stays aligned), so what it defined was never remembered: the
        reference behind it resolves to nothing, not to a stamp out of
        a frame the receiver threw away."""
        stream = HELLO + DAMAGED + REFERRING
        for count, cut in enumerate(range(1, len(stream)), start=1):
            inbound.feed(stream[:cut], stream[cut:])
            assert inbound.take() == [], f"dispatched at cut {cut}"
            self._assert_rejected(inbound, cut, {
                "net_frames_rejected": 2 * count,
                "net_frames_rejected_body": count,
                "net_frames_rejected_reference": count,
                "net_rejected_from_tester": 2 * count})
            inbound.redial()

    def test_next_connection_from_the_same_peer_starts_empty(self, inbound):
        expected = _wire([m.KeepAlive(stamp=STAMP), "mate",
                          m.ReadReply(request_id=PLEDGE.request_id,
                                      result={"value": 7}, pledge=SEAL)])
        inbound.feed(HELLO + DEFINING + REFERRING + REFERRING)
        assert inbound.take() == expected + expected[-1:]
        assert not inbound.transport.aborted
        # What that connection learnt went with it.
        inbound.redial()
        inbound.feed(HELLO + REFERRING)
        assert inbound.take() == []
        assert inbound.transport.aborted
        inbound.redial()
        inbound.feed(HELLO + DEFINING + REFERRING)
        assert inbound.take() == expected
        snap = inbound.metrics.snapshot()
        assert snap["net_frames_rejected"] == 1
        assert snap["net_frames_rejected_reference"] == 1
