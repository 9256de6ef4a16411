"""Versioned, length-prefixed binary wire format for protocol messages.

Frame layout (all integers big-endian)::

    +----+----+---------+---------+------------------+
    | 'R'| 'N'| version | flags   | body length u32  |  8-byte header
    +----+----+---------+---------+------------------+
    | body: one encoded value                        |
    +------------------------------------------------+

The body is a self-describing tagged encoding of plain Python data
(None, bools, arbitrary-precision ints, floats, str, bytes, lists,
tuples, dicts, sets) plus *extensions*: registered dataclasses encoded
as their wire type id followed by the tuple of ``__init__`` field
values -- except where a field would repeat what the receiver already
holds: a :class:`~repro.core.messages.VersionStamp` this connection has
carried in full travels as a reference to it (:class:`WireContext`),
and a pledge's SHA-1 as its 20 bytes instead of 40 hex characters.
Both are transport only.  (What a read reply leaves out -- everything
of its pledge but the stamp and the signature -- is the protocol's
choice, not the codec's: see :class:`~repro.core.messages.Seal`.)
Dataclasses still round-trip field-for-field, so the
``canonical_bytes`` signed payloads rebuilt on the receiving side are
byte-identical to the sender's and **signatures verify unchanged
across the wire** -- no re-signing, no trusted serialisation step.

The extension registry is append-only: ids 1-31 are reserved for
infrastructure carriers (handshake, certificates, public keys, broadcast
envelopes, content-store snapshots); ids 32+ map positionally onto
:data:`repro.core.messages.WIRE_MESSAGE_TYPES`.  Reordering either is a
wire-format break and requires bumping :data:`WIRE_VERSION`.  A retired
id is never reused: 6, 12-13, 15-16, 22-23, 53 and 56 stay unassigned.

Hostile input is expected: every decode error is a
:class:`~repro.net.errors.CodecError` subclass, never an uncaught
``IndexError``/``struct.error``, so servers can drop bad frames without
dying.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from typing import Any, Callable, Iterator

from repro.broadcast.totalorder import BroadcastEnvelope
from repro.content.store import ContentStore, store_from_wire
from repro.core.messages import (
    WIRE_MESSAGE_TYPES,
    Accusation,
    Pledge,
    VersionStamp,
)
from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import HMACPublicKey
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

MAGIC = b"RN"
#: 7 since a message stopped restating its sender (``WriteRequest``,
#: ``ClientHello``, ``BcastWrite``'s origin) and engine traffic left its
#: wrapper (id 56); 6 since one status pair (ids 24-25) replaced the
#: trace-health, admission-status and shard-status pairs; 5 took two
#: inbox fields out of the admission-status reply; 4 retired the wire
#: types and fields nothing read and made an HMAC public key a handle;
#: 3 put a ``Seal`` in a read reply in place of its pledge; 2 added the
#: stamp reference and the raw digest.  A peer speaking any other
#: version is refused at its hello.
WIRE_VERSION = 7
HEADER_SIZE = 8
#: Upper bound on a frame body; a full MiniDB snapshot fits comfortably,
#: while a hostile 4 GiB length prefix is rejected before allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">2sBBI")
_DOUBLE = struct.Struct(">d")

# -- value tags -------------------------------------------------------------

_T_NONE = 0x4E  # 'N'
_T_TRUE = 0x54  # 'T'
_T_FALSE = 0x46  # 'F'
_T_INT = 0x69  # 'i'
_T_FLOAT = 0x66  # 'f'
_T_STR = 0x73  # 's'
_T_BYTES = 0x62  # 'b'
_T_LIST = 0x6C  # 'l'
_T_TUPLE = 0x74  # 't'
_T_DICT = 0x64  # 'd'
_T_SET = 0x53  # 'S'
_T_FROZENSET = 0x5A  # 'Z'
_T_EXT = 0x78  # 'x'
#: A SHA-1 as its 20 raw bytes; decodes to the 40 lower-case hex
#: characters they spell.  Written for ``Pledge.result_hash`` only.
_T_DIGEST = 0x68  # 'h'
#: A version stamp this connection already carried in full, named by
#: the 8 bytes of its timestamp; decodes to that very object.
_T_STAMP_REF = 0x72  # 'r'
_TUPLE_TAG = bytes((_T_TUPLE,))

#: Stamps one direction of one connection remembers.  A connection sees
#: the old and the new stamp around each keep-alive, for each master
#: whose tenants share its host pair: 8 covers four such masters.  Not
#: an option: too small costs bytes (a stamp goes in full again), never
#: correctness.
STAMPS_REMEMBERED = 8


@dataclasses.dataclass(frozen=True, slots=True)
class NetHello:
    """First frame on every connection: who is dialling in.

    ``wire_version`` lets a listener reject a peer speaking a different
    format before misinterpreting its frames.
    """

    node_id: str
    wire_version: int = WIRE_VERSION


@dataclasses.dataclass(frozen=True, slots=True)
class FrameBatch:
    """Coalesced carrier: several protocol messages in one wire frame.

    The pipelined sender (:class:`repro.net.transport.ConnectionPool`)
    drains its whole per-peer queue per wakeup and ships the backlog as
    one ``FrameBatch`` -- one header, one write, one drain -- instead of
    one frame per message.  Like :class:`~repro.obs.context.TraceCarrier`
    it is an *envelope*: each carried message is encoded by its own
    registry entry, so signed payloads inside are byte-identical to an
    unbatched send and every signature verifies unchanged.  Receivers
    unpack in order, preserving per-peer FIFO delivery.
    """

    messages: tuple[Any, ...]


# -- what a connection remembers ---------------------------------------------


class WireContext:
    """What one direction of one TCP connection has already said in full.

    The dialling pool keeps one beside each writer, the listener one in
    each accepted connection; :func:`encode_frame` and
    :func:`decode_value` take it as an argument.  Both ends apply the
    same rule to the same frames in the same order, so the two stay
    equal without exchanging a byte about it: a stamp that crosses in
    full (whichever message carries it) is remembered under its packed
    timestamp, the oldest of more than :data:`STAMPS_REMEMBERED` is
    forgotten, and a frame that fails to encode or decode is as if it
    had never been.  A reference therefore names only what *this peer*
    sent in full earlier on *this connection*; one the receiver cannot
    resolve is :class:`~repro.net.errors.UnknownReference` and costs
    the connection, never a guess.  Without a context both functions
    are the stateless, self-contained form.
    """

    __slots__ = ("stamps",)

    def __init__(self) -> None:
        #: Packed timestamp -> stamp, oldest definition first.  Replaced,
        #: never mutated: whoever holds the old mapping can put it back.
        self.stamps: dict[bytes, VersionStamp] = {}

    @staticmethod
    def _name(stamp: VersionStamp) -> bytes | None:
        """The 8 bytes that name ``stamp``; a timestamp that is not a
        float has none, and its stamp goes in full every time."""
        timestamp = stamp.timestamp
        if timestamp.__class__ is not float:
            return None
        return _DOUBLE.pack(timestamp)

    def remember(self, stamp: VersionStamp) -> None:
        """``stamp`` just crossed in full (either direction's view)."""
        key = self._name(stamp)
        if key is None:
            return
        stamps = {held_key: held for held_key, held in self.stamps.items()
                  if held_key != key}
        if len(stamps) >= STAMPS_REMEMBERED:
            del stamps[next(iter(stamps))]
        stamps[key] = stamp
        self.stamps = stamps

    def reference(self, stamp: VersionStamp) -> bytes | None:
        """The bytes that name ``stamp`` here, if it crossed in full."""
        key = self._name(stamp)
        held = None if key is None else self.stamps.get(key)
        if held is not None and (held is stamp
                                 or _same_on_the_wire(held, stamp)):
            return key
        return None


#: The context of the frame being encoded or decoded, else ``None``.
#: :func:`encode_frame` and :func:`decode_value` set it for the duration
#: of their one synchronous call and put back what they found, so the
#: per-value codecs keep their two-argument shape (and speed) and no
#: caller ever sees it set.
_context: WireContext | None = None


def _stateless(codec_fn: Callable[..., Any], *args: Any) -> Any:
    """``codec_fn(*args)`` with no context current: what is encoded or
    decoded inside neither uses nor feeds the connection's memory."""
    global _context
    outer, _context = _context, None
    try:
        return codec_fn(*args)
    finally:
        _context = outer


# -- extension registry -----------------------------------------------------

_EncodeFn = Callable[[Any, bytearray], None]
_DecodeFn = Callable[[bytes, int], "tuple[Any, int]"]


class _EncoderTable(dict[type, _EncodeFn]):
    """Exact class -> encoder of one complete value (tag included).

    Encoding is one lookup on ``value.__class__`` and one call: plain
    data types and every registered wire class have an entry, and a
    class without one is not encodable -- except store engines, which
    register their concrete classes lazily and so resolve to the
    :class:`ContentStore` base entry.
    """

    def __missing__(self, cls: type) -> _EncodeFn:
        if issubclass(cls, ContentStore):
            return self[ContentStore]
        raise CodecError(
            f"cannot encode {cls.__module__}.{cls.__name__} "
            "(not a wire-registered type)"
        )


_ENCODE = _EncoderTable()
_BY_TYPE: dict[type, int] = {}
_DECODERS: dict[int, _DecodeFn] = {}
_TYPE_NAMES: dict[int, str] = {}


def _register(type_id: int, cls: type, encode_payload: _EncodeFn | None,
              decode: _DecodeFn | None) -> None:
    """Bind ``cls`` to ``type_id``; ``None`` means the dataclass codec."""
    if type_id in _DECODERS:
        raise ValueError(f"duplicate wire type id {type_id}")
    if cls in _BY_TYPE:
        raise ValueError(f"{cls.__name__} already registered")
    header = bytes((_T_EXT,)) + _encode_varint(type_id)
    _BY_TYPE[cls] = type_id
    _ENCODE[cls] = _dataclass_encoder(cls, header) \
        if encode_payload is None else _headed(header, encode_payload)
    _DECODERS[type_id] = _dataclass_decoder(cls) if decode is None \
        else decode
    _TYPE_NAMES[type_id] = cls.__name__


def registered_wire_types() -> dict[int, str]:
    """Wire type id -> class name, for tests and docs."""
    return dict(_TYPE_NAMES)


def wire_type_id(cls: type) -> int:
    """The registered wire id for ``cls`` (KeyError if unregistered)."""
    return _BY_TYPE[cls]


# -- varint (unsigned LEB128) ----------------------------------------------


def _append_varint(out: bytearray, value: int) -> None:
    """Append a LEB128 varint directly to ``out`` (no temporaries)."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    _append_varint(out, value)
    return bytes(out)


def _decode_varint(buf: bytes, pos: int) -> tuple[int, int]:
    """Multi-byte varints; :func:`_decode_value` inlines the 1-byte case."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise TruncatedFrame("varint runs past end of frame")
        if shift > 63:
            raise CodecError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# -- value encoding ---------------------------------------------------------
#
# One encoder per exact class, each writing its tag, a length or count
# where the format has one (a single byte below 128, which is nearly
# always) and the payload.  Containers dispatch their items through
# ``_ENCODE`` again, so a whole message is encoded without passing a
# type test it does not need.


def _encode_none(value: None, out: bytearray) -> None:
    out.append(_T_NONE)


def _encode_bool(value: bool, out: bytearray) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _encode_int(value: int, out: bytearray) -> None:
    length = (value.bit_length() + 8) // 8  # room for the sign bit
    out.append(_T_INT)
    if length < 0x80:
        out.append(length)
    else:
        _append_varint(out, length)
    out += value.to_bytes(length, "big", signed=True)


def _encode_float(value: float, out: bytearray) -> None:
    out.append(_T_FLOAT)
    out += _DOUBLE.pack(value)


def _encode_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _append_varint(out, len(raw))
    out += raw


def _encode_bytes(value: bytes | bytearray | memoryview,
                  out: bytearray) -> None:
    raw = bytes(value)
    out.append(_T_BYTES)
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _append_varint(out, len(raw))
    out += raw


def _encode_list(value: list[Any], out: bytearray) -> None:
    out.append(_T_LIST)
    _append_varint(out, len(value))
    for item in value:
        _ENCODE[item.__class__](item, out)


def _encode_tuple(value: tuple[Any, ...], out: bytearray) -> None:
    out.append(_T_TUPLE)
    _append_varint(out, len(value))
    for item in value:
        _ENCODE[item.__class__](item, out)


def _encode_dict(value: dict[Any, Any], out: bytearray) -> None:
    out.append(_T_DICT)
    _append_varint(out, len(value))
    for key, item in value.items():
        _ENCODE[key.__class__](key, out)
        _ENCODE[item.__class__](item, out)


def _encode_set(value: set[Any] | frozenset[Any], out: bytearray) -> None:
    out.append(_T_SET if value.__class__ is set else _T_FROZENSET)
    # Deterministic order: sort members by their own encoding -- the
    # stateless one, because sorting undoes the order a context's
    # definitions and references rely on.
    encoded = _stateless(sorted, map(encode_value, value))
    _append_varint(out, len(encoded))
    for blob in encoded:
        out += blob


_ENCODE.update({
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_str, bytes: _encode_bytes,
    bytearray: _encode_bytes, memoryview: _encode_bytes,
    list: _encode_list, tuple: _encode_tuple, dict: _encode_dict,
    set: _encode_set, frozenset: _encode_set,
})


def encode_value(value: Any) -> bytes:
    """Encode one value (without frame header)."""
    out = bytearray()
    _ENCODE[value.__class__](value, out)
    return bytes(out)


# -- value decoding ---------------------------------------------------------

#: Tags followed by a varint (a length, a count or a type id).
_VARINT_TAGS = frozenset((_T_STR, _T_EXT, _T_TUPLE, _T_INT, _T_BYTES,
                          _T_DICT, _T_LIST, _T_SET, _T_FROZENSET))


def _decode_value(buf: bytes, pos: int) -> tuple[Any, int]:
    """Decode the value starting at ``buf[pos]``; returns it and the
    offset after it.  Tags are tested most frequent first."""
    end = len(buf)
    if pos >= end:
        raise TruncatedFrame("value tag runs past end of frame")
    tag = buf[pos]
    pos += 1
    if tag in _VARINT_TAGS:
        if pos >= end:
            raise TruncatedFrame("varint runs past end of frame")
        number = buf[pos]
        if number < 0x80:
            pos += 1
        else:
            number, pos = _decode_varint(buf, pos)
        if tag == _T_STR:
            stop = pos + number
            if stop > end:
                raise _short(buf, pos, number)
            try:
                return buf[pos:stop].decode("utf-8"), stop
            except UnicodeDecodeError as exc:
                raise CodecError(
                    f"invalid utf-8 in string: {exc}") from None
        if tag == _T_EXT:
            decoder = _DECODERS.get(number)
            if decoder is None:
                raise UnknownWireType(f"unknown wire type id {number}")
            return decoder(buf, pos)
        if tag == _T_INT:
            stop = pos + number
            if stop > end:
                raise _short(buf, pos, number)
            return int.from_bytes(buf[pos:stop], "big", signed=True), stop
        if tag == _T_BYTES:
            stop = pos + number
            if stop > end:
                raise _short(buf, pos, number)
            return buf[pos:stop], stop
        if tag == _T_DICT:
            result: dict[Any, Any] = {}
            for _ in range(number):
                key, pos = _decode_value(buf, pos)
                item, pos = _decode_value(buf, pos)
                try:
                    result[key] = item
                except TypeError as exc:
                    raise CodecError(
                        f"unhashable dict key: {exc}") from None
            return result, pos
        if tag == _T_TUPLE or tag == _T_LIST:
            items = []
            for _ in range(number):
                item, pos = _decode_value(buf, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        # A set's members were encoded without a context (_encode_set).
        return _stateless(_decode_set, buf, pos, number, tag)
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_DIGEST:
        stop = pos + 20
        if stop > end:
            raise _short(buf, pos, 20)
        return buf[pos:stop].hex(), stop
    if tag == _T_STAMP_REF:
        stop = pos + 8
        if stop > end:
            raise _short(buf, pos, 8)
        context = _context
        stamp = None if context is None \
            else context.stamps.get(buf[pos:stop])
        if stamp is None:
            raise UnknownReference(
                "reference to a version stamp this connection has not "
                "carried in full")
        return stamp, stop
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise _short(buf, pos, 8)
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def _decode_set(buf: bytes, pos: int, count: int,
                tag: int) -> tuple[Any, int]:
    items = []
    for _ in range(count):
        item, pos = _decode_value(buf, pos)
        items.append(item)
    try:
        return (set(items) if tag == _T_SET else frozenset(items)), pos
    except TypeError as exc:
        raise CodecError(f"unhashable set member: {exc}") from None


def _short(buf: bytes, pos: int, length: int) -> TruncatedFrame:
    return TruncatedFrame(
        f"need {length} bytes at offset {pos}, frame has {len(buf)}")


def decode_value(data: bytes | memoryview,
                 context: WireContext | None = None) -> Any:
    """Decode one value; the buffer must contain exactly one value.

    ``context`` is the receiving half of the connection the bytes came
    over (see :class:`WireContext`); without one only self-contained
    bytes decode, and a reference is :class:`UnknownReference`.
    """
    global _context
    buf = data if isinstance(data, bytes) else bytes(data)
    outer, _context = _context, context
    stamps = None if context is None else context.stamps
    try:
        try:
            value, pos = _decode_value(buf, 0)
        except RecursionError:
            # A few KiB of nested list tags is enough to exhaust the
            # stack; that is a malformed frame, not a crash in the
            # reader task.
            raise CodecError("value nested too deeply") from None
        if pos != len(buf):
            raise CodecError(
                f"{len(buf) - pos} trailing bytes after value"
            )
    except BaseException:
        if context is not None:
            context.stamps = stamps  # as if the frame had never been
        raise
    finally:
        _context = outer
    return value


# -- framing ---------------------------------------------------------------


def encode_frame(value: Any, context: WireContext | None = None) -> bytes:
    """Header + encoded body for one message.

    ``context`` is the sending half of the connection the frame is for
    (see :class:`WireContext`); without one the frame is self-contained.

    The body is encoded straight after a reserved header slot in one
    growable buffer, so a frame costs a single allocation instead of a
    header + body concatenation copy.
    """
    global _context
    out = bytearray(HEADER_SIZE)
    outer, _context = _context, context
    stamps = None if context is None else context.stamps
    try:
        _ENCODE[value.__class__](value, out)
        length = len(out) - HEADER_SIZE
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"encoded body is {length} bytes "
                f"(limit {MAX_FRAME_BYTES})"
            )
    except BaseException:
        if context is not None:
            context.stamps = stamps  # as if the frame had never been
        raise
    finally:
        _context = outer
    _HEADER.pack_into(out, 0, MAGIC, WIRE_VERSION, 0, length)
    return bytes(out)


def parse_header(header: bytes) -> int:
    """Validate an 8-byte header; return the body length."""
    if len(header) != HEADER_SIZE:
        raise TruncatedFrame(
            f"header is {len(header)} bytes, need {HEADER_SIZE}"
        )
    magic, version, _flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersion(f"unsupported wire version {version}")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"declared body of {length} bytes (limit {MAX_FRAME_BYTES})"
        )
    return int(length)


def decode_frame(data: bytes | memoryview,
                 context: WireContext | None = None) -> Any:
    """Decode one complete frame (header + body)."""
    buf = data if isinstance(data, bytes) else bytes(data)
    length = parse_header(buf[:HEADER_SIZE])
    body = buf[HEADER_SIZE:]
    if len(body) != length:
        raise TruncatedFrame(
            f"header declares {length} body bytes, got {len(body)}"
        )
    return decode_value(body, context)


# -- extension codecs -------------------------------------------------------
#
# An extension travels as ``_T_EXT``, its wire type id, then a payload.
# For a dataclass the payload is the tuple of its ``__init__`` field
# values; ``init=False`` fields (the ``_payload_cache`` memos) are
# neither sent nor restored -- a decoded message rebuilds its signed
# payload from scratch, exactly like a freshly constructed one.


def _headed(header: bytes, encode_payload: _EncodeFn) -> _EncodeFn:
    """A full extension encoder from a hand-written payload encoder."""

    def encode(value: Any, out: bytearray) -> None:
        out += header
        encode_payload(value, out)

    return encode


def _init_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.init)


def _dataclass_encoder(cls: type, header: bytes) -> _EncodeFn:
    """Compile ``cls``'s encoder: everything that depends only on the
    class (extension header, tuple tag, field count, which attributes
    to read) is worked out here, once."""
    names = _init_fields(cls)
    prefix = header + _TUPLE_TAG + _encode_varint(len(names))
    getters = tuple(operator.attrgetter(name) for name in names)

    def encode(value: Any, out: bytearray) -> None:
        out += prefix
        for get in getters:
            item = get(value)
            _ENCODE[item.__class__](item, out)

    return encode


def _dataclass_decoder(cls: type) -> _DecodeFn:
    name = cls.__name__
    arity = len(_init_fields(cls))
    #: What the encoder writes ahead of the fields: two bytes, for
    #: arity < 128 always.
    canonical = _TUPLE_TAG + _encode_varint(arity)

    def decode(buf: bytes, pos: int) -> tuple[Any, int]:
        if buf.startswith(canonical, pos):
            pos += 2
        else:
            pos = _odd_fields_header(buf, pos, name, arity)
        values = []
        for _ in range(arity):
            item, pos = _decode_value(buf, pos)
            values.append(item)
        try:
            return cls(*values), pos
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot rebuild {name}: {exc}") from None

    return decode


def _odd_fields_header(buf: bytes, pos: int, name: str, arity: int) -> int:
    """The first field's offset behind a tuple header the encoder would
    not have written: a padded count is let through, anything else is
    not ``name``'s payload."""
    if buf[pos:pos + 1] == _TUPLE_TAG:
        count, pos = _decode_varint(buf, pos + 1)
        if count == arity:
            return pos
        for _ in range(count):
            _item, pos = _decode_value(buf, pos)
    else:
        _decode_value(buf, pos)
    # Malformed input has failed above as the value it is would; a
    # value that does decode is still not this class's payload.
    raise CodecError(f"{name} payload must be a {arity}-tuple")


def _encode_store(value: Any, out: bytearray) -> None:
    try:
        payload = value.snapshot_wire()
    except NotImplementedError as exc:
        raise CodecError(str(exc)) from None
    _ENCODE[payload.__class__](payload, out)


def _decode_store(buf: bytes, pos: int) -> tuple[Any, int]:
    payload, pos = _decode_value(buf, pos)
    try:
        return store_from_wire(payload), pos
    except ValueError as exc:
        raise CodecError(f"bad store snapshot: {exc}") from None


# The obs-enabled hot path wraps *every* outgoing message in a
# TraceCarrier (see ``SocketNetwork.transmit``), so these two are written
# out by hand: the same bytes as the compiled dataclass codec, without
# its per-field getter and dispatch (3.3 us against 4.1 us a carrier).
# The 8 is TraceContext's wire id in the table below.
_TRACE_CTX_PREFIX = _TUPLE_TAG + b"\x02"
_TRACE_CARRIER_PREFIX = _TUPLE_TAG + b"\x02" + bytes((_T_EXT, 8))


def _encode_trace_context(value: Any, out: bytearray) -> None:
    out += _TRACE_CTX_PREFIX
    _encode_str(value.trace_id, out)
    _encode_str(value.span_id, out)


def _encode_trace_carrier(value: Any, out: bytearray) -> None:
    out += _TRACE_CARRIER_PREFIX
    _encode_trace_context(value.context, out)
    message = value.message
    _ENCODE[message.__class__](message, out)


_Registration = tuple[int, type, "_EncodeFn | None", "_DecodeFn | None"]


def _iter_registrations() -> Iterator[_Registration]:
    """``(wire id, class, payload encoder, decoder)``; ``None`` selects
    the compiled dataclass codec for that direction."""
    # Infrastructure carriers: ids 1-31, append-only.
    yield (1, NetHello, None, None)
    yield (2, Certificate, None, None)
    yield (3, RSAPublicKey, None, None)
    yield (4, HMACPublicKey, None, None)
    yield (5, BroadcastEnvelope, None, None)
    # 6 was the retired CertAnnouncement (wire version 3 and earlier).
    yield (7, ContentStore, _encode_store, _decode_store)
    # Observability (PR 5): the trace-context envelope and the admin
    # plane.  Appended after the PR 3 carriers -- an older peer that
    # receives one of these rejects the frame (UnknownWireType ->
    # net_frames_rejected) and stays frame-aligned, per the
    # back-compat contract above.
    yield (8, TraceContext, _encode_trace_context, None)
    yield (9, TraceCarrier, _encode_trace_carrier, None)
    yield (10, ObsDumpRequest, None, None)
    yield (11, ObsDumpReply, None, None)
    # 12-13 were the retired trace-health pair (wire version 5 and
    # earlier).
    # Batched hot path (PR 6): several messages coalesced into one frame
    # by the pipelined sender.  Appended after the PR 5 carriers -- same
    # back-compat contract: an older peer rejects the whole batch frame
    # (UnknownWireType -> net_frames_rejected) and stays aligned.
    yield (14, FrameBatch, None, None)
    # 15-16 were the retired admission-status pair (wire version 5 and
    # earlier).
    # Namespace sharding (PR 10): the multi-tenant envelope, the
    # owner-signed shard map and its distribution pair, and the re-home
    # redirect.  Appended after the PR 6 carrier -- same back-compat
    # contract as ids 10-14.
    yield (17, ShardEnvelope, None, None)
    yield (18, ShardMap, None, None)
    yield (19, ShardMapRequest, None, None)
    yield (20, ShardMapReply, None, None)
    yield (21, WrongShard, None, None)
    # 22-23 were the retired shard-status pair (wire version 5 and
    # earlier).  The one status pair every listener answers, traced or
    # not, in their place:
    yield (24, StatusRequest, None, None)
    yield (25, StatusReply, None, None)
    # Protocol messages: ids 32+, positional on WIRE_MESSAGE_TYPES.  53
    # was the retired BcastElectAuditor (wire version 3 and earlier) and
    # 56 the retired BroadcastWrapper (wire version 6 and earlier);
    # neither is reused, so the types after each keep their ids.
    for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES[:21]):
        yield (32 + offset, message_cls, None, None)
    for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES[21:23]):
        yield (54 + offset, message_cls, None, None)
    for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES[23:]):
        yield (57 + offset, message_cls, None, None)


for _registration in _iter_registrations():
    _register(*_registration)
del _registration


# -- say it once per connection ----------------------------------------------
#
# Two fields of the read path repeat what the receiver already holds or
# spell 20 bytes in 40.  Each is elided by its class's one encoder and
# restored by its one decoder, so the decoded object is field-for-field
# the one that was sent and neither what is *signed* nor what is
# *checked* can tell.  The classes concerned are registered above like
# every other message; the hand-written codecs below then take the
# compiled ones' places in the tables.

# (1) A stamp crosses a connection once.

_stamp_in_full = _ENCODE[VersionStamp]
_stamp_from_fields = _DECODERS[_BY_TYPE[VersionStamp]]


def _encode_stamp(value: Any, out: bytearray) -> None:
    context = _context
    if context is not None:
        key = context.reference(value)
        if key is not None:
            out.append(_T_STAMP_REF)
            out += key
            return
        # Ahead of the bytes it describes: if they fail to encode, so
        # does the frame, and the frame puts the context back.
        context.remember(value)
    _stamp_in_full(value, out)


def _decode_stamp(buf: bytes, pos: int) -> tuple[Any, int]:
    stamp, pos = _stamp_from_fields(buf, pos)
    if _context is not None:
        _context.remember(stamp)
    return stamp, pos


def _same_on_the_wire(held: VersionStamp, stamp: VersionStamp) -> bool:
    """Whether a reference to ``held`` gives the receiver ``stamp``.

    Equal is necessary and not enough: ``5 == 5.0`` and ``True == 1``,
    yet each signs as different bytes.  Equal *encodings* decode to the
    same object by construction; the identity test ahead of this call
    settles every stamp the protocol itself sends twice.
    """
    def in_full(candidate: VersionStamp) -> bytearray:
        out = bytearray()
        _stamp_in_full(candidate, out)
        return out

    return held == stamp and in_full(held) == in_full(stamp)


# (2) A SHA-1 travels as 20 bytes.

_PLEDGE_PREFIX = bytes((_T_EXT, _BY_TYPE[Pledge])) + _TUPLE_TAG + b"\x06"


def _encode_pledge(value: Any, out: bytearray) -> None:
    out += _PLEDGE_PREFIX
    item = value.query_wire
    _ENCODE[item.__class__](item, out)
    pledged = value.result_hash
    # Raw when, and only when, it is exactly the string those 20 bytes
    # spell back: 40 lower-case hex characters.  (A question about its
    # spelling, not a comparison of secrets.)
    raw = None
    if pledged.__class__ is str and len(pledged) == 40:
        try:
            raw = bytes.fromhex(pledged)
        except ValueError:
            pass
    if raw is not None and raw.hex() == pledged:
        out.append(_T_DIGEST)
        out += raw
    else:
        _ENCODE[pledged.__class__](pledged, out)
    item = value.stamp
    _ENCODE[item.__class__](item, out)
    item = value.slave_id
    _ENCODE[item.__class__](item, out)
    item = value.request_id
    _ENCODE[item.__class__](item, out)
    item = value.signature
    _ENCODE[item.__class__](item, out)


# Evidence is self-contained in its own frame: whoever is handed an
# accusation's bytes -- a master, a log, an outsider -- can read the
# pledge without the connection it once crossed.  So no reference goes
# in, and (the two ends keeping in step) nothing inside is remembered.

_accusation_in_full = _ENCODE[Accusation]
_accusation_from_fields = _DECODERS[_BY_TYPE[Accusation]]


def _encode_accusation(value: Any, out: bytearray) -> None:
    _stateless(_accusation_in_full, value, out)


def _decode_accusation(buf: bytes, pos: int) -> tuple[Any, int]:
    decoded: tuple[Any, int] = _stateless(_accusation_from_fields, buf, pos)
    return decoded


_ENCODE.update({VersionStamp: _encode_stamp, Pledge: _encode_pledge,
                Accusation: _encode_accusation})
_DECODERS.update({_BY_TYPE[VersionStamp]: _decode_stamp,
                  _BY_TYPE[Accusation]: _decode_accusation})
