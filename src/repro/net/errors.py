"""Exception taxonomy for the socket runtime.

Codec errors subclass :class:`ValueError` so callers that treat "bad
bytes" generically can catch one familiar type; transport errors cover
connection lifecycle failures.  Servers treat every :class:`CodecError`
as a malformed/hostile peer frame: the offending connection is closed
and a ``net_frames_rejected`` metric is bumped, but the server keeps
serving -- a byzantine peer must not be able to crash a node by sending
garbage.
"""

from __future__ import annotations


class NetError(Exception):
    """Base class for everything raised by :mod:`repro.net`."""


class CodecError(NetError, ValueError):
    """A frame or value failed to encode or decode."""


class BadMagic(CodecError):
    """Frame did not start with the protocol magic bytes."""


class BadVersion(CodecError):
    """Frame advertises a wire-format version we do not speak."""


class FrameTooLarge(CodecError):
    """Frame body length exceeds the configured maximum."""


class TruncatedFrame(CodecError):
    """Frame or value ended before its declared length."""


class UnknownWireType(CodecError):
    """Frame carries a type id absent from the codec registry."""


class UnknownReference(CodecError):
    """Frame refers to something its connection never carried in full.

    Unlike other bad bodies this one is connection-fatal: what is lost
    is the state both ends share, as with frame alignment.
    """


class TransportError(NetError):
    """A connection-level failure (dial, handshake, send, timeout)."""


class HandshakeError(TransportError):
    """Peer's first frame was not a valid hello."""


class PeerUnknown(TransportError):
    """Destination node id has no known address."""

