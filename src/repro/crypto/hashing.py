"""SHA-1 hashing and canonical serialisation.

The read protocol (Section 3.2) has the slave place "the secure hash (SHA-1)
of the result" in the pledge packet, and the client recompute that hash over
the result it received.  For this comparison to be meaningful the two sides
must serialise the result identically, so every value that can appear as a
query result is first reduced to *canonical bytes*:

* containers are serialised recursively with unambiguous framing;
* dict keys are emitted in sorted order;
* integers, floats, strings and bytes each get a distinct type tag so that
  ``1``, ``1.0`` and ``"1"`` never collide.

The auditor and the double-check path reuse the same canonicalisation, which
is what makes a pledge packet "an irrefutable proof" (Section 3.3): a hash
mismatch cannot be explained away by encoding differences.

Signed payloads (pledges, stamps, certificates, shard maps, merkle roots)
are canonical bytes too: dicts with a fixed key set, serialised through a
:func:`record_template` so that only their values are framed per message.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Callable, NamedTuple

# Type tags keep differently-typed but similarly-printed values apart.
_TAG_NONE = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"
_TAG_LIST = b"L"
_TAG_TUPLE = b"T"
_TAG_DICT = b"D"
_TAG_SET = b"E"


def canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` to a canonical, injective byte string.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and
    arbitrarily nested ``list``/``tuple``/``dict``/``set``/``frozenset``
    containers of those.  Raises :class:`TypeError` for anything else, which
    surfaces protocol bugs (e.g. a query result leaking a live object)
    instead of silently hashing its ``repr``.
    """
    out: list[bytes] = []
    _serialise(value, out)
    return b"".join(out)


def _frame(tag: bytes, payload: bytes) -> bytes:
    """Tag + length-prefix framing so concatenations cannot be ambiguous."""
    return b"%b%d:%b" % (tag, len(payload), payload)


def _frame_count(count: int) -> bytes:
    return str(count).encode("ascii") + b";"


def _frame_none(value: None) -> bytes:
    return _TAG_NONE


def _frame_bool(value: bool) -> bytes:
    return _TAG_BOOL + (b"1" if value else b"0")


def _frame_int(value: int) -> bytes:
    return _frame(_TAG_INT, str(value).encode("ascii"))


def _frame_float(value: float) -> bytes:
    if value == 0.0:
        value = 0.0  # canonicalise -0.0: equal values, equal bytes
    # repr() round-trips floats exactly in Python 3.
    return _frame(_TAG_FLOAT, repr(value).encode("ascii"))


def _frame_str(value: str) -> bytes:
    return _frame(_TAG_STR, value.encode("utf-8"))


def _frame_bytes(value: bytes | bytearray) -> bytes:
    return _frame(_TAG_BYTES, bytes(value))


#: Exact scalar class -> its framing: the one definition of a scalar's
#: canonical bytes, shared by the generic walker and the record
#: templates.  Subclasses (whose ``str``/``repr`` may differ) miss here
#: and are framed by the walker as the base class they derive from.
_SCALAR_FRAMERS: dict[type, Callable[[Any], bytes]] = {
    str: _frame_str,
    int: _frame_int,
    float: _frame_float,
    bool: _frame_bool,
    bytes: _frame_bytes,
    bytearray: _frame_bytes,
    type(None): _frame_none,
}


def _serialise(value: Any, out: list[bytes]) -> None:
    framer = _SCALAR_FRAMERS.get(value.__class__)
    if framer is not None:
        out.append(framer(value))
    elif isinstance(value, list):
        out.append(_TAG_LIST + _frame_count(len(value)))
        for item in value:
            _serialise(item, out)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE + _frame_count(len(value)))
        for item in value:
            _serialise(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT + _frame_count(len(value)))
        for key in sorted(value, key=_sort_key):
            _serialise(key, out)
            _serialise(value[key], out)
    elif isinstance(value, (set, frozenset)):
        out.append(_TAG_SET + _frame_count(len(value)))
        for item in sorted(value, key=_sort_key):
            _serialise(item, out)
    else:
        for base in value.__class__.__mro__:
            if base in _SCALAR_FRAMERS:  # an IntEnum, a str subclass
                out.append(_SCALAR_FRAMERS[base](value))
                return
        raise TypeError(
            f"cannot canonically serialise {type(value).__name__!r}; "
            "query results must be built from plain data types"
        )


def _sort_key(value: Any) -> tuple[str, str]:
    """Total order across mixed-type keys: by type name, then by repr."""
    return (type(value).__name__, repr(value))


# -- fixed-shape signed records -------------------------------------------


class RecordTemplate(NamedTuple):
    """Precomputed framing of a dict record with a fixed set of str keys."""

    #: Dict tag and entry count.
    head: bytes
    #: ``(name, framed key)`` in canonical (sorted) emission order.
    keys: tuple[tuple[str, bytes], ...]


def record_template(*names: str) -> RecordTemplate:
    """Precompute the key framing of ``{name: ..., ...}`` records.

    Every signed structure of the protocol (pledge, version stamp,
    certificate, shard map, merkle root) is a dict with a fixed key set
    whose values change per message.  The key order and key bytes are a
    function of the names alone, so they are worked out once here and
    :func:`canonical_record` only frames the values.
    """
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate record field in {names!r}")
    return RecordTemplate(
        head=_TAG_DICT + _frame_count(len(names)),
        keys=tuple((name, _frame_str(name))
                   for name in sorted(names, key=_sort_key)))


def canonical_record(template: RecordTemplate,
                     fields: dict[str, Any]) -> bytes:
    """``canonical_bytes(fields)`` for a dict matching ``template``.

    Byte-identical to the generic serialiser by construction: scalars
    go through the same framers, and any other value -- a container, or
    whatever a hostile peer put where a scalar belongs -- is handed to
    :func:`canonical_bytes`, so the bytes and the ``TypeError`` for
    unserialisable values are unchanged.  The record itself is not
    memoised: signed payloads carry a unique request id or timestamp,
    so caching them only evicted the entries that do repeat.
    """
    keys = template.keys
    if len(fields) != len(keys):
        raise ValueError(
            f"record has {len(fields)} fields, template {len(keys)}")
    out = [template.head]
    for name, key_frame in keys:
        value = fields[name]
        framer = _SCALAR_FRAMERS.get(value.__class__)
        out.append(key_frame)
        out.append(framer(value) if framer is not None
                   else canonical_bytes(value))
    return b"".join(out)


def constant_time_equals(left: str | bytes | bytearray,
                         right: str | bytes | bytearray) -> bool:
    """Compare two digests/signature encodings in constant time.

    Every hash that crosses a trust boundary -- a pledged result hash
    against a trusted recomputation, a Merkle leaf path against a
    signed root -- must be compared with :func:`hmac.compare_digest`
    rather than ``==`` so a real deployment does not leak a
    byte-position timing oracle (protolint rule PL002).  This wrapper
    additionally accepts the mixed ``str``-hex / ``bytes`` pairings
    protocol code actually produces, and treats a type mismatch as
    plain inequality instead of a ``TypeError``.
    """
    if isinstance(left, str) and isinstance(right, str):
        # compare_digest on str demands ASCII; hex digests always are,
        # but a malicious peer controls one side, so normalise first.
        return hmac.compare_digest(left.encode("utf-8"),
                                   right.encode("utf-8"))
    if isinstance(left, str) or isinstance(right, str):
        return False
    return hmac.compare_digest(bytes(left), bytes(right))


def sha1_digest(value: Any) -> bytes:
    """Return the 20-byte SHA-1 digest of ``value``'s canonical form."""
    return hashlib.sha1(canonical_bytes(value)).digest()


def sha1_hex(value: Any) -> str:
    """Return the 40-hex-character SHA-1 of ``value``'s canonical form.

    This is the hash that travels inside pledge packets.
    """
    return hashlib.sha1(canonical_bytes(value)).hexdigest()
