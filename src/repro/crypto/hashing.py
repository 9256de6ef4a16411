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
are canonical bytes too: dicts with a fixed key set, each assembled by the
encoder :func:`record_template` compiles for it, so that only what changes
per message is framed per message.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Callable, Collection, NamedTuple

# Type tags keep differently-typed but similarly-printed values apart.
_TAG_NONE = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"


def canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` to a canonical, injective byte string.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and
    arbitrarily nested ``list``/``tuple``/``dict``/``set``/``frozenset``
    containers of those.  Raises :class:`TypeError` for anything else, which
    surfaces protocol bugs (e.g. a query result leaking a live object)
    instead of silently hashing its ``repr``.
    """
    framer = _SCALAR_FRAMERS.get(value.__class__)
    if framer is not None:
        return framer(value)  # nothing to walk, nothing to join
    out: list[bytes] = []
    _serialise(value, out)
    return b"".join(out)


def _frame(tag: bytes, payload: bytes) -> bytes:
    """Tag + length-prefix framing so concatenations cannot be ambiguous."""
    return b"%b%d:%b" % (tag, len(payload), payload)


# A framer reads its value through the *base* class's own method, so an
# instance of a subclass is framed from the value it holds and not from
# what its ``__str__``/``__repr__``/``encode``/``__bytes__`` says of it:
# ``str()`` of an ``IntEnum`` member is ``"Color.A"`` on Python 3.10 and
# ``"1"`` on 3.12, and two honest nodes must hash one value alike.


def _frame_none(value: None) -> bytes:
    return _TAG_NONE


def _frame_bool(value: bool) -> bytes:
    return _TAG_BOOL + (b"1" if value else b"0")


def _frame_int(value: int) -> bytes:
    return _frame(_TAG_INT, int.__repr__(value).encode("ascii"))


def _frame_float(value: float) -> bytes:
    # Adding 0.0 canonicalises -0.0 (equal values, equal bytes) and
    # leaves every other float as it is, nan and inf included; repr()
    # round-trips floats exactly in Python 3.
    return _frame(_TAG_FLOAT,
                  repr(float.__add__(value, 0.0)).encode("ascii"))


def _frame_str(value: str) -> bytes:
    return _frame(_TAG_STR, str.encode(value, "utf-8"))


def _frame_bytes(value: bytes | bytearray) -> bytes:
    return _frame(_TAG_BYTES, memoryview(value).tobytes())


#: Scalar class -> its framing: the one definition of a scalar's
#: canonical bytes.  The walker looks a value's exact class up here; an
#: instance of a subclass (an ``IntEnum`` member, a ``str`` subclass)
#: misses and is framed as the first of its bases found here.
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
    cls = value.__class__
    if cls is str:
        # Most of what is ever walked; :func:`_frame_str` in line.
        data = value.encode("utf-8")
        out.append(b"S%d:%b" % (len(data), data))
        return
    framer = _SCALAR_FRAMERS.get(cls)
    if framer is not None:
        out.append(framer(value))
    elif isinstance(value, dict):
        shape = tuple(value)
        plan = _PLANS.get(shape)
        if plan is None and len(_PLANS) < PLAN_LIMIT:
            plan = _make_plan(shape)
        if plan is not None:
            for key in shape:
                if key.__class__ is not str:
                    break  # equal to a planned key, but not a plain str
            else:
                out.append(plan[0])
                for key, framed in plan[1]:
                    item = value[key]
                    if item.__class__ is str:
                        data = item.encode()
                        out.append(b"%bS%d:%b" % (framed, len(data), data))
                    else:
                        out.append(framed)
                        _serialise(item, out)
                return
        out.append(b"D%d;" % len(value))
        for key in shape:
            if key.__class__ is not str:
                keys = sorted(value, key=_sort_key)
                break
        else:
            # One type name throughout, so :func:`_sort_key` orders by
            # its second half alone.  By repr, not by the string:
            # ``"a!"`` sorts ahead of ``"a"`` because ``!`` < ``'``.
            keys = sorted(value, key=repr)
        for key in keys:
            _serialise(key, out)
            _serialise(value[key], out)
    elif isinstance(value, list):
        out.append(b"L%d;" % len(value))
        for item in value:
            _serialise(item, out)
    elif isinstance(value, tuple):
        out.append(b"T%d;" % len(value))
        for item in value:
            _serialise(item, out)
    elif isinstance(value, (set, frozenset)):
        out.append(b"E%d;" % len(value))
        for item in sorted(value, key=_sort_key):
            _serialise(item, out)
    else:
        for base in cls.__mro__:
            if base in _SCALAR_FRAMERS:
                out.append(_SCALAR_FRAMERS[base](value))
                return
        raise TypeError(
            f"cannot canonically serialise {type(value).__name__!r}; "
            "query results must be built from plain data types"
        )


def _sort_key(value: Any) -> tuple[str, str]:
    """Total order across mixed-type keys: by type name, then by repr."""
    return (type(value).__name__, repr(value))


# -- dict plans ------------------------------------------------------------
#
# The dicts a read walks -- its query, its result -- repeat a handful of
# key sets, and sorting those keys by ``repr`` was most of a walk.  A
# plan holds one key set's canonical order and framed key bytes; it is
# found by the dict's keys alone, so nothing of a value is ever kept.
# The table never evicts: past its bounds a dict is walked as before,
# so the bytes never depend on what the table holds.

#: Most plans the table holds (worst case PLAN_LIMIT x PLAN_BYTES).
PLAN_LIMIT = 256
#: Most keys a planned dict has.
PLAN_KEYS = 16
#: Most framed key bytes one plan holds.
PLAN_BYTES = 256

#: Key set in insertion order -> (dict head, ((key, framed key), ...)).
_PLANS: dict[tuple[str, ...],
             tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}


def _make_plan(shape: tuple[Any, ...]
               ) -> tuple[bytes, tuple[tuple[str, bytes], ...]] | None:
    """Plan (and file) a dict with the keys ``shape``, or ``None`` when
    a key is not exactly a ``str`` or the key set is past the bounds."""
    if len(shape) > PLAN_KEYS:
        return None
    for key in shape:
        if key.__class__ is not str:
            return None
    if sum(map(len, shape)) > PLAN_BYTES:
        return None  # a character frames to a byte or more
    steps = tuple((key, _frame_str(key)) for key in sorted(shape, key=repr))
    if sum(len(framed) for _, framed in steps) > PLAN_BYTES:
        return None
    plan = (b"D%d;" % len(shape), steps)
    _PLANS[shape] = plan
    return plan


# -- fixed-shape signed records -------------------------------------------


class RecordTemplate(NamedTuple):
    """The compiled encoder of a dict record with a fixed set of str keys."""

    #: Every key the encoder emits, in canonical (emission) order.
    names: tuple[str, ...]
    #: True for a run of entries with no dict head around them: what
    #: another template splices in where it names this one as a field.
    partial: bool
    #: ``encode(*values) -> bytes``: one positional argument per
    #: declared field, in declaration order.
    encode: Callable[..., bytes]


def record_template(*fields: str | RecordTemplate, partial: bool = False,
                    framed: Collection[str] = (),
                    **constants: Any) -> RecordTemplate:
    """Compile the encoder of ``{name: ..., ...}`` records.

    Every signed structure of the protocol (pledge, version stamp,
    certificate, shard map, merkle root) is a dict with a fixed key set
    whose values change per message.  The key order, the key bytes and
    the ``constants`` (``kind="pledge"``) are a function of the
    declaration alone, so they are folded into literals here, once, and
    ``encode`` joins them with one piece per field:

    * a field declared by name takes that entry's value -- framed in
      line when it is exactly a ``str``, handed to the generic walker
      when it is anything else (a container, or whatever a hostile peer
      put where a ``str`` belongs), so the bytes and the ``TypeError``
      for an unserialisable value are :func:`canonical_bytes`'s own;
    * a name also listed in ``framed`` takes its value's canonical
      bytes instead, from a caller that keeps them;
    * a field that is a ``partial`` template takes what that template
      encoded: a run of entries framed once and spliced into every
      record that repeats them.  Its names must sort next to each other
      among this template's.

    The record itself is not memoised here: signed payloads carry a
    unique request id or timestamp, so caching them by value only
    evicted the entries that do repeat.
    """
    # One entry per constant, field and run: the names it emits, then
    # its pieces -- literal bytes, or the argument that supplies them.
    entries: list[tuple[tuple[str, ...], list[bytes | str]]] = [
        ((name,), [_frame_str(name) + canonical_bytes(value)])
        for name, value in constants.items()]
    body: list[str] = []
    for index, field in enumerate(fields):
        arg = f"_{index}"
        if isinstance(field, RecordTemplate):
            if not field.partial:
                raise ValueError(f"{field.names!r} is a whole record, "
                                 "not a run of entries")
            entries.append((field.names, [arg]))
            continue
        entries.append(((field,), [_frame_str(field), arg]))
        if field not in framed:
            body += [f"    if {arg}.__class__ is str:",
                     f"        {arg} = {arg}.encode('utf-8')",
                     f"        {arg} = b'S%d:%b' % (len({arg}), {arg})",
                     "    else:",
                     f"        {arg} = canonical_bytes({arg})"]
    if not set(framed) <= set(fields):
        raise ValueError(f"framed {framed!r} names no declared field")
    entries.sort(key=lambda entry: repr(entry[0][0]))
    names = tuple(name for emitted, _ in entries for name in emitted)
    if list(names) != sorted(set(names), key=repr):
        raise ValueError(f"duplicate record field in {names!r}, or a run "
                         "whose names sort apart")
    # Neighbouring literals merge, so ``encode`` joins one literal and
    # one argument per field.
    joined: list[str] = []
    literal = b"" if partial else b"D%d;" % len(names)
    for _, pieces in entries:
        for piece in pieces:
            if isinstance(piece, bytes):
                literal += piece
                continue
            if literal:
                joined.append(repr(literal))
                literal = b""
            joined.append(piece)
    if literal:
        joined.append(repr(literal))
    source = "\n".join([
        f"def encode({', '.join(f'_{i}' for i in range(len(fields)))}):",
        *body,
        f"    return b''.join(({', '.join(joined)},))"])
    namespace: dict[str, Any] = {"canonical_bytes": canonical_bytes}
    exec(source, namespace)
    return RecordTemplate(names, partial, namespace["encode"])


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
