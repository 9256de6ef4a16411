"""The serialisable operation model shared by every content engine.

Pledge packets contain "a copy of the request" (Section 3.2) and the
auditor later *re-executes* that request (Section 3.4), so every operation
must (a) round-trip through plain data and (b) be deterministic: executing
the same operation against byte-identical replicas yields results with
identical canonical hashes.

:func:`operation_from_wire` is the single decode point; engines register
their operation classes with :func:`register_operation` at import time.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar

from repro.crypto.hashing import sha1_hex


class UnsupportedQueryError(Exception):
    """An engine received an operation type it does not implement."""


#: Leaf types ``dataclasses.asdict`` hands back as they are.  An
#: operation whose fields are all of these needs no deep copy.
_ATOMIC = frozenset({str, int, float, bool, bytes, type(None)})


@functools.cache
def _wire_shape(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(field names, names of the tuple-typed fields)`` of an operation
    class, worked out once per class instead of once per message."""
    declared = fields(cls)
    return (tuple(f.name for f in declared),
            tuple(f.name for f in declared
                  if str(f.type).startswith("tuple")))


@dataclass(frozen=True)
class Operation:
    """Base for all read queries and write operations.

    Subclasses are frozen dataclasses whose fields are plain data, so
    ``to_wire``/``operation_from_wire`` round-trips are mechanical.
    """

    op_name: ClassVar[str] = "operation"

    def to_wire(self) -> dict[str, Any]:
        """Serialise to a plain dict suitable for canonical hashing."""
        payload: dict[str, Any] = {}
        for name in _wire_shape(self.__class__)[0]:
            value = getattr(self, name)
            if value.__class__ not in _ATOMIC:
                payload = asdict(self)
                break
            payload[name] = value
        payload["op"] = self.op_name
        return payload

    def request_hash(self) -> str:
        """SHA-1 over the wire form; identifies the request in pledges."""
        return sha1_hex(self.to_wire())


@dataclass(frozen=True)
class ReadQuery(Operation):
    """Marker base for reads.  Reads never mutate a store."""

    op_name: ClassVar[str] = "read"


@dataclass(frozen=True)
class WriteOp(Operation):
    """Marker base for writes.  Writes are executed only on masters."""

    op_name: ClassVar[str] = "write"


_REGISTRY: dict[str, type[Operation]] = {}


def register_operation(cls: type[Operation]) -> type[Operation]:
    """Class decorator: make ``cls`` decodable by :func:`operation_from_wire`."""
    name = cls.op_name
    if name in _REGISTRY:
        raise ValueError(f"duplicate operation name {name!r}")
    _REGISTRY[name] = cls
    return cls


def operation_from_wire(payload: dict[str, Any]) -> Operation:
    """Decode a wire dict produced by :meth:`Operation.to_wire`."""
    try:
        name = payload["op"]
    except (KeyError, TypeError):
        raise ValueError(f"not an operation payload: {payload!r}") from None
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown operation type {name!r}") from None
    names, tuple_names = _wire_shape(cls)
    kwargs = {name: payload[name] for name in names}
    # Wire payloads that crossed a JSON boundary turn tuples into lists;
    # normalise tuple-typed fields back.
    for name in tuple_names:
        if isinstance(kwargs[name], list):
            kwargs[name] = tuple(
                tuple(v) if isinstance(v, list) else v for v in kwargs[name]
            )
    return cls(**kwargs)
