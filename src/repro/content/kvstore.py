"""Ordered key-value store with point, range and aggregation reads.

Models the paper's CDN use case (Section 6): product catalogues and
semi-static web content keyed by name.  Values are arbitrary plain data.
Aggregations cover the paper's "results of applying aggregation functions
on this content" (Section 2): count / sum / min / max / avg over a key
prefix, where numeric aggregation applies to numeric values only.

Cost model: point operations cost 1 unit; range/aggregate operations cost
1 unit per key examined.  These units become simulated service time at the
node executing the query.

Versions: :meth:`KeyValueStore.snapshot` is O(1).  A snapshot is a
:class:`KeyValueSnapshot` -- a *delta*, not a copy: the live store
records into its newest snapshot the value a write is about to
replace, and each snapshot links forward to the next, so a snapshot
reads a key from the first undo on its chain that knows it and
otherwise from the live store.  Same result and same cost units as a
clone taken at the same moment, for every query.
"""

from __future__ import annotations

import bisect
import weakref
from abc import abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from repro.content.queries import (
    ReadQuery,
    UnsupportedQueryError,
    WriteOp,
    register_operation,
)
from repro.content.store import (
    ContentStore,
    ReadOutcome,
    WriteOutcome,
    register_store_engine,
)

_AGG_FUNCS = ("count", "sum", "min", "max", "avg")


# -- read queries -------------------------------------------------------


@register_operation
@dataclass(frozen=True)
class KVGet(ReadQuery):
    """Fetch one key.  Result: ``{"found": bool, "value": Any}``."""

    key: str
    op_name: ClassVar[str] = "kv.get"


@register_operation
@dataclass(frozen=True)
class KVMultiGet(ReadQuery):
    """Fetch several keys at once.  Result: dict key -> value for hits."""

    keys: tuple[str, ...]
    op_name: ClassVar[str] = "kv.multiget"


@register_operation
@dataclass(frozen=True)
class KVRange(ReadQuery):
    """All pairs with ``start <= key < end``, in key order, bounded."""

    start: str
    end: str
    limit: int = 1000
    op_name: ClassVar[str] = "kv.range"


@register_operation
@dataclass(frozen=True)
class KVAggregate(ReadQuery):
    """Aggregate values under a key prefix.

    ``func`` is one of count / sum / min / max / avg; for the numeric
    functions, non-numeric values under the prefix are skipped (and the
    number skipped is reported, keeping the result deterministic).
    """

    prefix: str
    func: str
    op_name: ClassVar[str] = "kv.aggregate"


# -- write operations ----------------------------------------------------


@register_operation
@dataclass(frozen=True)
class KVPut(WriteOp):
    """Insert or overwrite one key."""

    key: str
    value: Any
    op_name: ClassVar[str] = "kv.put"


@register_operation
@dataclass(frozen=True)
class KVDelete(WriteOp):
    """Delete one key; applying to a missing key is a deterministic no-op."""

    key: str
    op_name: ClassVar[str] = "kv.delete"


#: In a snapshot's undo: the key did not exist at that version.
_MISSING: Any = object()


class _KVReads(ContentStore):
    """What the live store and its snapshots answer alike: the scans
    and the whole-state projections, over ``_scan`` and ``state_items``."""

    engine_name = "kv"

    @abstractmethod
    def _scan(self, start: str, end: str | None,
              ) -> tuple[list[str], Callable[[str], Any]]:
        """The keys with ``start <= key < end`` (None: unbounded) in
        order, as a list the caller may keep, and a lookup for them."""

    def clone(self) -> "KeyValueStore":
        return KeyValueStore(self.state_items())

    def snapshot_wire(self) -> dict[str, Any]:
        return {"engine": self.engine_name, "items": self.state_items()}

    def _execute_scan(self, query: ReadQuery) -> ReadOutcome:
        if isinstance(query, KVRange):
            return self._range(query)
        if isinstance(query, KVAggregate):
            return self._aggregate(query)
        raise UnsupportedQueryError(
            f"KeyValueStore cannot execute {type(query).__name__}"
        )

    def _range(self, query: KVRange) -> ReadOutcome:
        if query.limit < 0:
            raise ValueError(f"negative range limit: {query.limit}")
        keys, value_of = self._scan(query.start, query.end)
        selected = keys[: query.limit]
        result = [(key, value_of(key)) for key in selected]
        # Cost covers keys examined even past the limit cut-off is cheap;
        # charge what was actually materialised plus the seek.
        return ReadOutcome(result=result,
                           cost_units=1.0 + float(len(selected)))

    def _aggregate(self, query: KVAggregate) -> ReadOutcome:
        if query.func not in _AGG_FUNCS:
            raise ValueError(
                f"unknown aggregate {query.func!r}; expected {_AGG_FUNCS}"
            )
        prefix = query.prefix
        # The upper bound is the first string that no longer has the prefix.
        keys, value_of = self._scan(
            prefix,
            prefix[:-1] + chr(ord(prefix[-1]) + 1) if prefix else None)
        cost = 1.0 + float(len(keys))
        if query.func == "count":
            return ReadOutcome(result={"func": "count", "value": len(keys)},
                               cost_units=cost)
        numbers = []
        skipped = 0
        for key in keys:
            value = value_of(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                skipped += 1
            else:
                numbers.append(value)
        if not numbers:
            value: Any = None
        elif query.func == "sum":
            value = sum(numbers)
        elif query.func == "min":
            value = min(numbers)
        elif query.func == "max":
            value = max(numbers)
        else:  # avg
            value = sum(numbers) / len(numbers)
        return ReadOutcome(
            result={"func": query.func, "value": value, "skipped": skipped},
            cost_units=cost,
        )


@register_store_engine
class KeyValueStore(_KVReads):
    """Sorted-key in-memory store; all operations deterministic."""

    def __init__(self, items: dict[str, Any] | None = None) -> None:
        self._data: dict[str, Any] = dict(items or {})
        self._sorted_keys: list[str] = sorted(self._data)
        #: The newest snapshot, held weakly: writes record into it while
        #: anybody keeps it (an older one keeps every newer one alive).
        self._newest: weakref.ref[KeyValueSnapshot] | None = None

    def __len__(self) -> int:
        return len(self._data)

    # -- ContentStore ----------------------------------------------------

    def execute_read(self, query: ReadQuery) -> ReadOutcome:
        if isinstance(query, KVGet):
            found = query.key in self._data
            return ReadOutcome(
                result={"found": found,
                        "value": self._data.get(query.key)},
                cost_units=1.0,
            )
        if isinstance(query, KVMultiGet):
            hits = {key: self._data[key] for key in query.keys
                    if key in self._data}
            return ReadOutcome(result=hits, cost_units=float(len(query.keys)))
        return self._execute_scan(query)

    def apply_write(self, op: WriteOp) -> WriteOutcome:
        if isinstance(op, KVPut):
            if self._newest is not None:
                self._record(self._newest, op.key)
            if op.key not in self._data:
                bisect.insort(self._sorted_keys, op.key)
            self._data[op.key] = op.value
            return WriteOutcome(applied=True, cost_units=1.0)
        if isinstance(op, KVDelete):
            if op.key in self._data:
                if self._newest is not None:
                    self._record(self._newest, op.key)
                del self._data[op.key]
                index = bisect.bisect_left(self._sorted_keys, op.key)
                del self._sorted_keys[index]
                return WriteOutcome(applied=True, cost_units=1.0)
            return WriteOutcome(applied=False, cost_units=1.0,
                                detail="missing key")
        raise UnsupportedQueryError(
            f"KeyValueStore cannot apply {type(op).__name__}"
        )

    def snapshot(self) -> "KeyValueSnapshot":
        """O(1): an empty undo that the writes to come fill in."""
        view = KeyValueSnapshot(self)
        older = self._newest() if self._newest is not None else None
        if older is not None:
            older._next = view
        self._newest = weakref.ref(view)
        return view

    def _record(self, newest: weakref.ref[KeyValueSnapshot],
                key: str) -> None:
        """``key`` is about to change: the newest snapshot, if anyone
        still holds it, keeps the value it saw."""
        view = newest()
        if view is None:
            self._newest = None  # every snapshot dropped: stop recording
        elif key not in view._undo:
            view._undo[key] = self._data.get(key, _MISSING)

    def state_items(self) -> Any:
        return dict(self._data)

    @classmethod
    def from_snapshot_wire(cls, payload: dict[str, Any]) -> "KeyValueStore":
        return cls(dict(payload["items"]))

    def _scan(self, start: str, end: str | None,
              ) -> tuple[list[str], Callable[[str], Any]]:
        keys = self._sorted_keys
        lo = bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        return keys[lo:hi], self._data.__getitem__


class KeyValueSnapshot(_KVReads):
    """A :class:`KeyValueStore` as it stood at one ``snapshot()`` call:
    read-only, never changing, and the size of what was written since.

    Links point forward only (to the next snapshot, and to the live
    store), so dropping a snapshot frees its undo at once and dropping
    the oldest never touches the rest.
    """

    def __init__(self, live: KeyValueStore) -> None:
        self._live = live
        #: key -> the value here (or ``_MISSING``) of every key written
        #: between this snapshot and the next; filled in by ``live``.
        self._undo: dict[str, Any] = {}
        self._next: KeyValueSnapshot | None = None

    def _lookup(self, key: str) -> Any:
        view: KeyValueSnapshot | None = self
        while view is not None:
            if key in view._undo:
                return view._undo[key]
            view = view._next
        return self._live._data.get(key, _MISSING)

    def _overlay(self) -> dict[str, Any]:
        """key -> the value here (or ``_MISSING``), for every key written
        since this snapshot: per key, the first undo on the chain."""
        overlay: dict[str, Any] = {}
        view: KeyValueSnapshot | None = self
        while view is not None:
            for key, old in view._undo.items():
                overlay.setdefault(key, old)
            view = view._next
        return overlay

    # -- ContentStore ----------------------------------------------------

    def execute_read(self, query: ReadQuery) -> ReadOutcome:
        if isinstance(query, KVGet):
            value = self._lookup(query.key)
            found = value is not _MISSING
            return ReadOutcome(
                result={"found": found, "value": value if found else None},
                cost_units=1.0,
            )
        if isinstance(query, KVMultiGet):
            hits = {key: value for key in query.keys
                    if (value := self._lookup(key)) is not _MISSING}
            return ReadOutcome(result=hits, cost_units=float(len(query.keys)))
        return self._execute_scan(query)

    def apply_write(self, op: WriteOp) -> WriteOutcome:
        raise TypeError("a snapshot is read-only; clone() it to write")

    def state_items(self) -> Any:
        items = dict(self._live._data)
        for key, old in self._overlay().items():
            if old is _MISSING:
                items.pop(key, None)
            else:
                items[key] = old
        return items

    def _scan(self, start: str, end: str | None,
              ) -> tuple[list[str], Callable[[str], Any]]:
        """The live store's slice, patched with the keys in range that
        were written since: work in the slice and the writes, never in
        the store."""
        keys, live_value = self._live._scan(start, end)
        overlay = self._overlay()
        if not overlay:
            return keys, live_value
        live = self._live._data
        for key, old in overlay.items():
            if key < start or (end is not None and key >= end):
                continue
            if old is _MISSING:
                if key in live:
                    del keys[bisect.bisect_left(keys, key)]
            elif key not in live:
                bisect.insort(keys, key)
        return keys, lambda key: (overlay[key] if key in overlay
                                  else live[key])
