"""What a client accepted: one record per read, kept for the whole run.

Section 3.5's delayed discovery needs it -- once a slave is caught, every
read accepted on its word alone is rolled back -- and so do the offline
oracle and the benchmark's drill, which hold every accepted read against
trusted history.  The log is therefore complete by design, and the
largest thing a run grows: it is stored as columns, not as one object
per read (docs/PERFORMANCE.md, "What a read leaves behind").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, overload

from repro.crypto.hashing import canonical_bytes, constant_time_equals

#: Bytes of a raw SHA-1 digest; a result hash is stored as one.
_DIGEST = 20


@dataclass(slots=True)
class AcceptedRead:
    """Post-run classification record for one accepted read."""

    request_id: str
    query_wire: Any
    result_hash: str
    version: int
    accepted_at: float
    double_checked: bool
    slave_ids: tuple[str, ...]


class AcceptedLog(Sequence[AcceptedRead]):
    """Every read one client accepted, in order, as a read-only sequence
    of :class:`AcceptedRead` values built on demand.

    A row is ~53 bytes in flat columns and no GC-tracked object: the
    request number, version and accept time in ``array`` s, the
    double-checked flag in a ``bytearray``, the result hash as its 20 raw
    bytes, and indexes into two intern tables -- slave sets, and queries
    keyed by their canonical bytes.  Records of one query therefore share
    one ``query_wire`` object.
    """

    __slots__ = ("_prefix", "_numbers", "_versions", "_times", "_checked",
                 "_hashes", "_queries", "_slaves", "_query_rows",
                 "_query_wires", "_slave_rows", "_slave_sets")

    def __init__(self, client_id: str) -> None:
        #: Every request id is ``<client_id>:r<number>``.
        self._prefix = f"{client_id}:r"
        self._numbers = array("q")
        self._versions = array("q")
        self._times = array("d")
        self._checked = bytearray()
        self._hashes = bytearray()
        self._queries = array("I")
        self._slaves = array("I")
        self._query_rows: dict[bytes, int] = {}
        self._query_wires: list[Any] = []
        self._slave_rows: dict[tuple[str, ...], int] = {}
        self._slave_sets: list[tuple[str, ...]] = []

    def add(self, number: int, query: bytes, query_wire: Any,
            result_hash: str, version: int, accepted_at: float,
            double_checked: bool, slave_ids: tuple[str, ...]) -> None:
        """Log the read with request id ``<client_id>:r<number>``;
        ``query`` is ``canonical_bytes(query_wire)``, which a rebuilt
        pledge already holds."""
        digest = bytes.fromhex(result_hash)
        if len(digest) != _DIGEST:
            raise ValueError(f"not a SHA-1 hex digest: {result_hash!r}")
        row = self._query_rows.get(query)
        if row is None:
            row = self._query_rows[query] = len(self._query_wires)
            self._query_wires.append(query_wire)
        self._queries.append(row)
        row = self._slave_rows.get(slave_ids)
        if row is None:
            row = self._slave_rows[slave_ids] = len(self._slave_sets)
            self._slave_sets.append(slave_ids)
        self._slaves.append(row)
        self._hashes += digest
        self._numbers.append(number)
        self._versions.append(version)
        self._times.append(accepted_at)
        self._checked.append(double_checked)

    def append(self, record: AcceptedRead) -> None:
        """Log ``record``, which must have the shape of this client's
        own: request id ``<client_id>:r<n>``, a SHA-1 hex result hash."""
        prefix = self._prefix
        number = record.request_id[len(prefix):]
        digest = bytes.fromhex(record.result_hash)
        if (not record.request_id.startswith(prefix)
                or not number.isdigit() or str(int(number)) != number
                or not constant_time_equals(digest.hex(),
                                            record.result_hash)):
            raise ValueError(f"{record!r} does not fit a log of "
                             f"{prefix}<n> requests")
        self.add(int(number), canonical_bytes(record.query_wire),
                 record.query_wire, record.result_hash, record.version,
                 record.accepted_at, record.double_checked, record.slave_ids)

    def extend(self, records: Iterable[AcceptedRead]) -> None:
        for record in records:
            self.append(record)

    def unchecked_rows_of(self, slave_id: str) -> list[int]:
        """Rows accepted with ``slave_id`` among their slaves and not
        confirmed by a master: what its exclusion implicates.  Scans the
        columns; builds no record."""
        sets = {row for row, slaves in enumerate(self._slave_sets)
                if slave_id in slaves}
        if not sets:
            return []
        checked = self._checked
        return [row for row, slaves in enumerate(self._slaves)
                if slaves in sets and not checked[row]]

    def __len__(self) -> int:
        return len(self._numbers)

    @overload
    def __getitem__(self, index: int) -> AcceptedRead: ...

    @overload
    def __getitem__(self, index: slice) -> list[AcceptedRead]: ...

    def __getitem__(self, index: int | slice
                    ) -> AcceptedRead | list[AcceptedRead]:
        if isinstance(index, slice):
            return [self._record(row)
                    for row in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("accepted log index out of range")
        return self._record(index)

    def __iter__(self) -> Iterator[AcceptedRead]:
        for row in range(len(self)):
            yield self._record(row)

    def _record(self, row: int) -> AcceptedRead:
        start = row * _DIGEST
        return AcceptedRead(
            request_id=f"{self._prefix}{self._numbers[row]}",
            query_wire=self._query_wires[self._queries[row]],
            result_hash=self._hashes[start:start + _DIGEST].hex(),
            version=self._versions[row],
            accepted_at=self._times[row],
            double_checked=bool(self._checked[row]),
            slave_ids=self._slave_sets[self._slaves[row]])


__all__ = ["AcceptedLog", "AcceptedRead"]
