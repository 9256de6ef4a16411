"""What a trusted server remembers of the versions it has committed:
the totally ordered ops (slave resyncs, the offline oracle, shard
hand-off), each version's commit time (write spacing, the
``max_latency`` window check) and the ``depth`` newest snapshots
(checking a pledge *at its pledged version*).

A retained version is the store's own ``snapshot()`` -- for the
key-value engine a delta, not a copy, so a commit does no work in the
size of the store; nothing outside this module knows.  Time is an
argument (``now``), never read here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator

from repro.content.queries import operation_from_wire
from repro.content.store import ContentStore


class History:
    """Committed versions ``0..len(history)`` of one trusted replica."""

    def __init__(self, initial: ContentStore, depth: int) -> None:
        #: How many of the newest snapshots ``store_at`` can answer for.
        self.depth = depth
        #: ``ops[v]`` is the wire op whose commit moved v -> v+1.  Never
        #: pruned; read-only outside this module.
        self.ops: list[Any] = []
        #: version -> commit time.  Read-only outside this module.
        self.times: dict[int, float] = {0: 0.0}
        self._stores: OrderedDict[int, ContentStore] = OrderedDict()
        self._retain(0, initial.snapshot())

    def __len__(self) -> int:
        return len(self.ops)  # commits recorded == newest version

    def _retain(self, version: int, snapshot: ContentStore) -> None:
        self._stores[version] = snapshot
        if len(self._stores) > self.depth:
            self._stores.popitem(last=False)

    def commit(self, version: int, op_wire: Any, store: ContentStore,
               now: float) -> None:
        """Record that ``op_wire`` produced ``version``, whose content
        is ``store`` as it stands (snapshotted here), at time ``now``."""
        if version != len(self.ops) + 1:
            raise ValueError(f"commit of version {version} onto a history "
                             f"at version {len(self.ops)}")
        self.ops.append(op_wire)
        self.times[version] = now
        self._retain(version, store.snapshot())

    def store_at(self, version: int) -> ContentStore | None:
        """Historical snapshot, or None if outside the retained window."""
        return self._stores.get(version)

    def ops_between(self, have: int, version: int,
                    depth: int) -> tuple[Any, ...] | None:
        """The ops from ``have`` to ``version``, or None when they reach
        back beyond the newest ``depth``: send a snapshot instead."""
        if have < max(0, version - depth):
            return None
        return tuple(self.ops[have:version])

    def replay(self, initial: ContentStore,
               ) -> Iterator[tuple[int, ContentStore]]:
        """Every ``(version, snapshot)`` from 0 up, rebuilt from
        ``initial`` by re-applying the ops to one working copy."""
        store = initial.clone()
        yield 0, store.snapshot()
        for version, op_wire in enumerate(self.ops, 1):
            store.apply_write(operation_from_wire(op_wire))
            yield version, store.snapshot()

    def replayed(self, initial: ContentStore,
                 version: int) -> tuple["History", ContentStore]:
        """A new history of this one's first ``version`` commits and the
        live store to go with it, both rebuilt by committing those ops
        again: whatever a seeded server remembers is the result of its
        own ops."""
        store = initial.clone()
        fresh = History(store, self.depth)
        for v, op_wire in enumerate(self.ops[:version], 1):
            store.apply_write(operation_from_wire(op_wire))
            fresh.commit(v, op_wire, store, self.times[v])
        return fresh, store


__all__ = ["History"]
