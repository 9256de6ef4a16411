"""A bounded inbound queue with an explicit drop policy.

Nothing in ``src/`` uses it: a listener admits and dispatches each
frame where it decodes it.  The benchmark harness still times and
traces :class:`InboundQueue`, so it stays until the harness drops it.
Its drop policy is explicit:

* when full, the *oldest* sheddable entry is evicted to make room --
  under overload a reader is better served by the freshest requests
  (stale ones have usually already timed out client-side);
* entries marked *protected* (keep-alives and accusations, classified
  by the caller) are NEVER shed: keep-alives carry the Section 3.1
  freshness the whole read protocol hangs off, and accusations carry
  Section 3.5's proof-of-misbehaviour.  Protected traffic may push the
  queue past its limit; its volume is bounded by timer frequency, not
  by workload, so the overshoot is a few entries at worst.

The queue is synchronous and pure, so its policy is unit-testable
without an event loop and stays inside the determinism lint scope.
"""

from __future__ import annotations

from collections import deque
from typing import Any


class InboundQueue:
    """Bounded FIFO with oldest-first shedding of unprotected entries."""

    __slots__ = ("limit", "shed", "protected_overflow", "_items")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        #: Entries dropped to make room (for callers' accounting).
        self.shed = 0
        #: Protected entries admitted past the limit.
        self.protected_overflow = 0
        self._items: deque[tuple[Any, bool]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any, protected: bool = False) -> Any | None:
        """Append ``item``; returns the entry shed to make room, if any.

        The returned value is the evicted oldest sheddable entry, or
        ``item`` itself when everything queued is protected and ``item``
        is not, or ``None`` when nothing was shed.
        """
        if len(self._items) < self.limit:
            self._items.append((item, protected))
            return None
        for index, (_entry, entry_protected) in enumerate(self._items):
            if not entry_protected:
                victim = self._items[index][0]
                del self._items[index]
                self._items.append((item, protected))
                self.shed += 1
                return victim
        if protected:
            # Full of protected traffic: never shed it, admit over limit.
            self._items.append((item, protected))
            self.protected_overflow += 1
            return None
        self.shed += 1
        return item

    def get(self) -> Any | None:
        """Pop the oldest entry, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()[0]

    def clear(self) -> None:
        self._items.clear()


__all__ = ["InboundQueue"]
