"""The process-wide verification cache.

The protocol re-checks a lot of identical signatures: every read reply
carries the same master-signed :class:`~repro.core.messages.VersionStamp`
until the next keep-alive, and every keep-alive fan-out asks each slave
to verify the same signature.  Verification is a deterministic function
of immutable inputs, so one bounded LRU is shared by the whole process:

``VERIFY_CACHE``
    ``(public_key, payload, signature) -> bool``.  Because the key pins
    the exact signature bytes *and* the exact payload, a cached ``True``
    can never vouch for a different payload or a garbled signature: any
    mismatch produces a different key and falls through to a real
    verification.  Both outcomes are cached (a repeated forgery is
    rejected from cache just as cheaply).

Correctness invariant: the cache only ever short-circuits a *repeated*
computation over identical inputs; it never conflates distinct payloads,
keys or signatures.  The uncached reference the tests compare against is
:func:`repro.crypto.signatures._verify_dispatch`.

The cache is process-global on purpose: a simulation run hosts many
principals in one process, and the paper's repeated-verification cost is
per *signature*, not per verifying node.  Simulated service times (the
metrics experiments report) are charged independently of this layer, so
the cache changes wall-clock speed only, never simulated results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

#: Sentinel distinguishing "not cached" from a cached falsy value.
MISS = object()


class LRUCache:
    """A small bounded LRU map with hit/miss counters.

    Backed by an ``OrderedDict``: a hit moves the key to the most-recent
    end and eviction pops the oldest entry, both O(1).  Not a plain
    ``dict``: re-inserting a key on every hit fills its entry table with
    dead slots that each eviction's search for the oldest key steps past.
    Not thread-safe -- the simulator is single-threaded and the
    multiprocessing sweep runner gives each worker its own process (and
    therefore its own caches).
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"cache size must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Any:
        """Return the cached value or :data:`MISS`, updating recency."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return MISS
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        elif len(data) >= self.maxsize:
            data.popitem(last=False)
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data


VERIFY_CACHE = LRUCache(4096)
#: Consulted by nothing: bound only because ``benchmarks/harness`` clears
#: it by name; goes with ROADMAP item 4's benchmark PR.
CANONICAL_CACHE = LRUCache(1)


def stats() -> dict[str, int]:
    """Snapshot of the process-wide verification-cache counters."""
    return {
        "verify_cache_hits": VERIFY_CACHE.hits,
        "verify_cache_misses": VERIFY_CACHE.misses,
    }
