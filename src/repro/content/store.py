"""The abstract content store every replica holds a copy of.

A :class:`ContentStore` is the state machine being replicated.  Masters
apply committed writes, push state updates to slaves, and the auditor
replays both.  The interface therefore exposes:

* :meth:`execute_read` / :meth:`apply_write` -- deterministic operation
  execution, returning a *cost* in abstract work units alongside the
  result.  Costs drive simulated service times, which is how experiments
  E4/E5 model a slave or auditor saturating.
* :meth:`clone` -- an independent deep copy, used to seed new replicas
  and to install a state transfer.
* :meth:`snapshot` -- a frozen, read-only view of the store as it
  stands: what a trusted server retains per committed version, so that
  a pledge can be checked *at its pledged version*.
* :meth:`state_digest` -- a canonical hash of the full state, used by
  tests and by masters to assert replica convergence after broadcasts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.content.queries import ReadQuery, WriteOp


@dataclass(frozen=True)
class ReadOutcome:
    """Result of a read plus the work it took to compute it."""

    result: Any
    cost_units: float


@dataclass(frozen=True)
class WriteOutcome:
    """Effect summary of a write plus the work it took to apply it."""

    applied: bool
    cost_units: float
    detail: Any = None


class ContentStore(ABC):
    """Deterministic state machine replicated across masters and slaves.

    Engines that should travel inside :class:`repro.core.messages.SlaveSnapshot`
    over a real network additionally implement the snapshot-wire protocol:
    a class-level ``engine_name``, :meth:`snapshot_wire` and
    :meth:`from_snapshot_wire`, registered via :func:`register_store_engine`
    so :func:`store_from_wire` can decode any engine from plain data.
    """

    #: Stable wire identifier; engines override (e.g. ``"kv"``).
    engine_name: str = ""

    @abstractmethod
    def execute_read(self, query: ReadQuery) -> ReadOutcome:
        """Execute ``query`` without mutating state.

        Raises :class:`~repro.content.queries.UnsupportedQueryError` for
        operations belonging to a different engine, and ordinary
        ``KeyError``/``FileNotFoundError``-style errors are *not* raised:
        missing data yields an in-band "not found" result, because a slave
        must be able to pledge (and an auditor to re-check) the answer
        "no such key" just like any other answer.
        """

    @abstractmethod
    def apply_write(self, op: WriteOp) -> WriteOutcome:
        """Apply ``op``, mutating state.  Deterministic across replicas."""

    @abstractmethod
    def clone(self) -> "ContentStore":
        """Deep, independent copy of the current state."""

    def snapshot(self) -> "ContentStore":
        """The store as it stands, frozen: later writes to this store
        never show through, and every read, ``state_items`` and
        ``snapshot_wire`` answers (result *and* cost) as a ``clone()``
        taken now would.  Not for writing -- ``clone()`` it for that.

        The fallback is a clone; an engine that can do better overrides
        (:class:`~repro.content.kvstore.KeyValueStore`: O(1)).
        """
        return self.clone()

    @abstractmethod
    def state_items(self) -> Any:
        """Plain-data projection of the full state, for digesting."""

    def state_digest(self) -> str:
        """Canonical SHA-1 over the full state; replicas must agree."""
        from repro.crypto.hashing import sha1_hex

        return sha1_hex(self.state_items())

    # -- snapshot-wire protocol (full state transfers over a network) ----

    def snapshot_wire(self) -> dict[str, Any]:
        """Plain-data snapshot of the full state, decodable by
        :func:`store_from_wire`.  Engines opt in by overriding this and
        :meth:`from_snapshot_wire`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support wire snapshots"
        )

    @classmethod
    def from_snapshot_wire(cls, payload: dict[str, Any]) -> "ContentStore":
        """Rebuild a store from :meth:`snapshot_wire` output."""
        raise NotImplementedError(
            f"{cls.__name__} does not support wire snapshots"
        )


_ENGINE_REGISTRY: dict[str, type[ContentStore]] = {}

_StoreT = TypeVar("_StoreT", bound=type[ContentStore])


def register_store_engine(cls: _StoreT) -> _StoreT:
    """Class decorator: make ``cls`` decodable by :func:`store_from_wire`."""
    name = cls.engine_name
    if not name:
        raise ValueError(f"{cls.__name__} has no engine_name")
    if name in _ENGINE_REGISTRY:
        raise ValueError(f"duplicate store engine {name!r}")
    _ENGINE_REGISTRY[name] = cls
    return cls


def store_from_wire(payload: dict[str, Any]) -> ContentStore:
    """Decode a snapshot produced by :meth:`ContentStore.snapshot_wire`."""
    _import_engines()
    try:
        name = payload["engine"]
    except (KeyError, TypeError):
        raise ValueError(f"not a store snapshot payload: {payload!r}") \
            from None
    try:
        cls = _ENGINE_REGISTRY[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown store engine {name!r}") from None
    try:
        return cls.from_snapshot_wire(payload)
    except (LookupError, TypeError, AttributeError) as exc:
        # Snapshots arrive off the wire: a payload naming a real engine
        # but missing or mistyping its fields is malformed input, not a
        # crash in whoever decodes it.
        raise ValueError(
            f"malformed {name!r} store snapshot: {exc!r}") from None


_ENGINES_IMPORTED = False


def _import_engines() -> None:
    """Import the built-in engines so their registrations run.

    Deferred (not at module import) because the engine modules import
    this one; first decode triggers it.
    """
    global _ENGINES_IMPORTED
    if _ENGINES_IMPORTED:
        return
    _ENGINES_IMPORTED = True
    import repro.content.filesystem  # noqa: F401
    import repro.content.kvstore  # noqa: F401
    import repro.content.minidb  # noqa: F401
