"""Seeded per-link fault plane and the fault-injecting connection pool.

The :class:`FaultPlane` is the single decision authority for every link
in a deployment: for each ``(src, dst)`` pair it holds a
:class:`LinkFaults` profile (probabilities and shaping parameters) and a
private random stream derived from ``seed`` and the link name alone --
*not* from fork order or traffic interleaving -- so the fate of the
n-th frame on a link is a pure function of ``(seed, src, dst, n)``.
Wall-clock timing over real sockets still varies run to run; the fault
*decisions* do not, which is what makes a failing schedule replayable.

:class:`ChaosConnectionPool` applies those decisions inside the sender
path of :class:`~repro.net.transport.ConnectionPool`, and nowhere else:
whatever gets past them is flushed by the production code, synchronously
when the link is up.

* drop / duplicate / delay / reorder act on whole messages before
  they are queued (mirroring what a lossy, reordering, slow network
  does);
* corrupt-frame acts at the byte layer, where the pool encodes a
  flush -- a corrupted frame keeps its header intact so the receiver
  stays frame-aligned and must survive the garbage *body* (codec
  rejection, signature failure or a contained handler error);
* partitions silently eat every frame in both directions until healed,
  exactly like :meth:`repro.sim.network.Network.partition`.

A deployment gets all of this by being launched with a plane
(``LocalCluster.launch(spec, plane=FaultPlane(seed))``): the plane
builds the pools (:meth:`FaultPlane.pool`), so :mod:`repro.net` never
imports this module.
"""

from __future__ import annotations

import asyncio
import functools
import random
from dataclasses import dataclass
from typing import Any

from repro.net import codec
from repro.net.transport import ConnectionPool


@dataclass(frozen=True, slots=True)
class LinkFaults:
    """Fault profile for one directed link (all probabilities per frame).

    ``delay``/``delay_jitter`` are seconds added before the frame is
    queued.  The all-defaults instance is a healthy link.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}")
        for name in ("delay", "delay_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    @property
    def healthy(self) -> bool:
        return self == HEALTHY


HEALTHY = LinkFaults()


@dataclass(frozen=True, slots=True)
class FramePlan:
    """One frame's fate, decided by the plane before the frame moves."""

    drop: bool = False
    corrupt: bool = False
    duplicates: int = 0
    hold: bool = False
    delay: float = 0.0


_PASS = FramePlan()


class FaultPlane:
    """Shared, seeded fault-decision authority for every link.

    Mirrors the simulator's fault API (:class:`repro.sim.network.Network`
    partitions plus loss/latency knobs) for the socket stack.  All
    mutators are plain synchronous calls, so scripted schedules are just
    code that calls them at chosen times.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._default = HEALTHY
        self._links: dict[tuple[str, str], LinkFaults] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._partitions: set[frozenset[str]] = set()

    def pool(self, *args: Any, **kwargs: Any) -> "ChaosConnectionPool":
        """A connection pool (same arguments as
        :class:`~repro.net.transport.ConnectionPool`) on this plane."""
        return ChaosConnectionPool(*args, plane=self, **kwargs)

    # -- profile management ----------------------------------------------

    def set_default(self, faults: LinkFaults) -> None:
        """Profile for every link without an explicit entry."""
        self._default = faults

    def set_link(self, src: str, dst: str, faults: LinkFaults,
                 symmetric: bool = False) -> None:
        """Profile for the ``src -> dst`` link (both ways if symmetric)."""
        self._links[(src, dst)] = faults
        if symmetric:
            self._links[(dst, src)] = faults

    def clear_link(self, src: str, dst: str, symmetric: bool = False) -> None:
        self._links.pop((src, dst), None)
        if symmetric:
            self._links.pop((dst, src), None)

    def reset(self) -> None:
        """Drop every profile and partition; decision streams persist."""
        self._default = HEALTHY
        self._links.clear()
        self._partitions.clear()

    def faults_for(self, src: str, dst: str) -> LinkFaults:
        return self._links.get((src, dst), self._default)

    # -- partitions (bidirectional, like the simulator's) ------------------

    def partition(self, a: str, b: str) -> None:
        """Cut both directions between ``a`` and ``b``."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitions

    # -- per-frame decisions ----------------------------------------------

    def _rng(self, src: str, dst: str) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            # Keyed by seed and link name only (never fork order), so a
            # link's decision stream survives topology/traffic changes.
            rng = random.Random(f"{self._seed}/chaos/{src}->{dst}")
            self._rngs[key] = rng
        return rng

    def plan(self, src: str, dst: str) -> FramePlan:
        """Decide one frame's fate on ``src -> dst``.

        Every probability is drawn on every call, in a fixed order, so
        the link's stream position is exactly its frame count.
        """
        faults = self.faults_for(src, dst)
        if faults.healthy:
            return _PASS
        rng = self._rng(src, dst)
        drop = rng.random() < faults.drop
        corrupt = rng.random() < faults.corrupt
        duplicates = 1 if rng.random() < faults.duplicate else 0
        hold = rng.random() < faults.reorder
        delay = 0.0
        if faults.delay or faults.delay_jitter:
            delay = faults.delay + rng.random() * faults.delay_jitter
        if drop:
            return FramePlan(drop=True)
        return FramePlan(corrupt=corrupt, duplicates=duplicates,
                         hold=hold, delay=delay)

    def randrange(self, src: str, dst: str, low: int, high: int) -> int:
        """One extra draw from the link's stream (corruption offsets)."""
        return self._rng(src, dst).randrange(low, high)


class _Corrupted:
    """Marks a message whose encoded frame must be damaged in transit."""

    __slots__ = ("message",)

    def __init__(self, message: Any) -> None:
        self.message = message


class ChaosConnectionPool(ConnectionPool):
    """A :class:`ConnectionPool` whose frames answer to a fault plane.

    Message-level faults (drop, duplicate, delay, reorder, partition)
    are applied in :meth:`send`, before queueing; corruption
    in :meth:`_encode`, as the flush frames the message.  Reordered
    frames are parked until the next frame to the same destination
    passes them, with a timer backstop so a quiet link still delivers.
    """

    #: Backstop: a held (reordered) frame is flushed after this long
    #: even if no later frame comes along to overtake it.
    REORDER_FLUSH = 0.05

    def __init__(self, *args: Any, plane: FaultPlane,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.plane = plane
        self._held: dict[str, list[Any]] = {}

    # -- message-level faults ---------------------------------------------

    def send(self, dst_id: str, message: Any) -> None:
        if self._closed:
            return
        if self.plane.is_partitioned(self.node_id, dst_id):
            self._drop(dst_id, "partitioned")
            return
        plan = self.plane.plan(self.node_id, dst_id)
        if plan.drop:
            self._drop(dst_id, "chaos")
            return
        payload: Any = message
        if plan.corrupt:
            payload = _Corrupted(message)
            self.metrics.incr("chaos_corrupted_frames")
        if plan.duplicates:
            self.metrics.incr("chaos_duplicated_frames", plan.duplicates)
        if plan.hold:
            self.metrics.incr("chaos_reordered_frames")
            self._held.setdefault(dst_id, []).append(payload)
            asyncio.get_running_loop().call_later(
                self.REORDER_FLUSH, self._flush_held, dst_id)
            return
        self._forward(dst_id, payload, plan.duplicates, plan.delay)
        # Anything parked on this link is now out of order; release it.
        self._flush_held(dst_id)

    def _forward(self, dst_id: str, payload: Any, duplicates: int,
                 delay: float) -> None:
        if delay > 0:
            self.metrics.incr("chaos_delayed_frames")
            asyncio.get_running_loop().call_later(
                delay, self._enqueue, dst_id, payload, duplicates)
        else:
            self._enqueue(dst_id, payload, duplicates)

    def _enqueue(self, dst_id: str, payload: Any, duplicates: int) -> None:
        for _copy in range(1 + duplicates):
            super().send(dst_id, payload)

    def _flush_held(self, dst_id: str) -> None:
        held = self._held.get(dst_id)
        if held:
            self._held[dst_id] = []
            for payload in held:
                self._enqueue(dst_id, payload, 0)

    # -- byte-level faults -------------------------------------------------

    def _encode(self, dst_id: str, batch: list[Any],
                context: codec.WireContext | None) -> bytes:
        """One frame per message, never a ``FrameBatch``: fault fates
        stay addressed per (seed, link, frame-index), and corruption
        offsets are drawn per frame in backlog order (again on a retry).
        """
        return self._encode_each(dst_id, batch, context,
                                 functools.partial(self._frame, dst_id))

    def _frame(self, dst_id: str, payload: Any,
               context: codec.WireContext | None) -> bytes:
        """The production pool's bytes for ``payload`` on this
        connection (references and all), damaged if so planned."""
        if not isinstance(payload, _Corrupted):
            return codec.encode_frame(payload, context)
        # Flip one body byte, leaving the header (and framing) intact.
        frame = bytearray(codec.encode_frame(payload.message, context))
        if len(frame) > codec.HEADER_SIZE:
            index = self.plane.randrange(self.node_id, dst_id,
                                         codec.HEADER_SIZE, len(frame))
            frame[index] ^= 0xFF
        return bytes(frame)


__all__ = [
    "HEALTHY",
    "ChaosConnectionPool",
    "FaultPlane",
    "FramePlan",
    "LinkFaults",
]
