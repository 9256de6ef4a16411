"""The discrete-event core: a virtual clock and an ordered event queue.

Design notes
------------
* Time is a float in *seconds* of simulated time.  All protocol constants
  (``max_latency``, keep-alive intervals, audit lag) are expressed in the
  same unit, so the paper's inequalities transfer literally.
* Events scheduled for the same instant fire in scheduling order
  (a monotonically increasing sequence number breaks ties), which keeps
  runs deterministic without hidden ordering assumptions.
* Callbacks may schedule further events, including at the current time;
  the loop processes them before advancing the clock.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only (obs is optional)
    from repro.crypto.keys import KeyPair
    from repro.crypto.signatures import Signature
    from repro.obs.spans import ObsRuntime
    from repro.obs.context import TraceContext


def restore_context(obs: "ObsRuntime", context: "TraceContext | None",
                    callback: Callable[..., None],
                    args: tuple[Any, ...]) -> None:
    """Fire ``callback(*args)`` with ``context`` as the active trace.

    This is the whole in-process propagation mechanism: schedulers
    capture ``obs.current`` at schedule time and splice this shim in
    front of the callback, so causality follows the event graph with no
    per-call-site plumbing.  Module-level (not a closure) to keep the
    queue entries picklable-shaped and allocation-free beyond the args
    tuple.
    """
    previous = obs.current
    obs.current = context
    try:
        callback(*args)
    finally:
        obs.current = previous


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("cancelled", "fire_at")

    def __init__(self, fire_at: float) -> None:
        self.cancelled = False
        self.fire_at = fire_at

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Seeds the simulator's own :attr:`rng`.  Components needing
        independent randomness should call :meth:`fork_rng` so that adding
        a component never perturbs another component's random stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, EventHandle, Callable[..., None], tuple]] = []
        self._counter = itertools.count()
        self._seed = seed
        self.rng = random.Random(seed)
        self._fork_counter = itertools.count(1)
        self.events_processed = 0
        #: Optional observability runtime (repro.obs).  ``None`` --
        #: the default -- keeps the schedule path allocation-free; the
        #: guard below is the subsystem's only disabled-mode cost.
        self.obs: "ObsRuntime | None" = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def fork_rng(self, label: str = "") -> random.Random:
        """Derive an independent, reproducible random stream.

        Streams are keyed by fork order and an optional label; forking in
        a fixed order (as system construction does) yields fixed streams.
        """
        index = next(self._fork_counter)
        return random.Random(f"{self._seed}/{index}/{label}")

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        obs = self.obs
        if obs is not None and obs.current is not None:
            args = (obs, obs.current, callback, args)
            callback = restore_context
        fire_at = self._now + delay
        handle = EventHandle(fire_at)
        heapq.heappush(self._queue, (fire_at, next(self._counter), handle,
                                     callback, args))
        return handle

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        return self.schedule(when - self._now, callback, *args)

    def sign_batch(self, keys: "KeyPair", payloads: list[bytes],
                   then: Callable[[list["Signature"]], None]) -> None:
        """Sign ``payloads`` with ``keys``, then ``then(signatures)``.

        Here both happen at once, in the caller's event: the simulator
        charges signing as modelled service time, not as wall time.  A
        socket runtime may sign elsewhere and call ``then`` later.
        """
        then(keys.sign_many(payloads))

    def run_until(self, deadline: float) -> None:
        """Process events with fire time <= ``deadline``; clock ends there.

        The clock is advanced to ``deadline`` even if the queue drains
        early, so periodic processes restarted afterwards resume from a
        well-defined time.
        """
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is before current time {self._now}"
            )
        while self._queue and self._queue[0][0] <= deadline:
            fire_at, _seq, handle, callback, args = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = fire_at
            self.events_processed += 1
            callback(*args)
        self._now = deadline

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.run_until(self._now + duration)

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Drain the queue entirely (bounded by ``max_events`` as a fuse)."""
        processed = 0
        while self._queue:
            fire_at, _seq, handle, callback, args = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = fire_at
            self.events_processed += 1
            callback(*args)
            processed += 1
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a runaway periodic process"
                )

    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events; O(n)."""
        return sum(1 for (_t, _s, handle, _c, _a) in self._queue
                   if not handle.cancelled)
