"""Per-peer circuit breaking for the outbound connection pool.

The pool's retry budget (:data:`~repro.net.transport.MAX_ATTEMPTS`)
bounds how hard one *frame batch* tries; it says nothing about how hard
the pool keeps trying against a peer that has been dead for seconds.  Without a
breaker, every queued batch to a crashed host burns the full retry
budget (connect timeouts, backoff sleeps) before being dropped --
budget that live peers' traffic then waits behind.

:class:`CircuitBreaker` is the classic three-state machine:

* ``closed``    -- deliveries flow; consecutive delivery failures are
  counted, and :data:`FAILURE_THRESHOLD` of them trip the breaker;
* ``open``      -- sends are refused outright (the caller drops the
  frame immediately, spending zero retry budget) until
  :data:`RESET_TIMEOUT` has elapsed;
* ``half_open`` -- up to :data:`HALF_OPEN_MAX` probe deliveries are
  allowed through; the first success closes the breaker, the first
  failure re-opens it for another :data:`RESET_TIMEOUT`.

Pure and deterministic: the clock is always an explicit ``now``.
"""

from __future__ import annotations

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive delivery failures (each one a fully exhausted retry
#: budget) before the breaker opens.
FAILURE_THRESHOLD = 2
#: Seconds an open breaker refuses sends before probing again.
RESET_TIMEOUT = 1.0
#: Probe deliveries allowed through a half-open breaker.
HALF_OPEN_MAX = 1


class CircuitBreaker:
    """One peer's breaker state (see module docstring for the machine)."""

    __slots__ = ("state", "failures", "opened_at", "probes", "trips")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probes = 0
        #: Lifetime count of closed/half-open -> open transitions.
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May a delivery be attempted right now?

        An open breaker past its reset timeout transitions to half-open
        as a side effect, so callers need no separate tick.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < RESET_TIMEOUT:
                return False
            self.state = HALF_OPEN
            self.probes = 0
        if self.probes < HALF_OPEN_MAX:
            self.probes += 1
            return True
        return False

    def record_success(self, now: float) -> None:
        """A delivery went through: close and forget past failures."""
        del now  # symmetry with record_failure; the clock is not needed
        self.state = CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        """A delivery exhausted its retry budget."""
        if self.state == HALF_OPEN:
            self._trip(now)
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= FAILURE_THRESHOLD:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.opened_at = now
        self.failures = 0
        self.trips += 1


__all__ = ["CLOSED", "CircuitBreaker", "HALF_OPEN", "OPEN"]
