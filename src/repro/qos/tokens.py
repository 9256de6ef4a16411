"""Token buckets and per-client wire admission.

:class:`TokenBucket` is the paper's Section 3.3 greedy-client allowance,
extracted from ``repro.core.master`` so the same refill arithmetic
serves both the protocol-level double-check quota and the wire-level
per-client rate limits in :class:`repro.net.server.NodeServer`.

The bucket is a pure function of its call sequence: time is always an
explicit ``now`` argument (simulated seconds under the discrete-event
scheduler, loop time under the socket runtime), so simulated runs stay
deterministic and property tests can drive it with synthetic clocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class TokenBucket:
    """A refilling allowance: ``rate`` tokens/s up to ``burst`` deep.

    ``try_consume`` refills lazily from the elapsed time since the last
    call, so an idle client regains its full burst and a steady client
    settles at exactly ``rate`` admissions per second.  ``penalize``
    burns tokens without admitting anything (strike-driven deductions
    for malformed and over-quota traffic); the level may go as far
    negative as one burst, extending the shed window for repeat
    offenders without letting a single strike lock a client out forever.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be positive, got {rate}/{burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def refill(self, now: float) -> float:
        """Advance the bucket to ``now``; returns the token level."""
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated_at) * self.rate)
        self.updated_at = now
        return self.tokens

    def try_consume(self, now: float, cost: float = 1.0) -> bool:
        """Admit one request of ``cost`` tokens if the allowance covers it."""
        self.refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def penalize(self, cost: float) -> None:
        """Burn ``cost`` tokens (floored at ``-burst``) without admitting."""
        self.tokens = max(-self.burst, self.tokens - cost)


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """Wire-level admission knobs for one node's listener.

    A ``None`` ``frame_rate`` disables the bucket; the policy still
    buys (when ``idle_timeout`` is set) the idle-connection reaper.
    """

    #: Sustained protocol messages/s admitted per client connection.
    frame_rate: float | None = None
    frame_burst: float = 200.0
    #: Seconds the listener stalls an over-quota connection's reader
    #: per shed frame (0 disables).  Shedding alone still pays decode
    #: for every flooded frame; the stall turns the shed into TCP
    #: backpressure, so a greedy client's pipeline slows at the source
    #: instead of arriving as synchronized retry waves.  Only the
    #: offending connection is delayed -- other peers' connections
    #: (and the keep-alives riding them) are unaffected.
    shed_penalty: float = 0.05
    #: Abort a handshaked-but-silent connection after this many seconds
    #: (deployments derive it as a multiple of ``keepalive_interval``).
    idle_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.frame_rate is not None and self.frame_rate <= 0:
            raise ValueError(
                f"frame_rate must be positive, got {self.frame_rate}")
        if self.frame_burst <= 0:
            raise ValueError(
                f"frame_burst must be positive, got {self.frame_burst}")
        if self.shed_penalty < 0:
            raise ValueError(
                f"shed_penalty must be >= 0, got {self.shed_penalty}")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive, got {self.idle_timeout}")

    @property
    def limits_frames(self) -> bool:
        return self.frame_rate is not None


#: Frame tokens burned per rejected, oversized or shed frame, so repeat
#: offenders drain their own allowance: a sender that keeps offering
#: above its quota is served *below* it until it backs off (the bucket
#: floors at ``-burst``, so the lock-out ends ``(burst + 1) / rate``
#: seconds after the last shed frame).  A sender within its quota is
#: never shed and never pays this.
STRIKE_COST = 1.0


class ClientAdmission:
    """One client's wire admission state: bucket plus strike count."""

    __slots__ = ("frames", "strikes")

    def __init__(self, policy: AdmissionPolicy, now: float) -> None:
        self.frames = (None if policy.frame_rate is None else
                       TokenBucket(policy.frame_rate, policy.frame_burst,
                                   now))
        self.strikes = 0

    def admit(self, now: float, size: float, rng: random.Random | None,
              policy: AdmissionPolicy) -> str | None:
        """Charge one frame; returns the shed reason (``"rate"``) or
        ``None`` when admitted.  Only ``now`` is read: ``size``, ``rng``
        and ``policy`` stay for the benchmark kernel that passes them (a
        frame is bounded by ``MAX_FRAME_BYTES``, and every over-quota
        frame is shed).

        A shed frame burns :data:`STRIKE_COST` frame tokens like a
        rejected one: per-client quotas only protect a listener if
        exceeding one is not free (six clients each *held to* 15 bulk
        reads/s still add up to a saturated core).
        """
        if self.frames is None or self.frames.try_consume(now):
            return None
        self.frames.penalize(STRIKE_COST)
        return "rate"

    def strike(self) -> None:
        """Record one rejected/oversized frame from this client."""
        self.strikes += 1
        if self.frames is not None:
            self.frames.penalize(STRIKE_COST)


__all__ = ["AdmissionPolicy", "ClientAdmission", "TokenBucket"]
