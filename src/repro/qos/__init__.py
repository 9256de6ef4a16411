"""Admission control and overload survival for the serving plane.

The paper's only load-shedding mechanism is Section 3.3's greedy-client
token bucket, applied by masters to double-check requests ("simply
ignoring" statistically greedy clients).  This package grows that seed
into a reusable serving-plane layer, wired through :mod:`repro.net`,
:mod:`repro.chaos` and :mod:`repro.obs`:

* :mod:`repro.qos.tokens` -- the extracted :class:`TokenBucket` plus
  per-client wire admission (a frames/s bucket, strike penalties for
  malformed and over-quota traffic);
* :mod:`repro.qos.breaker` -- per-peer circuit breaker
  (closed -> open -> half-open) wrapping the connection pool's retry
  budget so dead peers stop consuming it.

Every class here is pure and deterministic: clocks are passed in as
``now`` arguments, so the same call sequence replays the same
decisions.  The asyncio wiring lives in :mod:`repro.net`.
"""

from repro.qos.breaker import BreakerPolicy, CircuitBreaker
from repro.qos.tokens import AdmissionPolicy, ClientAdmission, TokenBucket

__all__ = [
    "AdmissionPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "ClientAdmission",
    "TokenBucket",
]
