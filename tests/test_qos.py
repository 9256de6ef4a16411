"""Unit and property tests for the repro.qos admission primitives.

Covers the pure building blocks the serving plane's overload story
hangs off:

* :class:`TokenBucket` -- refill monotonicity, the burst ceiling, and
  determinism of shed decisions (property-based);
* :class:`ClientAdmission` -- shed reasons and strike-driven penalties;
* :class:`InboundQueue` -- oldest-first eviction, the protected-never-
  shed invariant, and protected overflow accounting;
* :class:`CircuitBreaker` -- the closed/open/half-open machine,
  including half-open probe success and failure;
* knob validation on :class:`AdmissionPolicy` and the ``qos_*`` fields
  of :class:`ProtocolConfig`.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.qos import breaker as breaker_module
from repro.qos.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.qos.queue import InboundQueue
from repro.qos.tokens import AdmissionPolicy, ClientAdmission, TokenBucket

# ---------------------------------------------------------------------------
# TokenBucket properties
# ---------------------------------------------------------------------------

rates = st.floats(min_value=0.1, max_value=1000.0,
                  allow_nan=False, allow_infinity=False)
bursts = st.floats(min_value=0.5, max_value=500.0,
                   allow_nan=False, allow_infinity=False)
gaps = st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50)


@given(rate=rates, burst=bursts, gap=st.floats(min_value=0.0, max_value=5.0,
                                               allow_nan=False))
def test_refill_monotone_in_elapsed_time(rate, burst, gap):
    """Waiting longer never yields fewer tokens from the same state."""
    short = TokenBucket(rate, burst, now=0.0)
    long = TokenBucket(rate, burst, now=0.0)
    short.try_consume(0.0, cost=burst)  # drain both to zero
    long.try_consume(0.0, cost=burst)
    assert short.refill(gap) <= long.refill(gap + 1.0)


@given(rate=rates, burst=bursts, gaps=gaps)
def test_burst_ceiling_never_exceeded(rate, burst, gaps):
    """No refill schedule pushes the level above ``burst``."""
    bucket = TokenBucket(rate, burst, now=0.0)
    now = 0.0
    for gap in gaps:
        now += gap
        level = bucket.refill(now)
        assert level <= burst + 1e-9
        # Interleave consumption so the walk covers partial levels too.
        bucket.try_consume(now, cost=min(1.0, burst / 2))


@given(rate=rates, burst=bursts, gaps=gaps, seed=st.integers(0, 2**32 - 1))
def test_seeded_decisions_are_deterministic(rate, burst, gaps, seed):
    """Two admissions fed the same clock replay identical decisions."""
    policy = AdmissionPolicy(frame_rate=rate, frame_burst=burst)
    first = ClientAdmission(policy, now=0.0)
    second = ClientAdmission(policy, now=0.0)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    now = 0.0
    for gap in gaps:
        now += gap
        assert first.admit(now, 64.0, rng_a, policy) == \
            second.admit(now, 64.0, rng_b, policy)


@given(rate=rates,
       burst=st.floats(min_value=1.0, max_value=500.0, allow_nan=False))
def test_steady_state_admits_at_rate(rate, burst):
    """After the burst drains, admissions settle at ~rate per second.

    ``burst`` is drawn >= the unit cost: a ceiling below the cost of a
    single frame (a misconfiguration) admits nothing at any rate.
    """
    bucket = TokenBucket(rate, burst, now=0.0)
    bucket.try_consume(0.0, cost=burst)  # spend the initial burst
    admitted = sum(
        bucket.try_consume(step / 100.0) for step in range(1, 1001))
    # 10 simulated seconds at ``rate``/s.  Upper bound: the refill can
    # never mint more than rate * elapsed.  Lower bound: from an empty
    # bucket one admission needs at most ceil(cost / (rate * dt)) steps
    # (+1 for float rounding in the refill sum), even when a tight
    # ``burst`` ceiling (== the unit cost) discards the fractional
    # carryover at every cycle.
    assert admitted <= rate * 10.0 + 1
    assert admitted >= 1000 // (math.ceil(100.0 / rate) + 1)


def test_bucket_rejects_bad_knobs():
    with pytest.raises(ValueError):
        TokenBucket(0.0, 10.0, now=0.0)
    with pytest.raises(ValueError):
        TokenBucket(1.0, -1.0, now=0.0)


def test_penalize_floors_at_negative_burst():
    bucket = TokenBucket(10.0, 5.0, now=0.0)
    for _ in range(100):
        bucket.penalize(3.0)
    assert bucket.tokens == -5.0
    # The deficit delays recovery: a full second at rate 10 only climbs
    # back to +5 (the ceiling), and the first admit waits for > 0.5s.
    assert not bucket.try_consume(0.4)
    assert bucket.try_consume(1.0)


# ---------------------------------------------------------------------------
# ClientAdmission
# ---------------------------------------------------------------------------


def test_admit_reports_rate():
    policy = AdmissionPolicy(frame_rate=1.0, frame_burst=2.0)
    client = ClientAdmission(policy, now=0.0)
    rng = random.Random(0)
    assert client.admit(0.0, 10.0, rng, policy) is None
    assert client.admit(0.0, 10.0, rng, policy) is None
    assert client.admit(0.0, 10.0, rng, policy) == "rate"
    # Frames refill; a frame's size is not charged.
    assert client.admit(10.0, 1e9, rng, policy) is None


def test_strike_burns_frame_tokens():
    policy = AdmissionPolicy(frame_rate=1.0, frame_burst=2.0)
    client = ClientAdmission(policy, now=0.0)
    client.strike()
    client.strike()
    assert client.strikes == 2
    assert client.frames is not None and client.frames.tokens == 0.0
    assert client.admit(0.0, 8.0, random.Random(0), policy) == "rate"


def _admitted(policy, offered_per_s, seconds=10.0):
    """Frames admitted from one sender offering at a fixed rate."""
    client = ClientAdmission(policy, now=0.0)
    rng = random.Random(0)
    return sum(
        client.admit(step / offered_per_s, 64.0, rng, policy) is None
        for step in range(int(offered_per_s * seconds)))


def test_sender_within_quota_is_never_shed():
    # The flash_crowd scenario's budget and its honest trickle.
    policy = AdmissionPolicy(frame_rate=15.0, frame_burst=20.0)
    assert _admitted(policy, 10.0) == 100
    assert _admitted(policy, 15.0) == 150


def test_sender_over_quota_is_served_below_it():
    """Exceeding a quota is not free: each shed frame burns
    ``STRIKE_COST`` tokens, so a sender that keeps offering twice its
    rate gets its burst and then nothing, not ``rate`` per second (a
    plain token bucket would settle at the burst plus 15/s: ~170)."""
    policy = AdmissionPolicy(frame_rate=15.0, frame_burst=20.0)
    # 20 tokens drained at a net half token per offer, then every shed
    # frame pushes the level back down faster than the refill lifts it.
    assert 20 <= _admitted(policy, 30.0) <= 40


def test_lockout_ends_a_bounded_time_after_backing_off():
    policy = AdmissionPolicy(frame_rate=10.0, frame_burst=5.0)
    client = ClientAdmission(policy, now=0.0)
    rng = random.Random(0)
    for _ in range(100):  # far over quota, all at once
        client.admit(0.0, 64.0, rng, policy)
    assert client.frames is not None and client.frames.tokens == -5.0
    # (burst + 1) / rate = 0.6 s of silence buys the next admission.
    assert client.admit(0.5, 64.0, rng, policy) == "rate"
    assert client.admit(0.5 + 0.6, 64.0, rng, policy) is None


# ---------------------------------------------------------------------------
# InboundQueue
# ---------------------------------------------------------------------------


def test_queue_sheds_oldest_unprotected_first():
    queue = InboundQueue(limit=3)
    for item in ("a", "b", "c"):
        assert queue.put(item) is None
    assert queue.put("d") == "a"
    assert queue.shed == 1
    assert [queue.get() for _ in range(3)] == ["b", "c", "d"]


def test_queue_never_sheds_protected_entries():
    queue = InboundQueue(limit=2)
    queue.put("ka1", protected=True)
    queue.put("plain")
    # Full: the unprotected entry goes, not the older keep-alive.
    assert queue.put("ka2", protected=True) == "plain"
    # Full of protected traffic: an unprotected arrival sheds itself...
    assert queue.put("late") == "late"
    assert queue.shed == 2
    # ...but a protected arrival is admitted past the limit.
    assert queue.put("ka3", protected=True) is None
    assert queue.protected_overflow == 1
    assert len(queue) == 3
    assert [queue.get() for _ in range(3)] == ["ka1", "ka2", "ka3"]


def test_queue_get_empty_and_clear():
    queue = InboundQueue(limit=1)
    assert queue.get() is None
    queue.put("x")
    queue.clear()
    assert len(queue) == 0 and queue.get() is None
    with pytest.raises(ValueError):
        InboundQueue(limit=0)


@given(st.lists(st.tuples(st.integers(0, 999), st.booleans()),
                min_size=1, max_size=200),
       st.integers(min_value=1, max_value=8))
def test_queue_protected_survival_property(entries, limit):
    """Whatever the arrival order, every protected entry is delivered."""
    queue = InboundQueue(limit=limit)
    protected_in = []
    for index, (value, protected) in enumerate(entries):
        item = (index, value)
        if protected:
            protected_in.append(item)
        queue.put(item, protected=protected)
    drained = []
    while (item := queue.get()) is not None:
        drained.append(item)
    assert [item for item in drained if item in protected_in] \
        == protected_in


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


@pytest.fixture
def make_breaker(monkeypatch):
    def make(threshold=2, reset=1.0, probes=1):
        monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", threshold)
        monkeypatch.setattr(breaker_module, "RESET_TIMEOUT", reset)
        monkeypatch.setattr(breaker_module, "HALF_OPEN_MAX", probes)
        return CircuitBreaker()
    return make


def test_breaker_trips_after_threshold_failures(make_breaker):
    breaker = make_breaker(threshold=3)
    for _ in range(2):
        breaker.record_failure(0.0)
        assert breaker.state == CLOSED and breaker.allow(0.0)
    breaker.record_failure(0.0)
    assert breaker.state == OPEN
    assert not breaker.allow(0.5)
    assert breaker.trips == 1


def test_breaker_success_resets_failure_streak(make_breaker):
    breaker = make_breaker(threshold=2)
    breaker.record_failure(0.0)
    breaker.record_success(0.1)
    breaker.record_failure(0.2)
    assert breaker.state == CLOSED  # streak broken, one more needed


def test_half_open_probe_success_closes(make_breaker):
    breaker = make_breaker(reset=1.0, probes=1)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.state == OPEN
    # Past the reset timeout: exactly half_open_max probes get through.
    assert breaker.allow(1.5)
    assert breaker.state == HALF_OPEN
    assert not breaker.allow(1.6)
    breaker.record_success(1.7)
    assert breaker.state == CLOSED and breaker.allow(1.8)


def test_half_open_probe_failure_reopens(make_breaker):
    breaker = make_breaker(reset=1.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.5) and breaker.state == HALF_OPEN
    breaker.record_failure(1.6)
    assert breaker.state == OPEN and breaker.trips == 2
    # The new open window counts from the re-trip, not the first one.
    assert not breaker.allow(2.4)
    assert breaker.allow(2.7)


# ---------------------------------------------------------------------------
# Knob validation
# ---------------------------------------------------------------------------


def test_admission_policy_validation():
    assert not AdmissionPolicy().limits_frames
    assert AdmissionPolicy(frame_rate=10.0).limits_frames
    for bad in (dict(frame_rate=0.0),
                dict(frame_burst=0.0), dict(idle_timeout=0.0)):
        with pytest.raises(ValueError):
            AdmissionPolicy(**bad)


def test_protocol_config_qos_knob_validation():
    config = ProtocolConfig(qos_frame_rate=50.0, qos_idle_multiple=10.0)
    assert config.qos_frame_rate == 50.0
    for bad in (dict(qos_frame_rate=0.0), dict(qos_frame_burst=0.0),
                dict(qos_idle_multiple=0.0)):
        with pytest.raises(ValueError):
            ProtocolConfig(**bad)
