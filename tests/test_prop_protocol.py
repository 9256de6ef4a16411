"""Property-based tests over whole-system runs.

Each property drives a randomly generated workload (and, where relevant,
adversary placement) through a full deployment and asserts the paper's
core invariants:

* **Safety of double-checked reads**: a read confirmed against a master
  is never wrong.
* **Detectability**: every wrongly accepted read corresponds to an audit
  detection (nothing escapes unnoticed with full auditing).
* **Replica convergence**: after quiescence all masters and fresh slaves
  hold identical state, whatever the write interleaving.
* **Consistency window**: no accepted read violates the max_latency
  bound.

Runs are capped small (deadline=None, few examples) because each example
simulates a full distributed system.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import ProbabilisticLie
from repro.core.config import ProtocolConfig
from repro.core.oracle import ownership_violations
from repro.sim.failures import ScheduledFault

from .conftest import make_system

# Compact op encoding: ("read"|"write", key_index, value).
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["read", "read", "read", "write"]),
              st.integers(min_value=0, max_value=19),
              st.integers(min_value=0, max_value=99)),
    min_size=5, max_size=40,
)

TRUSTED = ("master-00", "master-01", "master-02", "zz-auditor-00")


def one_at_a_time(faults):
    """(node, seconds up since the previous recovery, seconds down) ->
    the ``ScheduledFault`` values, each crash after the last recovery."""
    script, at = [], 0.0
    for node_id, up_for, down_for in faults:
        script.append(ScheduledFault(node_id, at + up_for, down_for))
        at += up_for + down_for
    return script


# Benign crashes in the trusted set, one after another, as the fault
# values ``repro-sim run --crash`` and ``FailureInjector.apply_script``
# take.  Three masters and an auditor need three for a majority, so one
# member down at a time is what the broadcast promises to ride out;
# with two down at once (``two_down_strategy``) it promises safety, and
# convergence once both are back.
faults_strategy = st.lists(
    st.tuples(st.sampled_from(TRUSTED),
              st.floats(min_value=0.0, max_value=8.0),
              st.floats(min_value=0.05, max_value=12.0)),
    max_size=4,
).map(one_at_a_time)


def two_at_a_time(rounds):
    """(pair, seconds up since the previous round, the first's outage,
    seconds from the first crash to the second, the second's outage) ->
    the ``ScheduledFault`` values: two outages that overlap, each round
    after both of the last round's recoveries."""
    script, at = [], 0.0
    for (first, second), up_for, down_for, gap, second_down in rounds:
        start = at + up_for
        second_at = start + min(gap, down_for / 2)
        script += [ScheduledFault(first, start, down_for),
                   ScheduledFault(second, second_at, second_down)]
        at = max(start + down_for, second_at + second_down)
    return script


def _pairs(with_sequencer):
    return [(a, b) for a in TRUSTED for b in TRUSTED
            if a != b and ("master-00" in (a, b)) == with_sequencer]


# Two trusted servers down at once, in one or two rounds, the second
# crash often inside the suspicion window of the first.  Half the
# examples take master-00, the sequencer, in every round.
two_down_strategy = st.booleans().flatmap(lambda sequencer: st.lists(
    st.tuples(st.sampled_from(_pairs(sequencer)),
              st.floats(min_value=0.0, max_value=8.0),
              st.floats(min_value=0.5, max_value=12.0),
              st.floats(min_value=0.0, max_value=3.0),
              st.floats(min_value=0.5, max_value=12.0)),
    min_size=1, max_size=2)).map(two_at_a_time)

AUDITORS = ("zz-auditor-00", "zz-auditor-01")
TWO_AUDITORS = (*TRUSTED, "zz-auditor-01")

# The same one-at-a-time crashes over three masters and two auditors.
two_auditor_faults = st.lists(
    st.tuples(st.sampled_from(TWO_AUDITORS),
              st.floats(min_value=0.0, max_value=8.0),
              st.floats(min_value=0.05, max_value=12.0)),
    max_size=4,
).map(one_at_a_time)

slow_settings = settings(max_examples=10, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def run_workload(system, ops, spacing=0.4):
    t = system.now
    for index, (kind, key_index, value) in enumerate(ops):
        t += spacing
        client = system.clients[index % len(system.clients)]
        if kind == "read":
            system.schedule_op(client, t, KVGet(key=f"k{key_index:03d}"))
        else:
            system.schedule_op(client, t,
                               KVPut(key=f"k{key_index:03d}", value=value))
    # Generous drain: writes are spaced max_latency apart server-side.
    writes = sum(1 for kind, _k, _v in ops if kind == "write")
    system.run_for(len(ops) * spacing
                   + writes * system.config.max_latency + 60.0)


def crashed_run(faults, ops, seed=0, keepalive_interval=0.5,
                num_auditors=1):
    """Three masters, ``num_auditors`` auditors and four clients under
    ``faults`` (applied at start) while ``ops`` go out 0.6 s apart from
    the clients in turn: the system after 300 s, and every write's
    outcome."""
    system = make_system(
        seed=seed, num_masters=3, num_clients=4, num_auditors=num_auditors,
        protocol=ProtocolConfig(max_latency=2.0,
                                keepalive_interval=keepalive_interval,
                                request_timeout=2.0,
                                double_check_probability=0.1))
    system.start()
    system.failures.apply_script(faults, {
        node.node_id: node for node in (*system.masters, *system.auditors)})
    outcomes = []
    t = system.now
    for index, (kind, key_index, value) in enumerate(ops):
        t += 0.6
        client, key = system.clients[index % 4], f"k{key_index:03d}"
        if kind == "write":
            system.schedule_op(client, t, KVPut(key=key, value=value),
                               callback=outcomes.append)
        else:
            system.schedule_op(client, t, KVGet(key=key))
    system.run_for(300.0)
    return system, outcomes


def armed_timers(system):
    """Pending events that are timers, not messages in flight (whose
    number depends on where in its round a restarted node is)."""
    return sum(1 for _at, _seq, handle, callback, _args
               in system.simulator._queue
               if not handle.cancelled
               and callback != system.network._deliver)


class TestProtocolProperties:
    @slow_settings
    @given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=10**6))
    def test_replicas_converge_and_reads_correct(self, ops, seed):
        system = make_system(seed=seed, protocol=ProtocolConfig(
            max_latency=2.0, keepalive_interval=0.5,
            double_check_probability=0.1))
        system.start()
        run_workload(system, ops)
        # Convergence of trusted replicas.
        digests = {m.store.state_digest() for m in system.masters}
        assert len(digests) == 1
        # Fresh slaves converge too.
        for slave in system.slaves:
            assert slave.store.state_digest() in digests
        # All honest: every accepted read correct, window respected.
        result = system.classify_accepted_reads()
        assert result["accepted_wrong"] == 0
        assert system.check_consistency_window() == []
        # Auditor never lags forever.
        assert system.auditor.pledges_audited == \
            system.auditor.pledges_received

    @slow_settings
    @given(ops=ops_strategy,
           liar_index=st.integers(min_value=0, max_value=3),
           lie_rate=st.floats(min_value=0.2, max_value=1.0),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_lies_never_survive_unnoticed(self, ops, liar_index, lie_rate,
                                          seed):
        system = make_system(seed=seed, protocol=ProtocolConfig(
            max_latency=2.0, keepalive_interval=0.5,
            double_check_probability=0.2),
            adversaries={liar_index: ProbabilisticLie(
                lie_rate, rng=random.Random(seed))})
        system.start()
        run_workload(system, ops)
        result = system.classify_accepted_reads()
        # Invariant 1: double-checked accepts are never wrong.
        for record in result["wrong_records"]:
            assert not record["double_checked"]
        # Invariant 2: full audit sees every wrongly accepted read.
        assert system.auditor.detections >= result["accepted_wrong"]
        # Invariant 3: if anything wrong was accepted, the slave was
        # excluded by the end of the (long) drain.
        if result["accepted_wrong"] > 0:
            assert system.metrics.count("exclusions") >= 1

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=10**6),
           crash_master=st.integers(min_value=0, max_value=2),
           crash_at=st.floats(min_value=5.0, max_value=20.0),
           ops=ops_strategy)
    def test_safety_survives_any_single_master_crash(self, seed,
                                                     crash_master,
                                                     crash_at, ops):
        system = make_system(
            seed=seed, num_masters=3, num_clients=4,
            protocol=ProtocolConfig(max_latency=2.0,
                                    keepalive_interval=0.5,
                                    double_check_probability=0.1))
        system.start()
        system.failures.crash_at(system.masters[crash_master],
                                 system.now + crash_at)
        run_workload(system, ops, spacing=0.6)
        system.run_for(120.0)
        survivors = [m for m in system.masters if not m.crashed]
        digests = {m.store.state_digest() for m in survivors}
        assert len(digests) == 1
        result = system.classify_accepted_reads()
        assert result["accepted_wrong"] == 0
        assert system.check_consistency_window() == []

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=10**6),
           faults=faults_strategy, ops=ops_strategy)
    def test_trusted_set_rides_out_crashes(self, seed, faults, ops):
        """Whichever trusted server crashes and recovers, one at a
        time, and whenever: every submitted write commits exactly once,
        the trusted servers converge -- content and slave ownership --
        and every node is left with exactly the timers an unfaulted run
        of the same length ends with -- no chain lost to a crash, none
        doubled by a recovery."""
        system, outcomes = crashed_run(faults, ops, seed)
        writes = sum(1 for kind, _k, _v in ops if kind == "write")
        assert [o["status"] for o in outcomes] == ["committed"] * writes
        trusted = [*system.masters, *system.auditors]
        assert not any(node.crashed for node in trusted)
        assert [node.version for node in trusted] == [writes] * 4
        assert len({node.store.state_digest() for node in trusted}) == 1
        assert ownership_violations(trusted, system.slaves,
                                    system.clients) == []
        assert system.classify_accepted_reads()["accepted_wrong"] == 0
        assert system.check_consistency_window() == []
        unfaulted, _outcomes = crashed_run([], ops, seed)
        assert armed_timers(system) == armed_timers(unfaulted)

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=10**6),
           faults=two_auditor_faults,
           last=st.sampled_from((None, *AUDITORS)), ops=ops_strategy)
    def test_every_client_forwards_to_a_live_auditor(self, seed, faults,
                                                     last, ops):
        """Two auditors; masters and auditors crash and recover one at a
        time, and maybe one auditor stays down at the end: every write
        commits once, the live trusted servers converge, and every ready
        client forwards to an auditor that is up and that every live
        master names (a client failed over twice was left on a dead
        one)."""
        if last is not None:
            end = max((f.at + f.duration for f in faults), default=0.0)
            faults = [*faults, ScheduledFault(last, end + 1.0)]
        system, outcomes = crashed_run(faults, ops, seed, num_auditors=2)
        writes = sum(1 for kind, _k, _v in ops if kind == "write")
        assert [o["status"] for o in outcomes] == ["committed"] * writes
        trusted = [*system.masters, *system.auditors]
        live = [node for node in trusted if not node.crashed]
        assert [node.node_id for node in trusted if node.crashed] == (
            [] if last is None else [last])
        assert {node.version for node in live} == {writes}
        assert len({node.store.state_digest() for node in live}) == 1
        assert ownership_violations(trusted, system.slaves,
                                    system.clients) == []
        assert system.classify_accepted_reads()["accepted_wrong"] == 0
        assert system.check_consistency_window() == []


#: 24 operations 0.6 s apart, every third a write (8 writes on 5 keys).
OVERLAPPING_OPS = [("write" if i % 3 == 2 else "read", i % 5, i)
                   for i in range(24)]


class TestOverlappingCrashes:
    """Two trusted servers down at once (ROADMAP item 12).  Three
    masters and an auditor need three for a majority, so the broadcast
    promises no liveness while both are down; safety must still hold,
    and convergence once everyone is back.  Keep-alives 1 s."""

    def test_stale_trust_after_an_overlapping_crash(self):
        """master-02 down from +4 s for 12 s and master-01 from +8 s for
        5 s: master-00 abdicates at 2 of 4 reachable and must stay
        leaderless -- a peer naming it does not make it sequencer again
        -- so no read is accepted outside its window (client-03's r3 and
        r4 were, 2.16 s after the commit they miss)."""
        system, _outcomes = crashed_run(
            [ScheduledFault("master-02", 4.0, 12.0),
             ScheduledFault("master-01", 8.0, 5.0)],
            OVERLAPPING_OPS, keepalive_interval=1.0)
        assert system.check_consistency_window() == []

    def test_sequencer_and_auditor_down_together_fork_the_order(self):
        """master-00 (the sequencer) down from +6.7 s for 5 s and the
        auditor from +8 s for 5 s: no member orders while only two are
        up, and the recovered master-00 orders only after merging a
        majority's histories, so every slot is held once -- one digest
        at version 8 (the versions ended at [6, 7, 7, 6])."""
        system, _outcomes = crashed_run(
            [ScheduledFault("master-00", 6.7, 5.0),
             ScheduledFault("zz-auditor-00", 8.0, 5.0)],
            OVERLAPPING_OPS, keepalive_interval=1.0)
        trusted = [*system.masters, *system.auditors]
        assert len({node.store.state_digest() for node in trusted}) == 1
        assert [node.version for node in trusted] == [8] * 4

    def test_a_replay_does_not_hold_back_the_next_write(self):
        """master-01 down from +1 s for 8 s and master-02 from +3 s for
        4 s, then both down for 1 s at +9 s: master-02 comes back behind
        the new regime and replays what it missed at once.  The next
        live write must not then wait a max_latency behind that replay
        (it committed 2 s after the sequencer's, and client-03's r3 was
        accepted outside its window)."""
        system, _outcomes = crashed_run(
            [ScheduledFault("master-01", 1.0, 8.0),
             ScheduledFault("master-02", 3.0, 4.0),
             ScheduledFault("master-01", 9.0, 1.0),
             ScheduledFault("master-02", 9.0, 1.0)],
            OVERLAPPING_OPS, keepalive_interval=1.0)
        assert system.check_consistency_window() == []

    @slow_settings
    @given(seed=st.integers(min_value=0, max_value=10**6),
           faults=two_down_strategy)
    def test_two_down_at_once_forks_and_loses_nothing(self, seed, faults):
        """Any two trusted servers down together, once or twice: one
        order, no read accepted outside its window, and -- once all are
        back -- one version that holds every write acknowledged
        committed, and every slave served by one master all agree on."""
        system, outcomes = crashed_run(faults, OVERLAPPING_OPS, seed,
                                       keepalive_interval=1.0)
        trusted = [*system.masters, *system.auditors]
        assert not any(node.crashed for node in trusted)
        assert len({node.store.state_digest() for node in trusted}) == 1
        assert ownership_violations(trusted, system.slaves,
                                    system.clients) == []
        assert system.classify_accepted_reads()["accepted_wrong"] == 0
        assert system.check_consistency_window() == []
        versions = {node.version for node in trusted}
        assert len(versions) == 1
        acknowledged = sum(1 for o in outcomes if o["status"] == "committed")
        assert versions.pop() >= acknowledged
