"""Regression tests: a recovered master must not serve stale trust.

Distilled from the soak test: a master that crashes through several
writes and recovers is *behind* until the broadcast repair finishes.  In
that window it must not (a) sign keep-alive stamps, (b) answer
double-checks / sensitive reads, or (c) resync slaves -- each would put a
trusted signature on stale state and breach the max_latency window.  It
must also replay missed commits immediately rather than pacing them
``max_latency`` apart, and commit on recovery every write that was
delivered to it but fell due while it was down.
"""

from __future__ import annotations

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.core.config import ProtocolConfig

from .conftest import make_system


def build():
    system = make_system(
        num_masters=3, num_clients=6,
        protocol=ProtocolConfig(max_latency=3.0, keepalive_interval=0.8,
                                double_check_probability=0.0))
    system.start()
    return system


def run_crash_epoch(system, writes=5):
    """Crash master-02 through ``writes`` commits, then recover it."""
    target = system.masters[2]
    system.failures.crash_for(target, system.now + 1.0, 30.0)
    system.run_for(2.0)
    for i in range(writes):
        system.clients[0].submit_write(KVPut(key=f"w{i}", value=i))
    system.run_for(29.0)  # recovery at +31 from start
    return target


class TestRecoveredMaster:
    def test_replay_commits_are_immediate(self):
        system = build()
        target = run_crash_epoch(system, writes=5)
        live_version = system.masters[0].version
        assert live_version == 5
        assert target.version < 5  # still down or just back
        # Within a few heartbeats of recovery it must have replayed all
        # five commits -- NOT 5 * max_latency = 15 seconds of pacing.
        system.run_for(3.0)
        assert target.version == 5
        assert target.store.state_digest() == \
            system.masters[0].store.state_digest()

    def test_no_stale_stamps_signed_after_recovery(self):
        """Any stamp a recovered master signs carries a current version.

        We assert through the clients: no accepted read may ever violate
        the consistency window, even for clients whose slaves hear from
        the recovered master.
        """
        import random

        system = build()
        run_crash_epoch(system, writes=5)
        rng = random.Random(3)
        t = system.now
        for i in range(60):
            t += 0.3
            system.schedule_op(system.clients[i % 6], t,
                               KVGet(key=f"k{rng.randrange(100):03d}"))
        system.run_for(t - system.now + 30.0)
        assert system.check_consistency_window() == []
        assert system.classify_accepted_reads()["accepted_wrong"] == 0

    def test_double_check_deferred_until_caught_up(self):
        """A double-check hitting a behind master is answered only after
        the repair -- and then with current state."""
        system = build()
        target = run_crash_epoch(system, writes=3)
        # Find/force a client onto the recovered master.
        client = system.clients[0]
        client.master_id = target.node_id
        results = []
        system.run_for(0.2)  # recovery happened; repair may be in flight
        client.submit_read(KVGet(key="w2"), level="sensitive",
                           callback=results.append)
        system.run_for(20.0)
        assert results and results[0]["status"] == "accepted"
        assert results[0]["result"] == {"found": True, "value": 2}
        assert results[0]["version"] == 3

    def test_spacing_still_enforced_for_live_writes(self):
        """The replay exemption must not weaken live spacing."""
        system = build()
        for i in range(4):
            system.clients[0].submit_write(KVPut(key=f"x{i}", value=i))
        system.run_for(40.0)
        times = sorted(system.masters[0].history.times.values())[1:]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 3.0 - 1e-9 for gap in gaps)


class TestCommitDueWhileDown:
    """A write delivered to a master is committed by it, whenever it is
    crashed in between.

    Two masters take a write at the same instant, so the second commit
    is spaced ``max_latency`` after the first.  Delivery marks it
    committed everywhere and the broadcast never redelivers it; a
    master that is down when it falls due (the middle case) used to
    lose it for good and then vouch for the older state.
    """

    @pytest.mark.parametrize("crash_after", [
        -0.5,  # before delivery: catch-up replays both writes
        1.5,   # between delivery and due time: the queue holds it
        4.0,   # after both commits
    ])
    def test_masters_converge_and_vouch_for_the_write(self, crash_after):
        system = make_system(
            num_masters=3, num_clients=6,
            protocol=ProtocolConfig(max_latency=3.0, keepalive_interval=0.8,
                                    double_check_probability=1.0))
        system.start()
        system.run_for(5.0)
        home = {}
        for client in system.clients:
            home.setdefault(client.master_id, client)
        victim = system.masters[2]
        system.failures.crash_for(victim, system.now + 0.5 + crash_after,
                                  8.0)
        system.run_for(0.5)
        home["master-00"].submit_write(KVPut(key="a", value=1))
        home["master-01"].submit_write(KVPut(key="b", value=2))
        system.run_for(20.0)
        home["master-00"].submit_write(KVPut(key="c", value=3))
        system.run_for(60.0)
        assert [m.version for m in system.masters] == [3, 3, 3]
        assert len({m.store.state_digest() for m in system.masters}) == 1
        # A client homed on the victim asks it to vouch for ``b``.
        reader = home[victim.node_id]
        results = []
        reader.submit_read(KVGet(key="b"), callback=results.append)
        reader.submit_read(KVGet(key="b"), level="sensitive",
                           callback=results.append)
        system.run_for(20.0)
        assert [r["result"] for r in results] == \
            [{"found": True, "value": 2}] * 2
        assert system.classify_accepted_reads()["accepted_wrong"] == 0


class TestWriteInFlightWhenCrashed:
    """A master that crashes with its client's write still unordered
    takes it up again on recovery -- and can take the next one.

    ``master-01`` is cut off from the trusted set, takes a write (the
    request to the sequencer is dropped), crashes across the moment the
    request would have been retransmitted, and comes back healed.  The
    retransmission used to live in a timer of its own, which the crash
    killed: the request was never sent again, ``_write_inflight`` stayed
    ``True`` for good, the write only committed ~40 s later through a
    different master once the client had timed out and re-homed, and
    every later write through the healthy master queued behind it.
    """

    REQUEST_TIMEOUT = 1.0  # the broadcast's
    HEARTBEAT = 0.25

    @pytest.mark.parametrize("down_for", [
        0.1,  # shorter than a heartbeat
        1.0,  # longer than the request time-out
        5.0,  # longer than suspect_after: removed from the view, too
    ])
    def test_both_writes_commit_through_the_recovered_master(self, down_for):
        config = ProtocolConfig(double_check_probability=0.0)
        system = make_system(num_masters=3, num_clients=12, seed=3,
                             protocol=config)
        system.start()
        system.run_for(5.0)
        victim = system.masters[1]
        first, second = [client for client in system.clients
                         if client.master_id == victim.node_id][:2]
        for other in (*system.masters, *system.auditors):
            if other is not victim:
                system.network.partition(victim.node_id, other.node_id)
        committed = {}
        first.submit_write(KVPut(key="a", value=1), callback=lambda result:
                           committed.setdefault("a", (system.now, result)))
        # Down across the request's first retransmission.
        system.run_for(self.REQUEST_TIMEOUT - 0.05)
        victim.crash()
        system.run_for(down_for)
        system.network.heal_all()
        victim.recover()
        healed = system.now
        system.run_for(self.REQUEST_TIMEOUT + 2 * self.HEARTBEAT)
        assert "a" in committed and committed["a"][1]["status"] == "committed"
        assert committed["a"][0] - healed \
            <= self.REQUEST_TIMEOUT + 2 * self.HEARTBEAT
        assert not victim._write_inflight

        system.run_for(config.max_latency)  # clear of the commit spacing
        submitted = system.now
        second.submit_write(KVPut(key="b", value=2), callback=lambda result:
                            committed.setdefault("b", (system.now, result)))
        system.run_for(1.0)
        assert "b" in committed and committed["b"][0] - submitted <= 1.0
        assert not victim._write_inflight and not victim._write_queue
        assert not victim.broadcast._pending

        system.run_for(60.0)
        assert system.metrics.count("write_timeouts") == 0
        assert {first.master_id, second.master_id} == {victim.node_id}
        assert [m.version for m in system.masters] == [2, 2, 2]
        assert len({m.store.state_digest() for m in system.masters}) == 1
