"""The life of a client operation: one attempt from submit to verdict.

A read (or write) is created once -- request id, start time, retry
count, span, callback -- and keeps all of it while it waits for the
setup phase, is re-sent, or is moved to another slave.  Its retry budget
ends: every read resolves, accepted or ``failed``, within
``(max_read_retries + 2) * request_timeout`` plus its stale-retry
back-offs, whether or not setup can finish (docs/PROTOCOL.md, "A read's
life").  Simulator only, unmarked: CI's no-sockets step runs these.
"""

from __future__ import annotations

from repro.chaos.scenarios import read_durations
from repro.content.kvstore import KVGet, KVPut
from repro.core.config import ProtocolConfig
from repro.core.messages import WriteRequest
from repro.crypto.keys import KeyPair

from .conftest import make_system

TIMEOUT = 2.0
RETRIES = 3
#: Every read resolves within this long of its submit (plus back-offs).
BOUND = (RETRIES + 2) * TIMEOUT
#: ``KeyPair.verify`` calls (by clients, by everyone) in TestVerificationCount's
#: run at the parent commit.
PARENT_VERIFY_CALLS = (612, 1405)


def build(**overrides):
    """1 master x 1 slave x 1 client, settled and set up."""
    spec = dict(num_masters=1, slaves_per_master=1, num_clients=1,
                protocol=ProtocolConfig(double_check_probability=0.0,
                                        request_timeout=TIMEOUT,
                                        max_read_retries=RETRIES))
    spec.update(overrides)
    system = make_system(**spec)
    system.start()
    system.run_for(2.0)
    client = system.clients[0]
    assert client.ready
    return system, client


def timed(system, outcomes):
    """A callback recording (time, outcome)."""
    return lambda outcome: outcomes.append((system.now, outcome))


class TestTheBudgetEnds:
    def test_every_slave_crashed_one_read_fails_once_within_the_bound(self):
        system, client = build()
        for slave in system.slaves:
            slave.crash()
        outcomes, t0 = [], system.now
        client.submit_read(KVGet(key="k001"), callback=timed(system, outcomes))
        system.run_for(2000.0)
        assert [o for _at, o in outcomes] == \
            [{"status": "failed", "reason": "timeout"}]
        assert outcomes[0][0] - t0 <= BOUND
        count = system.metrics.count
        assert count("reads_submitted") == 1
        assert count("reads_failed") == 1
        # The ladder: RETRIES re-sends, the last after a fresh setup.
        assert count("read_timeouts") == RETRIES + 1
        assert count("reads_resetup") == 1
        assert not client._reads

    def test_stale_ladder_with_setup_unable_to_finish(self):
        """All masters down: the slaves hear no keep-alives and answer
        out of sync, the stale ladder climbs to the re-setup, and setup
        cannot finish.  The wait is charged to the same budget: the read
        fails from ``awaiting_setup``, and so does the write beside it."""
        system, client = build()
        for master in system.masters:
            master.crash()
        system.run_for(system.config.max_latency + 1.0)
        outcomes, t0 = [], system.now
        client.submit_read(KVGet(key="k001"), callback=timed(system, outcomes))
        client.submit_write(KVPut(key="w", value=1),
                            callback=timed(system, outcomes))
        system.run_for(RETRIES * system.config.keepalive_interval + 1.0)
        (read,) = client._reads.values()
        assert read.state == "awaiting_setup" and read.retries == RETRIES
        assert system.metrics.count("read_reply_out_of_sync") == RETRIES
        system.run_for(2000.0)
        (read_at, read_outcome), (write_at, write_outcome) = outcomes
        assert read_outcome == {"status": "failed", "reason": "timeout"}
        assert read_at - t0 <= \
            BOUND + RETRIES * system.config.keepalive_interval
        assert write_outcome == {"status": "failed", "reason": "timeout"}
        assert write_at - t0 <= 9 * TIMEOUT
        count = system.metrics.count
        assert count("reads_submitted") == 1 and count("reads_failed") == 1
        assert count("writes_submitted") == 1 and count("writes_failed") == 1
        assert not client._reads and not client._writes

    def test_not_ready_at_submit_and_setup_never_finishes(self):
        system = make_system(
            num_masters=1, slaves_per_master=1, num_clients=1,
            protocol=ProtocolConfig(request_timeout=TIMEOUT,
                                    max_read_retries=RETRIES))
        client = system.clients[0]  # nothing started: no directory answer
        outcomes = []
        client.submit_read(KVGet(key="k001"), callback=timed(system, outcomes))
        (read,) = client._reads.values()
        assert read.state == "awaiting_setup"
        system.run_for(2000.0)
        ((failed_at, outcome),) = outcomes
        assert outcome["status"] == "failed" and failed_at <= BOUND


class TestOneReadOneRecord:
    def test_a_read_that_rides_out_an_outage_is_one_read(self):
        """The slave is down across the re-setup (retry RETRIES) and back
        before the last leg: the read is accepted, and every record of it
        -- callback, counter, latency sample, span -- is of one read that
        took the whole outage."""
        system, client = build(obs_enabled=True)
        slave = system.slaves[0]
        slave.crash()
        outcomes, t0 = [], system.now
        client.submit_read(KVGet(key="k001"), callback=timed(system, outcomes))
        (request_id,) = client._reads
        system.run_for(RETRIES * TIMEOUT - 1.5)
        slave.recover()
        system.run_for(BOUND)
        ((accepted_at, outcome),) = outcomes
        assert outcome["status"] == "accepted"
        outage = RETRIES * TIMEOUT
        assert outage <= accepted_at - t0 <= BOUND
        assert outcome["latency"] == accepted_at - t0
        assert system.metrics.count("reads_submitted") == 1
        assert system.metrics.samples["read_latency"] == [outcome["latency"]]
        assert client.accepted_log[0].request_id == request_id
        spans = [span for span in system.obs.collector.spans()
                 if span.op == "client.read"]
        (span,) = spans
        assert span.end is not None
        assert span.end - span.start == outcome["latency"]
        assert span.attrs["request_id"] == request_id
        assert span.attrs["status"] == "accepted"
        assert span.attrs["retries"] == RETRIES

    def test_a_failed_read_ends_its_span_too(self):
        system, client = build(obs_enabled=True)
        system.slaves[0].crash()
        client.submit_read(KVGet(key="k001"))
        system.run_for(BOUND)
        (span,) = [span for span in system.obs.collector.spans()
                   if span.op == "client.read"]
        assert span.attrs["status"] == "failed"
        assert span.attrs["retries"] == RETRIES + 1
        assert (RETRIES + 1) * TIMEOUT <= span.end - span.start <= BOUND
        # ... so the chaos percentiles do include it, as their docstring
        # says (no survivorship bias).
        assert read_durations(system, {client.node_id}, 0.0,
                              system.now) == [span.end - span.start]


class TestWaitingForSetup:
    def test_a_write_whose_master_died_goes_out_with_the_assignment(self):
        """Not ``request_timeout`` after the time-out, by guess: the
        write waits for setup and is re-sent the moment it finishes."""
        system, client = build(num_masters=3, num_clients=6)
        victim = next(m for m in system.masters
                      if m.node_id == client.master_id)
        victim.crash()
        sent = []
        send = client.send

        def recording(dst_id, message, **kwargs):
            if isinstance(message, WriteRequest):
                sent.append((system.now, dst_id, client.ready))
            send(dst_id, message, **kwargs)

        client.send = recording
        outcomes, t0 = [], system.now
        client.submit_write(KVPut(key="x", value=1),
                            callback=timed(system, outcomes))
        (request_id,) = client._writes
        system.run_for(200.0)
        first, second = sent
        assert first[:2] == (t0, victim.node_id)
        resent_at, new_master, ready = second
        assert new_master == client.master_id != victim.node_id and ready
        # The time-out is 3 x request_timeout; setup takes a few link
        # delays, not another request_timeout.
        assert 3 * TIMEOUT < resent_at - t0 < 3 * TIMEOUT + 0.5
        ((_at, outcome),) = outcomes
        assert outcome["status"] == "committed"
        live = next(m for m in system.masters if not m.crashed)
        assert live.version == 1  # exactly one commit
        assert system.metrics.count("writes_submitted") == 1
        assert not client._writes

    def test_rehome_keeps_reads_in_flight_under_their_request_ids(self):
        system, client = build()
        outcomes = []
        for key in ("k001", "k002"):
            client.submit_read(KVGet(key=key), callback=outcomes.append)
        request_ids = list(client._reads)
        client.rehome()
        assert list(client._reads) == request_ids
        assert {read.state for read in client._reads.values()} == \
            {"awaiting_setup"}
        system.run_for(5.0)
        assert [o["status"] for o in outcomes] == ["accepted", "accepted"]
        assert [record.request_id for record in client.accepted_log] == \
            request_ids
        assert system.metrics.count("reads_submitted") == 2

    def test_recovery_re_sends_only_what_is_not_waiting_for_setup(self):
        system, client = build()
        client.submit_read(KVGet(key="k001"))
        client.rehome()
        client.submit_read(KVGet(key="k002"))
        client.crash()
        system.run_for(1.0)
        sends = []
        client.send = lambda dst_id, message, **kw: sends.append(message)
        client.recover()
        # Setup starts again; neither read is sent to anybody yet.
        assert [type(message).__name__ for message in sends] == \
            ["DirectoryLookup"]
        assert [(read.state, read.timer is not None)
                for read in client._reads.values()] == \
            [("awaiting_setup", True)] * 2


class TestVerificationCount:
    def test_three_hundred_reads_verify_as_often_as_before(self, monkeypatch):
        """Two verifications a read (pledge, stamp): a read that lingers
        is re-aged by R5 alone, never verified twice.  The number is the
        parent commit's for the same run."""
        calls = []
        verify = KeyPair.verify
        monkeypatch.setattr(
            KeyPair, "verify",
            lambda self, *args, **kw: calls.append(self.owner_id)
            or verify(self, *args, **kw))
        system = make_system(seed=24)
        system.start()
        t = system.now
        for i in range(300):
            t += 0.05
            system.schedule_op(system.clients[i % 4], t,
                               KVGet(key=f"k{i % 100:03d}"))
            if i % 50 == 25:
                system.schedule_op(system.clients[0], t,
                                   KVPut(key=f"w{i}", value=i))
        system.run_for(120.0)
        assert system.metrics.count("reads_accepted") == 300
        by_clients = sum(1 for owner in calls if owner.startswith("client"))
        assert (by_clients, len(calls)) == PARENT_VERIFY_CALLS

