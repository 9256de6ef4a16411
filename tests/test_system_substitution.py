"""Integration tests: the answer-substitution attack.

A malicious slave can serve query A with a perfectly *valid*
(result, pledge) pair for a decoy query B: correct result, real
signature, fresh stamp.  The audit of that (truthful) pledge comes back
clean, so the defence has to be the client's: the binding of the pledge
to the query actually asked and to this request.  The client rebuilds
the pledge from its own request and the result it received and checks
the slave's signature over *that*, so the binding check is the signature
check -- still load-bearing, but no longer a comparison that could be
left out.  A pledge for B, for another request, by another slave or over
another result is ``read_reply_bad_signature``.  These tests pin it.
"""

from __future__ import annotations

import dataclasses
import random

from repro.content.kvstore import KVGet
from repro.core.adversary import AnswerSubstitution
from repro.core.config import ProtocolConfig
from repro.core.messages import Pledge, ReadReply, Seal
from repro.crypto.hashing import sha1_hex

from .conftest import make_system


def drive(system, count, rate=5.0, seed=1):
    rng = random.Random(seed)
    t = system.now
    for i in range(count):
        t += 1.0 / rate
        system.schedule_op(system.clients[i % len(system.clients)], t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestAnswerSubstitution:
    def build(self):
        system = make_system(
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    max_read_retries=2),
            adversaries={0: AnswerSubstitution(
                decoy_query=KVGet(key="k000"))})
        system.start()
        return system

    def test_substituted_answers_rejected(self):
        system = self.build()
        drive(system, 40)
        system.run_for(180.0)
        assert system.metrics.count("slave_substituted_queries") >= 1
        assert system.metrics.count("read_reply_bad_signature") >= 1
        # The decisive property: nothing wrong was ever accepted.
        assert system.classify_accepted_reads()["accepted_wrong"] == 0

    def test_audit_cannot_catch_it(self):
        """The substituted pledge is truthful, so even if the pledge were
        audited it would verify clean -- demonstrating why the client
        binding check is load-bearing."""
        system = self.build()
        drive(system, 40)
        system.run_for(180.0)
        # No audit detections (there were no dishonest pledges)...
        assert system.auditor.detections == 0
        # ...and no exclusions: this attack yields no usable evidence.
        assert system.metrics.count("exclusions") == 0

    def test_clients_still_make_progress(self):
        system = self.build()
        drive(system, 40)
        system.run_for(300.0)
        assert system.metrics.count("reads_accepted") >= 35


class TestBindingChecksUnit:
    """Hand-crafted replies against a live client, per binding field:
    each carries a real seal, as a slave sends it, over a pledge that
    differs from the client's rebuild in that one field."""

    def setup_scene(self):
        system = make_system(protocol=ProtocolConfig(
            double_check_probability=0.0))
        system.start()
        client = system.clients[0]
        slave = next(s for s in system.slaves
                     if s.node_id == client.assigned_slaves[0])
        return system, client, slave

    def make_honest_seal(self, slave, query, request_id):
        """The result of ``query`` and the seal of a truthful pledge."""
        outcome = slave.store.execute_read(query)
        pledge = Pledge.make(
            slave.keys, query.to_wire(), sha1_hex(outcome.result),
            slave.latest_stamp, request_id)
        return outcome.result, Seal(stamp=pledge.stamp,
                                    signature=pledge.signature)

    def test_wrong_query_in_pledge_rejected(self):
        system, client, slave = self.setup_scene()
        results = []
        client.submit_read(KVGet(key="k001"), callback=results.append)
        system.run_for(0.001)  # request registered, reply not yet back
        request_id = next(iter(client._reads))
        decoy_result, decoy_seal = self.make_honest_seal(
            slave, KVGet(key="k002"), request_id)
        reply = ReadReply(request_id=request_id, result=decoy_result,
                          pledge=decoy_seal)
        client.on_message(slave.node_id, reply)
        assert system.metrics.count("read_reply_bad_signature") == 1
        assert not results  # nothing accepted

    def test_wrong_request_id_in_pledge_rejected(self):
        system, client, slave = self.setup_scene()
        client.submit_read(KVGet(key="k001"))
        system.run_for(0.001)
        request_id = next(iter(client._reads))
        result, seal = self.make_honest_seal(
            slave, KVGet(key="k001"), "client-99:r0")  # someone else's
        reply = ReadReply(request_id=request_id, result=result,
                          pledge=seal)
        client.on_message(slave.node_id, reply)
        assert system.metrics.count("read_reply_bad_signature") == 1

    def test_pledge_from_wrong_slave_rejected(self):
        system, client, slave = self.setup_scene()
        other = next(s for s in system.slaves if s is not slave)
        client.submit_read(KVGet(key="k001"))
        system.run_for(0.001)
        request_id = next(iter(client._reads))
        result, seal = self.make_honest_seal(
            other, KVGet(key="k001"), request_id)
        # Delivered as if it came from the assigned slave.
        reply = ReadReply(request_id=request_id, result=result,
                          pledge=seal)
        client.on_message(slave.node_id, reply)
        # The other slave signed its own name, not the sender's.
        assert system.metrics.count("read_reply_bad_signature") == 1

    def test_honest_binding_accepts(self):
        system, client, slave = self.setup_scene()
        results = []
        client.submit_read(KVGet(key="k001"), callback=results.append)
        system.run_for(5.0)  # let the real protocol answer
        assert results and results[0]["status"] == "accepted"
        assert system.metrics.count("read_reply_bad_signature") == 0

    def test_tampered_result_with_honest_pledge_rejected(self):
        system, client, slave = self.setup_scene()
        client.submit_read(KVGet(key="k001"))
        system.run_for(0.001)
        request_id = next(iter(client._reads))
        result, seal = self.make_honest_seal(
            slave, KVGet(key="k001"), request_id)
        reply = ReadReply(request_id=request_id,
                          result={"found": True, "value": 666},
                          pledge=seal)
        client.on_message(slave.node_id, reply)
        assert system.metrics.count("read_reply_bad_signature") == 1
