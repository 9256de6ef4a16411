"""Property test: fuzz the client with adversarial message sequences.

The client is the security-critical verifier; whatever a malicious slave
(or a confused network) throws at it, it must neither crash nor accept a
result that fails the paper's checks.  Hypothesis drives random sequences
of valid, corrupted, replayed and mis-addressed replies into a live
client and asserts the safety envelope afterwards.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import (
    AlwaysLie,
    AnswerSubstitution,
    BrokenSignature,
    Colluding,
    CorruptState,
    StaleServe,
)
from repro.core.client import (
    compare_with_master,
    is_fresh,
    judge_reply,
    pledges_agree,
    rebuild_pledge,
)
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    Pledge,
    ReadReply,
    ReadRequest,
    Seal,
    SlaveUpdate,
    VersionStamp,
)
from repro.core.slave import SlaveServer
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.simulator import Simulator

from .conftest import default_store, make_system
from .test_slave_unit import Sink

slow = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Each fuzz step: (mutation kind, key index).
MUTATIONS = ["honest", "wrong_result", "forged_signature", "stale_stamp",
             "fake_stamp", "other_query", "other_request", "out_of_sync",
             "duplicate", "garbage_hash"]


def craft_reply(master_keys, slave_keys, store, stamp, now, request_id,
                query, mutation):
    """Build one ReadReply applying the requested corruption.

    Plain values in, a reply out: ``master_keys`` signed ``stamp``,
    ``slave_keys`` signs the pledge, ``store`` answers the query.  The
    reply carries the whole pledge; :func:`sealed` is what a slave
    sends."""
    result = store.execute_read(query).result
    pledged_query = query.to_wire()
    pledged_request = request_id
    pledged_hash = None
    if mutation == "wrong_result":
        result = {"forged": True}
    elif mutation == "stale_stamp":
        stamp = VersionStamp.make(master_keys, stamp.version, now - 100.0)
    elif mutation == "fake_stamp":
        stamp = VersionStamp.make(slave_keys, stamp.version, now)
    elif mutation == "other_query":
        pledged_query = KVGet(key="k099").to_wire()
    elif mutation == "other_request":
        pledged_request = "client-99:r0"
    elif mutation == "garbage_hash":
        pledged_hash = "zz" * 20  # signed, but no result's hash
    pledge = Pledge.make(slave_keys, pledged_query,
                         pledged_hash or sha1_hex(result), stamp,
                         pledged_request)
    if mutation == "forged_signature":
        pledge = dataclasses.replace(pledge, signature=b"junk")
    if mutation == "out_of_sync":
        return ReadReply(request_id=request_id, result=None, pledge=None,
                         in_sync=False)
    return ReadReply(request_id=request_id, result=result, pledge=pledge)


def sealed(reply):
    """``reply`` as a slave sends it: the pledge's seal, not the pledge."""
    if reply.pledge is None:
        return reply
    return dataclasses.replace(reply, pledge=Seal(
        stamp=reply.pledge.stamp, signature=reply.pledge.signature))


def craft_live_reply(system, slave, request_id, query, mutation):
    """:func:`craft_reply` from a running deployment's own values."""
    stamp = slave.latest_stamp
    master = next(m for m in system.masters if m.node_id == stamp.master_id)
    return sealed(craft_reply(master.keys, slave.keys, slave.store, stamp,
                              system.now, request_id, query, mutation))


class TestClientFuzz:
    @slow
    @given(steps=st.lists(
        st.tuples(st.sampled_from(MUTATIONS),
                  st.integers(min_value=0, max_value=19)),
        min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=10**6))
    def test_client_never_accepts_bad_replies(self, steps, seed):
        system = make_system(seed=seed, protocol=ProtocolConfig(
            double_check_probability=0.0, max_read_retries=2))
        system.start()
        client = system.clients[0]
        slave = next(s for s in system.slaves
                     if s.node_id == client.assigned_slaves[0])
        accepted = []
        for mutation, key_index in steps:
            query = KVGet(key=f"k{key_index:03d}")
            client.submit_read(query, callback=accepted.append)
            system.simulator.run_for(0.001)  # register, don't deliver
            pending = [rid for rid, att in client._reads.items()
                       if att.state == "waiting_slaves"]
            if not pending:
                system.run_for(5.0)
                continue
            request_id = pending[-1]
            reply = craft_live_reply(system, slave, request_id, query,
                                     mutation)
            client.on_message(slave.node_id, reply)
            if mutation == "duplicate":
                client.on_message(slave.node_id, reply)
            system.run_for(0.1)
        # Drain all retries/timeouts.
        system.run_for(120.0)
        result = system.classify_accepted_reads()
        # Safety envelope (the paper's actual guarantee): a consistently
        # pledged lie MAY be accepted at p=0 -- but then its pledge was
        # forwarded, so the audit detects every single one.  All other
        # mutations must be rejected outright, so the only wrong accepts
        # permitted are the 'wrong_result' ones, each matched by an audit
        # detection.
        wrong_result_steps = sum(1 for m, _k in steps if m == "wrong_result")
        assert result["accepted_wrong"] <= wrong_result_steps
        assert system.auditor.detections >= result["accepted_wrong"]
        # Liveness: reads either accepted (the real protocol answered the
        # retry) or failed cleanly -- never wedged.
        for outcome in accepted:
            assert outcome["status"] in ("accepted", "failed")
        assert not client._reads  # no orphaned attempts

    @slow
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_unsolicited_messages_harmless(self, seed):
        """Replies for unknown request ids must be ignored outright."""
        system = make_system(seed=seed)
        system.start()
        client = system.clients[0]
        slave = next(s for s in system.slaves
                     if s.node_id == client.assigned_slaves[0])
        query = KVGet(key="k001")
        reply = craft_live_reply(system, slave, "client-00:r999", query,
                                 "honest")
        client.on_message(slave.node_id, reply)
        from repro.core.messages import DoubleCheckReply, WriteReply

        client.on_message("master-00", DoubleCheckReply(
            request_id="client-00:r998", result_hash="00" * 20, version=0))
        client.on_message("master-00", WriteReply(
            request_id="client-00:w997", committed=True, version=0))
        system.run_for(5.0)
        assert system.metrics.count("reads_accepted") == 0
        assert not client._reads


# -- the decision, tested without a system -------------------------------
#
# ``judge_reply`` is docs/PROTOCOL.md's R1-R6 as a function of values: no
# ReplicationSystem, no event loop, no Client.  Each mutation above maps
# to exactly one verdict.  The client rebuilds the pledge from its own
# request and the result it received, so binding (R2) and integrity (R3)
# are the slave's signature (R4) over that pledge.

NOW = 100.0
MAX_LATENCY = 5.0
REQUEST_ID = "client-00:r7"
QUERY = KVGet(key="k001")


def keypair(owner_id):
    return KeyPair(owner_id, new_signer("hmac",
                                        rng=random.Random(owner_id)))


MASTER, SLAVE, OTHER_SLAVE, VERIFIER = (
    keypair(owner) for owner in
    ("master-00", "slave-00-00", "slave-00-01", "client-00"))
STAMP = VersionStamp.make(MASTER, 0, NOW - 0.5)
MASTER_KEYS = {MASTER.owner_id: MASTER.public_key}


def judge(reply, slave_id=SLAVE.owner_id, slave_key=SLAVE.public_key,
          now=NOW):
    verdict, _pledge = judge_reply(reply, slave_id, REQUEST_ID,
                                   QUERY.to_wire(), slave_key,
                                   MASTER_KEYS.get, VERIFIER, now,
                                   MAX_LATENCY)
    return verdict


def mutated(mutation, slave_keys=SLAVE):
    return craft_reply(MASTER, slave_keys, default_store(), STAMP, NOW,
                       REQUEST_ID, QUERY, mutation)


def with_pledge(reply, **changes):
    return dataclasses.replace(
        reply, pledge=dataclasses.replace(reply.pledge, **changes))


HONEST = mutated("honest")


VERDICTS = {
    "honest": "ok",
    # A consistently pledged lie passes R1-R5 -- nothing in the reply
    # contradicts itself.  The pledge is the evidence: the audit
    # re-executes it (see the adversary rows below).
    "wrong_result": "ok",
    "forged_signature": "bad_signature",
    "stale_stamp": "stale",
    "fake_stamp": "bad_stamp",
    # Signed, but not the client's query, request or result: the
    # signature does not cover the pledge the client rebuilds.
    "other_query": "bad_signature",
    "other_request": "bad_signature",
    "garbage_hash": "bad_signature",
    "out_of_sync": "out_of_sync",
    # Judged like the honest reply it repeats; it is
    # ``_handle_read_reply`` that drops a slave's second answer.
    "duplicate": "ok",
}

RESULTS = ({"found": True, "value": 1}, {"found": True, "value": 2},
           {"found": False, "value": None})


class TestJudgeReplyTable:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_has_one_verdict(self, mutation):
        assert judge(mutated(mutation)) == VERDICTS[mutation]

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_seal_and_its_whole_pledge_get_one_verdict(self, mutation):
        """The harness still sends whole pledges; only their stamp and
        signature are read, so what else they say changes nothing."""
        reply = mutated(mutation)
        assert judge(sealed(reply)) == judge(reply) == VERDICTS[mutation]
        if reply.pledge is not None:
            assert judge(with_pledge(
                reply, query_wire=KVGet(key="k099").to_wire(),
                result_hash="zz" * 20, slave_id=OTHER_SLAVE.owner_id,
                request_id="client-99:r0")) == VERDICTS[mutation]

    @settings(max_examples=200, deadline=None)
    @given(query=st.sampled_from((QUERY, KVGet(key="k002"))),
           request_id=st.sampled_from((REQUEST_ID, "client-99:r0")),
           name=st.sampled_from((SLAVE.owner_id, OTHER_SLAVE.owner_id)),
           signed=st.sampled_from(RESULTS), received=st.sampled_from(RESULTS),
           seal=st.booleans())
    def test_ok_exactly_when_the_slave_signed_the_clients_own_read(
            self, query, request_id, name, signed, received, seal):
        """A pledge signed with SLAVE's key, over whatever query, request
        id, slave name and result hash; the reply carries ``received``.
        Accepted exactly when what was signed is the client's query and
        request id, the sender's name and the received result's hash."""
        signer = KeyPair(name, SLAVE.signer)
        pledge = Pledge.make(signer, query.to_wire(), sha1_hex(signed),
                             STAMP, request_id)
        reply = ReadReply(request_id=REQUEST_ID, result=received,
                          pledge=pledge)
        if seal:
            reply = sealed(reply)
        assert (judge(reply) == "ok") == (
            query == QUERY and request_id == REQUEST_ID
            and name == SLAVE.owner_id
            and sha1_hex(signed) == sha1_hex(received))

    def test_the_accepted_pledge_is_the_clients_rebuild(self):
        verdict, pledge = judge_reply(
            sealed(HONEST), SLAVE.owner_id, REQUEST_ID, QUERY.to_wire(),
            SLAVE.public_key, MASTER_KEYS.get, VERIFIER, NOW, MAX_LATENCY)
        assert verdict == "ok" and pledge == HONEST.pledge
        assert pledge == rebuild_pledge(sealed(HONEST), SLAVE.owner_id,
                                        REQUEST_ID, QUERY.to_wire())
        assert pledge.signed_payload() == HONEST.pledge.signed_payload()

    def test_a_pledge_by_another_slave_is_refused(self):
        reply = mutated("honest", slave_keys=OTHER_SLAVE)
        assert judge(reply) == "bad_signature"  # delivered as SLAVE's
        assert judge(reply, slave_id=OTHER_SLAVE.owner_id) \
            == "bad_signature"  # under SLAVE's key
        assert judge(reply, slave_id=OTHER_SLAVE.owner_id,
                     slave_key=OTHER_SLAVE.public_key) == "ok"

    def test_an_uncertified_slave_is_refused(self):
        assert judge(mutated("honest"), slave_key=None) == "bad_signature"

    def test_freshness_is_a_strict_bound_on_the_stamp_alone(self):
        reply = mutated("honest")
        assert judge(reply, now=STAMP.timestamp + MAX_LATENCY - 0.001) == "ok"
        assert judge(reply, now=STAMP.timestamp + MAX_LATENCY) == "stale"
        assert not is_fresh(STAMP, STAMP.timestamp + MAX_LATENCY,
                            MAX_LATENCY)

    @pytest.mark.parametrize("reply, verdict", [
        # Two defects: the earlier check names the verdict.
        (dataclasses.replace(mutated("other_query"), in_sync=False),
         "out_of_sync"),                        # R1 before R4 (pledge)
        (with_pledge(mutated("fake_stamp"), signature=b"junk"),
         "bad_signature"),                # R4 (pledge) before R4 (stamp)
        (with_pledge(mutated("stale_stamp"), signature=b"junk"),
         "bad_signature"),                      # R4 (pledge) before R5
        (ReadReply(request_id=REQUEST_ID, result=HONEST.result,
                   pledge=Pledge.make(
                       SLAVE, QUERY.to_wire(), HONEST.pledge.result_hash,
                       VersionStamp.make(SLAVE, 0, NOW - 100.0),
                       REQUEST_ID)),
         "bad_stamp"),                           # R4 (stamp) before R5
    ], ids=["sync-then-signature", "signature-then-stamp",
            "signature-then-age", "stamp-then-age"])
    def test_checks_run_in_order(self, reply, verdict):
        assert judge(reply) == verdict
        assert judge(sealed(reply)) == verdict


def fabricated_by(strategy):
    """The pledge the client rebuilds from the reply a real slave
    running ``strategy`` gives to QUERY, after one committed write to
    the queried key; the verdict on it; and what a trusted host answers
    at that version."""
    sim = Simulator(seed=3)
    net = Network(sim)
    config = ProtocolConfig(max_latency=MAX_LATENCY,
                            simulate_service_times=False)
    certs = {MASTER.owner_id: Certificate.issue(
        MASTER, MASTER.owner_id, "addr", MASTER.public_key, 0.0)}
    slave = SlaveServer(SLAVE.owner_id, sim, net, config, default_store(),
                        certs, MetricsRegistry(), strategy=strategy)
    sink = Sink("client-00", sim, net)
    write = KVPut(key=QUERY.key, value="new")
    slave.on_message(MASTER.owner_id, SlaveUpdate(
        from_version=0, ops_wire=(write.to_wire(),),
        stamp=VersionStamp.make(MASTER, 1, sim.now)))
    slave.on_message(sink.node_id, ReadRequest(
        client_id=sink.node_id, request_id=REQUEST_ID,
        query_wire=QUERY.to_wire()))
    sim.run_for(1.0)
    ((_slave_id, reply),) = sink.inbox
    assert isinstance(reply.pledge, Seal)
    trusted = default_store()
    trusted.apply_write(write)
    verdict, pledge = judge_reply(
        reply, slave.node_id, REQUEST_ID, QUERY.to_wire(),
        slave.public_key, MASTER_KEYS.get, VERIFIER, sim.now, MAX_LATENCY)
    return pledge, verdict, sha1_hex(trusted.execute_read(QUERY).result)


class TestAdversariesAgainstTheDecision:
    """One row per ``core/adversary.py`` strategy that answers at all:
    the reply it fabricates is refused by ``judge_reply``, or it is a
    consistently pledged lie -- which R1-R5 cannot see and the pledge
    convicts: the master's double-check finds a mismatch at the pledged
    version, and the audit re-executes the same comparison."""

    @pytest.mark.parametrize("strategy, verdict", [
        # Garbage signature: refused, and nothing to incriminate.
        (lambda: BrokenSignature(), "bad_signature"),
        # A truthful pledge for another query: its signature does not
        # cover the client's query -- and the audit of that pledge would
        # come back clean.
        (lambda: AnswerSubstitution(KVGet(key="k002")), "bad_signature"),
    ])
    def test_refused_by_the_client(self, strategy, verdict):
        _pledge, judged, _trusted = fabricated_by(strategy())
        assert judged == verdict

    @pytest.mark.parametrize("strategy", [
        lambda: AlwaysLie(),         # a wrong result, consistently pledged
        lambda: StaleServe(),        # the old value under the new stamp
        lambda: CorruptState(),      # the write mangled as it was applied
        lambda: Colluding(group_seed=7),  # the group's common lie
    ])
    def test_caught_by_double_check_and_audit(self, strategy):
        pledge, judged, trusted_hash = fabricated_by(strategy())
        assert judged == "ok"
        assert compare_with_master(pledge, trusted_hash, 1) == "mismatch"
        # A master that has moved on proves nothing by its own answer
        # (the audit still re-executes at the pledged version).
        assert compare_with_master(pledge, trusted_hash, 2) == "skew"

    def test_colluders_agree_with_each_other(self):
        """R6 cannot see a common lie; it does see a lone liar."""
        lie, _judged, _trusted = fabricated_by(Colluding(group_seed=7))
        same, _judged, _trusted = fabricated_by(Colluding(group_seed=7))
        honest, judged, trusted_hash = fabricated_by(None)
        assert judged == "ok"
        assert compare_with_master(honest, trusted_hash, 1) == "match"
        assert pledges_agree([lie, same])
        assert not pledges_agree([lie, honest])
        assert pledges_agree([honest])
