"""Unit tests for the per-principal admission ledger (repro.qos.ledger).

The evasion being closed: per-connection buckets give a reconnecting
greedy client a fresh burst allowance on every new connection (or
invented node id).  Keying accounts on the *key fingerprint* -- the
identity the protocol already authenticates -- makes admission state
survive churn, and funnels every unregistered id into one shared
anonymous account.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.signatures import HMACSigner, key_fingerprint
from repro.qos.ledger import AdmissionLedger
from repro.qos.tokens import AdmissionPolicy


@pytest.fixture
def ledger() -> AdmissionLedger:
    return AdmissionLedger(AdmissionPolicy(frame_rate=10.0,
                                           frame_burst=5.0))


def keys(owner_id: str, seed: int) -> KeyPair:
    return KeyPair(owner_id, HMACSigner(rng=random.Random(seed)))


class TestKeyFingerprint:
    def test_stable_per_key(self):
        kp = keys("client-00", 1)
        assert key_fingerprint(kp.public_key) == \
            key_fingerprint(kp.public_key)

    def test_distinct_keys_distinct_fingerprints(self):
        a, b = keys("client-00", 1), keys("client-01", 2)
        assert key_fingerprint(a.public_key) != \
            key_fingerprint(b.public_key)


class TestAccounts:
    def test_same_principal_shares_one_account(self, ledger):
        kp = keys("client-00", 3)
        ledger.register_key("client-00", kp.public_key)
        ledger.register_key("client-00-retry", kp.public_key)
        first = ledger.account("client-00", now=0.0)
        assert ledger.account("client-00-retry", now=0.0) is first

    def test_reconnect_churn_mints_no_fresh_tokens(self, ledger):
        """The attack the ledger exists to stop, end to end."""
        kp = keys("greedy", 4)
        rng = random.Random(7)
        # Drain the burst allowance through one id...
        ledger.register_key("greedy-conn-1", kp.public_key)
        account = ledger.account("greedy-conn-1", now=0.0)
        while account.admit(0.0, 1.0, rng, ledger.policy) is None:
            pass
        # ...then "reconnect" under a new id bound to the same key:
        # the drained bucket follows the principal.
        ledger.register_key("greedy-conn-2", kp.public_key)
        rebound = ledger.account("greedy-conn-2", now=0.0)
        assert rebound is account
        assert rebound.admit(0.0, 1.0, rng, ledger.policy) == "rate"

    def test_distinct_principals_do_not_share(self, ledger):
        a, b = keys("client-00", 5), keys("client-01", 6)
        ledger.register_key("client-00", a.public_key)
        ledger.register_key("client-01", b.public_key)
        assert ledger.account("client-00", 0.0) is not \
            ledger.account("client-01", 0.0)

    def test_unregistered_ids_share_anonymous_account(self, ledger):
        anonymous = ledger.account("made-up-1", now=0.0)
        assert ledger.account("made-up-2", now=0.0) is anonymous
        assert ledger.principal_of("made-up-1") is None
        # Anonymous traffic never appears under a principal.
        assert ledger.accounts() == {}

    def test_accounts_snapshot_keyed_by_fingerprint(self, ledger):
        kp = keys("client-00", 8)
        ledger.register_key("client-00", kp.public_key)
        ledger.account("client-00", now=0.0)
        assert set(ledger.accounts()) == \
            {key_fingerprint(kp.public_key)}


@pytest.mark.net
class TestLedgerDeployment:
    def test_every_listener_charges_the_shared_ledger(self):
        import asyncio

        from repro.content.kvstore import KVGet, KVPut
        from repro.net.deploy import LocalCluster, NetDeploymentSpec, \
            fast_protocol_config

        async def scenario():
            config = fast_protocol_config(
                double_check_probability=0.0,
                qos_frame_rate=500.0, qos_per_principal=True)
            cluster = await LocalCluster.launch(
                NetDeploymentSpec(num_masters=2, slaves_per_master=1,
                                  num_clients=2, seed=5,
                                  protocol=config), settle=0.6)
            try:
                assert cluster.ledger is not None
                for server in cluster.servers.values():
                    assert server.ledger is cluster.ledger
                fingerprints = {
                    cluster.ledger.principal_of(client.node_id)
                    for client in cluster.clients
                }
                assert None not in fingerprints
                assert len(fingerprints) == len(cluster.clients)
                await cluster.write(cluster.clients[0],
                                    KVPut(key="k", value="v"))
                await asyncio.sleep(cluster.config.max_latency)
                reply = await cluster.read(cluster.clients[1],
                                           KVGet(key="k"))
                assert reply["status"] == "accepted"
                # Both clients' traffic landed on per-principal
                # accounts (not per-connection state).
                charged = set(cluster.ledger.accounts())
                assert {cluster.ledger.principal_of(c.node_id)
                        for c in cluster.clients} <= charged
            finally:
                await cluster.aclose()

        asyncio.run(asyncio.wait_for(scenario(), 60.0))
