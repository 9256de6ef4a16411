"""Per-principal admission: buckets keyed by key fingerprint, shared
across listeners.

Without a ledger, each :class:`repro.net.server.NodeServer` keeps one
account per principal name -- the hello's node id, or a
:class:`~repro.shard.wire.ShardEnvelope`'s ``src`` -- so a client that
aborts and redials under the same name meets the bucket it left, but
each listener meters it separately and a new name is a new account.
The ledger differs in two ways: its buckets are keyed on the client's
*key fingerprint* -- the identity the protocol already authenticates --
and shared by every listener the deployment wires to it, so ids bound
to one key share one allowance deployment-wide.

Unregistered node ids (anything the deployment never bound to a key)
share a single anonymous account: inventing fresh ids mints no fresh
tokens.
"""

from __future__ import annotations

from repro.crypto.signatures import PublicKey, key_fingerprint
from repro.qos.tokens import AdmissionPolicy, ClientAdmission


class AdmissionLedger:
    """Deployment-wide admission accounts, one per principal.

    ``register`` binds a node id to a key fingerprint (deployment-time
    knowledge: the same place that provisions client keys).  ``account``
    resolves a node id to its principal's shared
    :class:`~repro.qos.tokens.ClientAdmission`; ids bound to the same
    key share one bucket, and unbound ids share the anonymous one.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        #: node id -> principal key fingerprint.
        self._principals: dict[str, str] = {}
        #: fingerprint -> shared admission account.
        self._accounts: dict[str, ClientAdmission] = {}
        self._anonymous: ClientAdmission | None = None

    def register(self, node_id: str, fingerprint: str) -> None:
        """Bind ``node_id`` to a principal."""
        self._principals[node_id] = fingerprint

    def register_key(self, node_id: str, public_key: PublicKey) -> None:
        self.register(node_id, key_fingerprint(public_key))

    def principal_of(self, node_id: str) -> str | None:
        """The registered fingerprint, or None (-> anonymous account)."""
        return self._principals.get(node_id)

    def account(self, node_id: str, now: float) -> ClientAdmission:
        fingerprint = self._principals.get(node_id)
        if fingerprint is None:
            anonymous = self._anonymous
            if anonymous is None:
                anonymous = self._anonymous = ClientAdmission(
                    self.policy, now)
            return anonymous
        existing = self._accounts.get(fingerprint)
        if existing is None:
            existing = self._accounts[fingerprint] = ClientAdmission(
                self.policy, now)
        return existing

    def accounts(self) -> dict[str, ClientAdmission]:
        """Fingerprint -> account snapshot (for status/tests)."""
        return dict(self._accounts)


__all__ = ["AdmissionLedger"]
