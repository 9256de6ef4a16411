"""State-signing baseline: Merkle-authenticated untrusted storage.

Section 5: "With state signing, the data content is divided into small
(disjunct) subsets which are signed with a content private key.  Clients
then retrieve data from untrusted storage and verify its integrity using
the content public key ... some form of hash-tree authentication [12] is
normally used."

The model has three principals:

* :class:`StateSigningPublisher` (trusted, offline for reads): maintains
  the Merkle tree over the key-value content, signs ``(root, version)``
  after every write, pushes the update to storage replicas.
* :class:`StateSigningStorage` (untrusted): serves ``(value, proof,
  signed root)`` for point lookups.  A Byzantine replica can substitute
  values, but any substitution fails proof verification at the client --
  the strength of this design.
* :class:`StateSigningClient`: verifies proofs against the signed root.

Its structural weakness -- "the main limitation ... is that dynamic
queries on the data need to be executed on trusted hosts.  This requires
the trusted host to first retrieve all data relevant to the query from
untrusted storage, verify it, and then perform the operation" -- is
modelled literally: any non-point query is routed to the publisher, which
charges itself a fetch + per-item proof verification for every key the
query touches, then executes the query.  E8 shows this is where state
signing loses to the paper's design on read-mostly dynamic workloads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from repro.baselines.costs import CostLedger
from repro.content.filesystem import FSRead, MemoryFileSystem
from repro.content.kvstore import KVGet, KeyValueStore
from repro.content.queries import ReadQuery, WriteOp
from repro.content.store import ContentStore
from repro.crypto.hashing import record_template
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import PublicKey, Signature, new_signer


def point_key_of(query: ReadQuery) -> str | None:
    """The authenticated-dictionary key a query addresses, if any.

    Point lookups are what hash-tree authentication can serve from
    untrusted storage: ``KVGet`` keys and ``FSRead`` paths ("read
    FileName" -- the paper's own example of content state-signing systems
    handle).  Everything else (ranges, aggregates, ``grep``, joins) is a
    dynamic query and returns None.
    """
    if isinstance(query, KVGet):
        return query.key
    if isinstance(query, FSRead):
        from repro.content.filesystem import _normalise

        try:
            return _normalise(query.path)
        except ValueError:
            return query.path
    return None


def leaf_items_of(store: ContentStore) -> dict[str, object]:
    """The (key -> value) dictionary a store authenticates over.

    Supported: :class:`KeyValueStore` (keys are leaves) and
    :class:`MemoryFileSystem` (file paths are leaves).  Relational
    content has no natural disjoint-leaf decomposition that supports its
    query model -- which is precisely the paper's argument for why state
    signing "can only support semi-static data content and restrictive,
    pre-defined types of queries".
    """
    if isinstance(store, MemoryFileSystem):
        return dict(store.state_items()["files"])
    if isinstance(store, KeyValueStore):
        return dict(store.state_items())
    raise TypeError(
        f"state signing cannot authenticate {type(store).__name__}")


_ROOT_RECORD = record_template("root", "version", kind="merkle_root")


@dataclass(frozen=True)
class SignedRoot:
    """The publisher's signature over (root, version)."""

    root: bytes
    version: int
    signature: Signature

    @staticmethod
    def payload(root: bytes, version: int) -> bytes:
        return _ROOT_RECORD.encode(root, version)


@dataclass(frozen=True)
class AuthenticatedItem:
    """What untrusted storage returns for a point lookup."""

    found: bool
    proof: MerkleProof | None
    signed_root: SignedRoot


class StateSigningPublisher:
    """Trusted publisher holding the content key and the Merkle tree.

    ``content`` is either a plain ``{key: value}`` dict (authenticated as
    a key-value catalogue) or any :class:`ContentStore` whose state maps
    to an authenticated dictionary via :func:`leaf_items_of` -- in
    particular :class:`MemoryFileSystem`, matching the systems the paper
    cites ([7], [11]: read-only / Byzantine-storage file systems).
    """

    def __init__(self, content: "dict[str, Any] | ContentStore",
                 rng: random.Random | None = None,
                 signer_scheme: str = "hmac") -> None:
        self.keys = KeyPair("publisher", new_signer(signer_scheme, rng=rng))
        if isinstance(content, dict):
            # The publisher keeps a real store so it can execute the
            # dynamic queries untrusted storage cannot serve verifiably.
            self.store: ContentStore = KeyValueStore(content)
        else:
            self.store = content
        self.tree = MerkleTree(leaf_items_of(self.store).items())
        self.version = 0
        self.ledger = CostLedger()
        self._signed_root = self._sign_root()

    def _sign_root(self) -> SignedRoot:
        self.ledger.signatures += 1
        root = self.tree.root
        return SignedRoot(root=root, version=self.version,
                          signature=self.keys.sign(
                              SignedRoot.payload(root, self.version)))

    @property
    def signed_root(self) -> SignedRoot:
        return self._signed_root

    def apply_write(self, op: WriteOp) -> None:
        """Apply a write, rebuild affected hashes, re-sign the root.

        The tree is rebuilt from the store's leaf map; the *cost model*
        charges the log2(n) path hashes an incremental implementation
        pays, which is what the E8 accounting uses.
        """
        outcome = self.store.apply_write(op)
        self.ledger.trusted_compute_units += outcome.cost_units
        self.tree = MerkleTree(leaf_items_of(self.store).items())
        # Path recomputation: log2(n) node hashes.
        self.ledger.hashes += max(1, int(math.log2(max(2, len(self.tree)))))
        self.version += 1
        self._signed_root = self._sign_root()
        self.ledger.operations += 1

    def execute_dynamic_read(self, query: ReadQuery,
                             storage: "StateSigningStorage") -> Any:
        """The Section 5 fallback: fetch + verify + execute on trust.

        The publisher (or any trusted host) pulls every key the query may
        touch from untrusted storage, verifies each proof, then runs the
        query locally.  Charged: one fetch message + one proof
        verification per key, plus the query execution itself.
        """
        keys = storage.tree.keys()
        verify_hashes_per_item = max(
            1, int(math.log2(max(2, len(keys)))))
        for key in keys:
            item = storage.serve_point(key)
            self.ledger.messages += 2  # request + response
            self.ledger.hashes += verify_hashes_per_item
            self.ledger.verifications += 1
            if item.proof is None or not item.proof.verify(
                    item.signed_root.root):
                # Tampering detected; in a real deployment the trusted
                # host would re-fetch from another replica.  The publisher
                # holds authoritative state, so just count the rejection.
                self.ledger.rejected += 1
        outcome = self.store.execute_read(query)
        self.ledger.trusted_compute_units += outcome.cost_units
        self.ledger.operations += 1
        return outcome.result


class StateSigningStorage:
    """One untrusted storage replica.

    ``tamper_keys`` simulates a Byzantine replica substituting values for
    chosen keys -- demonstrating (in tests) that clients reject them.
    """

    def __init__(self, publisher: StateSigningPublisher,
                 tamper_keys: dict[str, Any] | None = None) -> None:
        self.tree = MerkleTree(leaf_items_of(publisher.store).items())
        self.signed_root = publisher.signed_root
        self.tamper_keys = dict(tamper_keys or {})
        self.ledger = CostLedger()

    def receive_update(self, publisher: StateSigningPublisher) -> None:
        """Pull the publisher's new state and signed root (push model)."""
        self.tree = MerkleTree(leaf_items_of(publisher.store).items())
        self.signed_root = publisher.signed_root
        self.ledger.messages += 1

    def serve_point(self, key: str) -> AuthenticatedItem:
        """Serve one key with its membership proof."""
        self.ledger.untrusted_compute_units += 1.0
        self.ledger.messages += 1
        if key not in self.tree:
            return AuthenticatedItem(found=False, proof=None,
                                     signed_root=self.signed_root)
        proof = self.tree.prove(key)
        self.ledger.hashes += len(proof.siblings)
        if key in self.tamper_keys:
            # A malicious replica substitutes the value but cannot forge
            # the sibling hashes to match: verification will fail.
            proof = MerkleProof(key=proof.key,
                                value=self.tamper_keys[key],
                                index=proof.index,
                                siblings=proof.siblings,
                                leaf_count=proof.leaf_count)
        return AuthenticatedItem(found=True, proof=proof,
                                 signed_root=self.signed_root)


class StateSigningClient:
    """Client verifying authenticated point reads."""

    def __init__(self, publisher_public_key: PublicKey,
                 rng: random.Random | None = None) -> None:
        self.keys = KeyPair("ss-client", new_signer("hmac", rng=rng))
        self.publisher_public_key = publisher_public_key
        self.ledger = CostLedger()

    def read(self, query: ReadQuery, storage: StateSigningStorage,
             publisher: StateSigningPublisher) -> dict[str, Any]:
        """Execute a read; point gets go to storage, the rest to trust.

        Returns ``{"result", "verified", "path"}`` where path is
        ``"storage"`` or ``"trusted"``.
        """
        self.ledger.operations += 1
        point_key = point_key_of(query)
        if point_key is not None:
            item = storage.serve_point(point_key)
            self.ledger.messages += 2
            # Verify the signed root, then the membership proof.
            self.ledger.verifications += 1
            root_ok = self.keys.verify(
                self.publisher_public_key,
                SignedRoot.payload(item.signed_root.root,
                                   item.signed_root.version),
                item.signed_root.signature)
            if not root_ok:
                self.ledger.rejected += 1
                return {"result": None, "verified": False, "path": "storage"}
            if not item.found:
                # Absence cannot be proven by this simple tree; accept the
                # storage's word only for the benchmarks' purposes and
                # count it as unverified-notfound.
                return {"result": _shape_result(query, False, None),
                        "verified": False, "path": "storage"}
            assert item.proof is not None
            self.ledger.hashes += len(item.proof.siblings) + 1
            if not item.proof.verify(item.signed_root.root):
                self.ledger.rejected += 1
                return {"result": None, "verified": False, "path": "storage"}
            return {"result": _shape_result(query, True, item.proof.value),
                    "verified": True, "path": "storage"}
        # Dynamic query: the Section 5 fallback to a trusted host.
        self.ledger.unsupported += 1
        result = publisher.execute_dynamic_read(query, storage)
        return {"result": result, "verified": True, "path": "trusted"}


def _shape_result(query: ReadQuery, found: bool, value: Any) -> dict:
    """Present an authenticated point value in the engine's result shape."""
    if isinstance(query, FSRead):
        return {"found": found, "content": value}
    return {"found": found, "value": value}
