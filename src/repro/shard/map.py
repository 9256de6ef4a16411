"""The signed shard map: namespace partition the directory cannot forge.

The paper's directory (Section 2) serves certificates "indexed by
content public key" and is untrusted: it can withhold entries (a
liveness attack) but cannot forge them.  :class:`ShardMap` extends the
same trust structure from one content key to a whole namespace of
content-key fingerprints: the owner partitions the fingerprint space
into shards via seeded rendezvous hashing, assigns each shard to a
master group, and *signs* the whole assignment with the content key.
The directory serves the map like any other listing -- clients verify
the signature against the a-priori-known content public key, so a
malicious directory can at worst serve a stale epoch or nothing at all,
delaying (never corrupting) routing.

Epochs are monotone: a rebalance publishes epoch ``n+1`` and clients
never adopt a map with an epoch at or below the one they hold, so a
replayed old map cannot un-move a shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import record_template, sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, Signature


class ShardMapError(Exception):
    """Raised when a shard map fails verification."""


_SHARD_MAP_RECORD = record_template(
    "namespace", "epoch", "seed", "shard_ids", "assignments", "issuer_id",
    "issued_at", kind="shard_map")


def shard_fingerprint(namespace: str, shard_id: str) -> str:
    """Directory index for one shard's master certificates.

    Each shard's master group is published under its own derived
    fingerprint so the single-key directory machinery (publish /
    withdraw / lookup) carries the whole namespace unchanged.
    """
    return sha1_hex(f"{namespace}/{shard_id}")


@dataclass(frozen=True, slots=True)
class ShardMap:
    """A signed (namespace, epoch, partition, assignment) binding."""

    #: Content-key fingerprint of the namespace owner -- the directory
    #: index under which this map is published, and the key clients use
    #: to verify it.
    namespace: str
    #: Monotone map version; rebalances bump it by one.
    epoch: int
    #: Rendezvous salt: owner-chosen, fixed for the namespace lifetime
    #: so key placement only moves when the shard set itself changes.
    seed: int
    shard_ids: tuple[str, ...]
    #: ``(shard_id, (master_id, ...))`` pairs: which master group serves
    #: each shard.  Tuples (not dicts) keep the signed payload canonical
    #: and the wire form hashable.
    assignments: tuple[tuple[str, tuple[str, ...]], ...]
    issuer_id: str
    issued_at: float
    signature: Signature
    #: Lazily-filled signed-payload memo; ``init=False`` keeps it off
    #: the wire and out of ``dataclasses.replace`` copies, so altered
    #: maps always re-serialise their own payload before verification.
    _payload_cache: bytes | None = field(default=None, init=False,
                                         compare=False, repr=False)

    @staticmethod
    def _signed_payload(namespace: str, epoch: int, seed: int,
                        shard_ids: tuple[str, ...],
                        assignments: tuple[tuple[str, tuple[str, ...]], ...],
                        issuer_id: str, issued_at: float) -> bytes:
        return _SHARD_MAP_RECORD.encode(
            namespace, epoch, seed, shard_ids, assignments, issuer_id,
            issued_at)

    @classmethod
    def make(cls, issuer_keys: KeyPair, namespace: str, epoch: int,
             seed: int, assignments: dict[str, tuple[str, ...]],
             issued_at: float) -> "ShardMap":
        """Build and sign a map from a ``shard_id -> master group`` dict.

        Shard ids are sorted so equal assignments always produce the
        same signed payload regardless of dict construction order.
        """
        shard_ids = tuple(sorted(assignments))
        pairs = tuple((sid, tuple(assignments[sid])) for sid in shard_ids)
        payload = cls._signed_payload(namespace, epoch, seed, shard_ids,
                                      pairs, issuer_keys.owner_id, issued_at)
        shard_map = cls(
            namespace=namespace,
            epoch=epoch,
            seed=seed,
            shard_ids=shard_ids,
            assignments=pairs,
            issuer_id=issuer_keys.owner_id,
            issued_at=issued_at,
            signature=issuer_keys.sign(payload),
        )
        object.__setattr__(shard_map, "_payload_cache", payload)
        return shard_map

    def signed_payload(self) -> bytes:
        """The exact bytes this map's signature covers (memoised)."""
        cached = self._payload_cache
        if cached is not None:
            return cached
        payload = self._signed_payload(self.namespace, self.epoch,
                                       self.seed, self.shard_ids,
                                       self.assignments, self.issuer_id,
                                       self.issued_at)
        object.__setattr__(self, "_payload_cache", payload)
        return payload

    def verify(self, verifier_keys: KeyPair,
               issuer_public_key: PublicKey) -> None:
        """Validate the owner signature and internal consistency.

        Raises :class:`ShardMapError` on any failure so callers cannot
        accidentally route on a forged or malformed map.
        """
        if not verifier_keys.verify(issuer_public_key, self.signed_payload(),
                                    self.signature):
            raise ShardMapError(
                f"shard map for {self.namespace!r} epoch {self.epoch} has "
                f"an invalid signature (claimed issuer {self.issuer_id!r})"
            )
        if tuple(sid for sid, _group in self.assignments) != self.shard_ids:
            raise ShardMapError(
                f"shard map epoch {self.epoch}: assignment keys do not "
                "match shard_ids"
            )
        if not self.shard_ids:
            raise ShardMapError("shard map has no shards")

    # -- routing ---------------------------------------------------------

    def shard_for(self, fingerprint: str) -> str:
        """Rendezvous-hash a content-key fingerprint onto a shard.

        Every holder of the same map epoch computes the same owner, and
        adding/removing one shard only moves the keys that rendezvous
        onto it -- the property that keeps rebalances incremental.
        """
        return max(self.shard_ids,
                   key=lambda sid: sha1_hex(f"{self.seed}:{sid}:{fingerprint}"))

    def masters_for(self, shard_id: str) -> tuple[str, ...]:
        """The master group assigned to ``shard_id`` (ShardMapError if
        the shard is not in this map)."""
        for sid, group in self.assignments:
            if sid == shard_id:
                return group
        raise ShardMapError(
            f"shard {shard_id!r} not in map epoch {self.epoch}"
        )
