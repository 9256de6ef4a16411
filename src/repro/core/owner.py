"""The content owner: holds the content key, certifies master servers.

Section 2: "this is one individual or organization which administers the
content, and is in charge of setting an access control policy for it ...
The content private key is known only by the content owner, while the
content public key needs to be known by every client."

The owner is not a network node during normal operation -- it acts at
deployment time: generating the content key, certifying each master's
public key, and publishing those certificates in the directory.
"""

from __future__ import annotations

import random

from repro.core.directory import DirectoryServer
from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, key_fingerprint, new_signer
from repro.shard.map import ShardMap


class ContentOwner:
    """Offline principal owning the content key."""

    def __init__(self, owner_id: str, signer_scheme: str = "hmac",
                 rsa_bits: int = 512,
                 rng: random.Random | None = None) -> None:
        self.owner_id = owner_id
        self.keys = KeyPair(owner_id, new_signer(
            signer_scheme, rng=rng, rsa_bits=rsa_bits))
        self.issued: list[Certificate] = []

    @property
    def content_public_key(self) -> PublicKey:
        """The content public key -- part of the content identifier, so
        clients know it a priori (the self-certifying-name trick of [5])."""
        return self.keys.public_key

    def content_key_fingerprint(self) -> str:
        return key_fingerprint(self.content_public_key)

    def certify_master(self, master_id: str, address: str,
                       master_public_key: PublicKey, now: float = 0.0) -> Certificate:
        """Issue a certificate binding a master's address to its key."""
        cert = Certificate.issue(self.keys, master_id, address,
                                 master_public_key, issued_at=now)
        self.issued.append(cert)
        return cert

    def sign_shard_map(self, epoch: int, seed: int,
                       assignments: dict[str, tuple[str, ...]],
                       now: float = 0.0) -> ShardMap:
        """Sign a shard map for this owner's namespace.

        Only the owner can do this -- the directory serves the result
        but cannot forge it, exactly like master certificates.
        """
        return ShardMap.make(self.keys, self.content_key_fingerprint(),
                             epoch, seed, assignments, issued_at=now)

    def publish_all(self, directory: DirectoryServer) -> None:
        """Push every issued certificate into the public directory."""
        fingerprint = self.content_key_fingerprint()
        for cert in self.issued:
            directory.publish(fingerprint, cert)
