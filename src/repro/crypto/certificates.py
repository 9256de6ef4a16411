"""Digital certificates binding server addresses to public keys.

Section 2 of the paper: "The master servers' public keys are certified
through digital certificates issued by the content owner (and signed with
the content key).  These certificates bind each server's contact address
(IP address and port number) to its public key, and are stored in a public
directory, indexed by content public key."

:class:`Certificate` is exactly that binding.  The same structure is reused
for slave keys handed from a master to a client during the setup phase --
there the *issuer* is the master rather than the content owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import record_template
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, Signature


class CertificateError(Exception):
    """Raised when a certificate fails verification."""


_CERTIFICATE_RECORD = record_template(
    "subject_id", "address", "public_key", "issuer_id", "issued_at",
    "expires_at", kind="certificate")


@dataclass(frozen=True, slots=True)
class Certificate:
    """A signed (subject, address, public key, validity) binding."""

    subject_id: str
    address: str
    subject_public_key: PublicKey
    issuer_id: str
    issued_at: float
    expires_at: float
    signature: Signature
    #: Lazily-filled signed-payload memo; ``init=False`` keeps it out of
    #: ``dataclasses.replace`` copies, so altered certificates always
    #: re-serialise their own payload before verification.
    _payload_cache: bytes | None = field(default=None, init=False,
                                         compare=False, repr=False)

    @staticmethod
    def _signed_payload(subject_id: str, address: str,
                        subject_public_key: PublicKey,
                        issuer_id: str, issued_at: float,
                        expires_at: float) -> bytes:
        return _CERTIFICATE_RECORD.encode(
            subject_id, address, repr(subject_public_key), issuer_id,
            issued_at, expires_at)

    @classmethod
    def issue(cls, issuer_keys: KeyPair, subject_id: str, address: str,
              subject_public_key: PublicKey, issued_at: float,
              lifetime: float = float("inf")) -> "Certificate":
        """Issue a certificate signed with ``issuer_keys``.

        ``lifetime`` defaults to infinite because the paper does not discuss
        expiry; benchmarks that rotate keys pass a finite lifetime.
        """
        expires_at = issued_at + lifetime
        payload = cls._signed_payload(subject_id, address, subject_public_key,
                                      issuer_keys.owner_id, issued_at, expires_at)
        cert = cls(
            subject_id=subject_id,
            address=address,
            subject_public_key=subject_public_key,
            issuer_id=issuer_keys.owner_id,
            issued_at=issued_at,
            expires_at=expires_at,
            signature=issuer_keys.sign(payload),
        )
        object.__setattr__(cert, "_payload_cache", payload)
        return cert

    def signed_payload(self) -> bytes:
        """The exact bytes this certificate's signature covers (memoised)."""
        cached = self._payload_cache
        if cached is not None:
            return cached
        payload = self._signed_payload(self.subject_id, self.address,
                                       self.subject_public_key,
                                       self.issuer_id, self.issued_at,
                                       self.expires_at)
        object.__setattr__(self, "_payload_cache", payload)
        return payload

    def verify(self, verifier_keys: KeyPair, issuer_public_key: PublicKey,
               now: float | None = None) -> None:
        """Validate signature (and expiry, if ``now`` is given).

        Raises :class:`CertificateError` on any failure so callers cannot
        accidentally ignore a bad certificate.
        """
        if not verifier_keys.verify(issuer_public_key, self.signed_payload(),
                                    self.signature):
            raise CertificateError(
                f"certificate for {self.subject_id!r} has an invalid signature "
                f"(claimed issuer {self.issuer_id!r})"
            )
        if now is not None and now > self.expires_at:
            raise CertificateError(
                f"certificate for {self.subject_id!r} expired at "
                f"{self.expires_at} (now {now})"
            )
