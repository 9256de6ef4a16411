"""Signature schemes: real RSA and a fast HMAC stand-in.

Two interchangeable signers implement the :class:`Signer` protocol:

:class:`RSASigner`
    Pure-Python RSA-FDH (see :mod:`repro.crypto.rsa`).  Used wherever the
    *cost* of signing matters -- the crypto micro-benchmarks (experiment
    E10) and the auditor-throughput experiment (E4) that reproduce the
    paper's claim that the auditor wins by not signing.

:class:`HMACSigner`
    An HMAC-SHA1 "signature" with the usual ideal-signature treatment of
    a simulation: the public key is a handle, ``sha1(key)``, and
    verification looks the key up by handle in a table private to this
    module.  So whoever holds a public key -- a client with its slaves'
    certificates, a slave with its masters' -- can verify but not sign,
    and a pledge stays evidence against its slave alone (the paper's
    §3.2-3.3).  It makes 100k-read simulations fast.  The table is one
    process's: a deployment across processes uses RSA.

``new_signer`` picks a scheme by name so system configs can select one with
a string.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import Protocol, Union

from repro.crypto import entropy, fastpath
from repro.crypto import rsa as _rsa

#: A well-formed signature: an RSA-FDH integer or an HMAC tag.  Values
#: received off the wire are *claimed* signatures and may be anything an
#: adversary crafts, so verification entry points accept ``object`` and
#: narrow with isinstance checks.
Signature = Union[int, bytes]


class MetricsLike(Protocol):
    """The slice of :class:`repro.metrics.registry.MetricsRegistry` the
    crypto layer reports into (structural, to avoid a package cycle)."""

    def incr(self, name: str, amount: float = 1.0) -> None: ...


class Signer(Protocol):
    """Minimal signature-scheme interface used by all protocol code."""

    @property
    def public_key(self) -> "PublicKey":
        """Public half, safe to publish."""

    def sign(self, message: bytes) -> Signature:
        """Produce a signature over ``message`` with the private half."""


class RSASigner:
    """RSA-FDH signer; the production-faithful scheme."""

    scheme = "rsa"

    def __init__(self, keypair: _rsa.RSAKeyPair | None = None,
                 bits: int = _rsa.DEFAULT_KEY_BITS,
                 rng: random.Random | None = None) -> None:
        self._keypair = keypair or _rsa.generate_rsa_keypair(bits=bits, rng=rng)

    @property
    def public_key(self) -> _rsa.RSAPublicKey:
        return self._keypair.public_key

    @property
    def keypair(self) -> _rsa.RSAKeyPair:
        """The private numbers, for the one signing worker process a
        socket deployment owns (:mod:`repro.net.signworker`)."""
        return self._keypair

    def sign(self, message: bytes) -> int:
        return _rsa.rsa_sign(self._keypair, message)


#: Handle -> key of every :class:`HMACSigner` made in this process.
#: Only this module reads it: a node holding another's public key holds
#: the handle, which cannot sign.  The table does not cross processes,
#: so a deployment with a process per node signs with ``rsa``.
_HMAC_KEYS: dict[bytes, bytes] = {}


@dataclass(frozen=True, slots=True)
class HMACPublicKey:
    """The public half of an HMAC key: ``sha1(key)``, the handle under
    which :func:`verify_signature` finds the key of the signer that made
    it.  Verifies, and cannot sign."""

    handle: bytes

    def __post_init__(self) -> None:
        if self.handle.__class__ is not bytes:
            raise TypeError("an HMAC handle is bytes")

    def fingerprint(self) -> str:
        return self.handle.hex()[:16]

    def __hash__(self) -> int:
        # Explicit: the verify cache hashes the key on every lookup.
        return hash(self.handle)

    def __repr__(self) -> str:
        # Part of every certificate's signed payload; do not change.
        return f"HMACPublicKey({self.fingerprint()})"


class HMACSigner:
    """HMAC-SHA1 'signature' scheme for fast large-scale simulation."""

    scheme = "hmac"

    def __init__(self, key_bytes: bytes | None = None,
                 rng: random.Random | None = None) -> None:
        if key_bytes is None:
            rng = rng or entropy.fallback_rng()
            key_bytes = rng.getrandbits(256).to_bytes(32, "big")
        handle = hashlib.sha1(key_bytes).digest()
        _HMAC_KEYS[handle] = key_bytes
        self._public_key = HMACPublicKey(handle)
        # The HMAC key schedule (ipad/opad absorption) depends only on
        # the key; precompute it once and .copy() per signature.  Tags
        # are byte-identical to hmac.new(key, message, sha1).
        self._mac = hmac.new(key_bytes, digestmod=hashlib.sha1)

    @property
    def public_key(self) -> HMACPublicKey:
        return self._public_key

    def sign(self, message: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(message)
        return mac.digest()

    def sign_many(self, messages: "list[bytes]") -> "list[bytes]":
        """Sign a batch; one key-schedule copy per tag, no per-call
        ``hmac.new``.  Equivalent to ``[self.sign(m) for m in messages]``."""
        base = self._mac
        tags = []
        for message in messages:
            mac = base.copy()
            mac.update(message)
            tags.append(mac.digest())
        return tags


#: The public-key objects the two schemes publish; certificates and
#: directory listings carry one of these.
PublicKey = Union[_rsa.RSAPublicKey, HMACPublicKey]


def key_fingerprint(public_key: PublicKey) -> str:
    """The one fingerprint directory listings, shard-map namespaces,
    client lookups and admission principals are keyed by."""
    return public_key.fingerprint()


def _hmac_verify(public_key: HMACPublicKey, message: bytes,
                 signature: object) -> bool:
    key = _HMAC_KEYS.get(public_key.handle)
    if key is None or not isinstance(signature, (bytes, bytearray)):
        return False
    # One-shot digest: no HMAC object and no key schedule rebuilt in
    # Python per verification (tags equal hmac.new(...).digest()).
    expected = hmac.digest(key, message, "sha1")
    return hmac.compare_digest(expected, bytes(signature))


def verify_signature(public_key: object, message: bytes, signature: object,
                     metrics: "MetricsLike | None" = None) -> bool:
    """Verify a signature, dispatching on the *public key's* scheme.

    This is the verification entry point all protocol code uses (via
    :meth:`repro.crypto.keys.KeyPair.verify`).  Dispatching on the key
    rather than on the verifier's own signer is what lets a client whose
    personal keys are cheap HMAC verify RSA-signed certificates, stamps
    and pledges -- the mixed deployment every ``signer_scheme="rsa"``
    system actually is.  (A verifier's own signer cannot verify: routed
    through it, cross-scheme verification would silently fail and
    clients could never complete setup against RSA masters.)

    Repeated verifications of the identical ``(public key, payload,
    signature)`` triple -- the same master stamp checked by every read
    reply in a keep-alive interval, the same keep-alive fan-out checked
    by every slave -- are answered from a bounded LRU.  The key pins the
    exact payload and signature bytes, so the cache can only ever
    short-circuit a *repeated* check: a garbled signature or a tampered
    payload produces a different key and is verified for real.  Both
    verdicts are cached (repeated forgeries are re-rejected cheaply).

    ``metrics``, when given, receives ``verify_cache_hits`` /
    ``verify_cache_misses`` counter increments so each simulation run
    can report how much crypto it actually avoided.
    """
    try:
        sig_key = bytes(signature) if isinstance(signature, bytearray) \
            else signature
        key = (public_key, message, sig_key)
        cached = fastpath.VERIFY_CACHE.get(key)
    except TypeError:
        key = None
        cached = fastpath.MISS
    if cached is not fastpath.MISS:
        if metrics is not None:
            metrics.incr("verify_cache_hits")
        return cached
    result = _verify_dispatch(public_key, message, signature)
    if key is not None:
        fastpath.VERIFY_CACHE.put(key, result)
    if metrics is not None:
        metrics.incr("verify_cache_misses")
    return result


def verify_many(
    triples: "list[tuple[object, bytes, object]]",
    metrics: "MetricsLike | None" = None,
) -> "list[bool]":
    """Verify ``(public_key, message, signature)`` triples, in order.

    Each goes through :func:`verify_signature`, so every verdict is
    recorded in the fastpath verify cache under the key a later
    individual check of the same triple will hit.
    """
    return [verify_signature(public_key, message, signature, metrics)
            for public_key, message, signature in triples]


def _verify_dispatch(public_key: object, message: bytes,
                     signature: object) -> bool:
    """Scheme dispatch by public-key type; unknown keys verify nothing."""
    if isinstance(public_key, _rsa.RSAPublicKey):
        return _rsa.rsa_verify(public_key, message, signature)
    if isinstance(public_key, HMACPublicKey):
        return _hmac_verify(public_key, message, signature)
    return False


def new_signer(scheme: str, rng: random.Random | None = None,
               rsa_bits: int = _rsa.DEFAULT_KEY_BITS) -> Signer:
    """Instantiate a signer by scheme name (``"rsa"`` or ``"hmac"``)."""
    if scheme == "rsa":
        return RSASigner(bits=rsa_bits, rng=rng)
    if scheme == "hmac":
        return HMACSigner(rng=rng)
    raise ValueError(
        f"unknown signature scheme {scheme!r}; expected 'hmac' or 'rsa'")
