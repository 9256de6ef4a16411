"""Pure-Python RSA key generation, signing and verification.

No third-party crypto package is available offline, so the reproduction
implements textbook RSA with full-domain hash padding directly on top of
Python integers.  The goal is behavioural fidelity for the paper's claims,
not production-grade cryptography:

* slaves must produce a *digital signature per read* (Section 3.2), which
  is the dominant cost the auditor avoids (Section 3.4) -- RSA's
  sign/verify cost asymmetry is real here because signing uses the private
  exponent ``d`` (CRT-accelerated) while verification uses a small public
  exponent;
* forging a signature without the private key must be infeasible *within
  the simulation's threat model* -- adversary strategies in
  :mod:`repro.core.adversary` never attempt key recovery, mirroring the
  paper's assumption that a client cannot "fake the slave's digital
  signature" (Section 3.3).

Key generation uses Miller-Rabin over a caller-supplied ``random.Random``
so that whole-system simulations remain fully deterministic per seed.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass

from repro.crypto import entropy

DEFAULT_KEY_BITS = 512
PUBLIC_EXPONENT = 65537

# Small primes used to cheaply reject most candidates before Miller-Rabin.
_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin primality test with a small-prime pre-filter."""
    if candidate < 2:
        return False
    if candidate in (2, 3):
        return True
    if candidate % 2 == 0:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True, slots=True)
class RSAPublicKey:
    """The (n, e) half of an RSA key; safe to publish in certificates."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def fingerprint(self) -> str:
        """Short stable identifier used in logs and directory entries."""
        return _fingerprint(self.n, self.e)


@functools.lru_cache(maxsize=1024)
def _fingerprint(n: int, e: int) -> str:
    material = f"{n:x}:{e:x}".encode("ascii")
    return hashlib.sha1(material).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class RSAKeyPair:
    """A full RSA keypair with CRT parameters for fast signing.

    The private members (``d``, ``p``, ``q`` and the CRT exponents) never
    leave the owning server object in the simulation, mirroring the paper's
    "content private key is known only by the content owner" rule.  Over
    sockets a slave's numbers also cross one pipe, to the signing worker
    process its own deployment starts (:mod:`repro.net.signworker`).
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def _private_op(self, value: int) -> int:
        """RSA private-key operation using the Chinese Remainder Theorem."""
        m1 = pow(value, self.d_p, self.p)
        m2 = pow(value, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q


def generate_rsa_keypair(
    bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None
) -> RSAKeyPair:
    """Generate an RSA keypair of roughly ``bits`` modulus bits.

    ``rng`` drives all randomness; passing a seeded ``random.Random`` makes
    key generation (and therefore all downstream signatures) reproducible.
    Omitting it falls back to the deterministic per-process stream in
    :mod:`repro.crypto.entropy` (never OS entropy).
    """
    if rng is None:
        rng = entropy.fallback_rng()
    if bits < 128:
        raise ValueError(f"RSA modulus of {bits} bits is too small to be useful")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue
        d = pow(PUBLIC_EXPONENT, -1, phi)
        return RSAKeyPair(
            n=n,
            e=PUBLIC_EXPONENT,
            d=d,
            p=p,
            q=q,
            d_p=d % (p - 1),
            d_q=d % (q - 1),
            q_inv=pow(q, -1, p),
        )


@functools.lru_cache(maxsize=64)
def _fdh_params(n_bits: int) -> tuple[int, int]:
    """(target byte length, SHA-1 block count) for a modulus bit length."""
    target_len = (n_bits + 7) // 8 + 8
    return target_len, -(-target_len // hashlib.sha1().digest_size)


def _full_domain_hash(message: bytes, n: int) -> int:
    """Expand SHA-1 into a full-domain hash modulo ``n`` (FDH padding).

    Chains counters through SHA-1 until enough bytes cover the modulus,
    then reduces.  This is the classic RSA-FDH construction; it keeps the
    signed value spread over the whole group rather than signing a tiny
    160-bit integer directly.

    Each block is ``SHA-1(message || counter)``; the message prefix is
    hashed once and ``copy()``-ed per block, which produces identical
    digests to rehashing ``message + counter`` from scratch.
    """
    target_len, n_blocks = _fdh_params(n.bit_length())
    prefix = hashlib.sha1(message)
    blocks: list[bytes] = []
    for counter in range(n_blocks):
        block = prefix.copy()
        block.update(counter.to_bytes(4, "big"))
        blocks.append(block.digest())
    value = int.from_bytes(b"".join(blocks)[:target_len], "big")
    return value % n


def rsa_sign(keypair: RSAKeyPair, message: bytes) -> int:
    """Sign ``message`` with the private key (RSA-FDH)."""
    digest = _full_domain_hash(message, keypair.n)
    return keypair._private_op(digest)


def rsa_verify(public_key: RSAPublicKey, message: bytes,
               signature: object) -> bool:
    """Verify an RSA-FDH signature.  Returns False rather than raising.

    ``signature`` is whatever the wire delivered; anything that is not
    an in-range integer is simply an invalid signature.
    """
    if not isinstance(signature, int):
        return False
    if not 0 <= signature < public_key.n:
        return False
    expected = _full_domain_hash(message, public_key.n)
    return pow(signature, public_key.e, public_key.n) == expected
