"""Unit tests for the signer abstraction (RSA and HMAC schemes)."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.signatures import (
    HMACPublicKey,
    HMACSigner,
    RSASigner,
    new_signer,
    verify_signature,
)


class TestHMACSigner:
    def test_roundtrip(self):
        signer = HMACSigner(rng=random.Random(1))
        sig = signer.sign(b"payload")
        assert verify_signature(signer.public_key, b"payload", sig)

    def test_tamper_fails(self):
        signer = HMACSigner(rng=random.Random(1))
        sig = signer.sign(b"payload")
        assert not verify_signature(signer.public_key, b"other", sig)

    def test_wrong_key_fails(self):
        a = HMACSigner(rng=random.Random(1))
        b = HMACSigner(rng=random.Random(2))
        sig = a.sign(b"m")
        assert not verify_signature(b.public_key, b"m", sig)

    def test_non_bytes_signature_rejected(self):
        signer = HMACSigner(rng=random.Random(1))
        assert not verify_signature(signer.public_key, b"m", 12345)

    def test_public_key_equality(self):
        # Equal keys give equal handles; the handle is not the key.
        signer = HMACSigner(key_bytes=b"k" * 32)
        handle = hashlib.sha1(b"k" * 32).digest()
        assert signer.public_key == HMACPublicKey(handle)
        assert hash(signer.public_key) == hash(HMACPublicKey(handle))
        assert signer.public_key == HMACSigner(key_bytes=b"k" * 32).public_key
        assert signer.public_key != HMACSigner(key_bytes=b"j" * 32).public_key
        assert signer.public_key.fingerprint() == handle.hex()[:16]

    def test_unknown_handle_verifies_nothing(self):
        signer = HMACSigner(rng=random.Random(1))
        sig = signer.sign(b"m")
        stranger = HMACPublicKey(hashlib.sha1(b"never a signer").digest())
        assert not verify_signature(stranger, b"m", sig)

    def test_public_key_cannot_sign(self):
        # Whatever bytes a public key holds, an HMAC over them is not a
        # signature its owner made.
        signer = HMACSigner(rng=random.Random(1))
        held = [value for name in dir(signer.public_key)
                if isinstance(value := getattr(signer.public_key, name),
                              bytes)]
        assert held
        for value in held:
            forged = HMACSigner(key_bytes=value).sign(b"m")
            assert not verify_signature(signer.public_key, b"m", forged)

    def test_fingerprint_stable(self):
        signer = HMACSigner(key_bytes=b"k" * 32)
        assert signer.public_key.fingerprint() == \
            signer.public_key.fingerprint()


class TestRSASignerScheme:
    @pytest.fixture(scope="class")
    def signer(self):
        return RSASigner(bits=512, rng=random.Random(3))

    def test_roundtrip(self, signer):
        sig = signer.sign(b"payload")
        assert verify_signature(signer.public_key, b"payload", sig)

    def test_cross_scheme_verification_fails(self, signer):
        hmac_signer = HMACSigner(rng=random.Random(4))
        sig = hmac_signer.sign(b"m")
        # An RSA signature under an HMAC key must not verify, and an HMAC
        # tag under an RSA key must not either.
        assert not verify_signature(hmac_signer.public_key, b"m",
                                    signer.sign(b"m"))
        assert not verify_signature(signer.public_key, b"m", sig)


class TestNewSigner:
    def test_creates_rsa(self):
        signer = new_signer("rsa", rng=random.Random(5), rsa_bits=256)
        assert signer.scheme == "rsa"

    def test_creates_hmac(self):
        signer = new_signer("hmac", rng=random.Random(5))
        assert signer.scheme == "hmac"

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown signature scheme"):
            new_signer("dsa")


class TestKeyPair:
    def test_sign_and_verify_counts(self):
        keys = KeyPair("node-a", HMACSigner(rng=random.Random(6)))
        sig = keys.sign(b"m")
        assert keys.signatures_made == 1
        assert keys.verify(keys.public_key, b"m", sig)
        assert keys.verifications_done == 1

    def test_verify_other_principals_signature(self):
        alice = KeyPair("alice", HMACSigner(rng=random.Random(7)))
        bob = KeyPair("bob", HMACSigner(rng=random.Random(8)))
        sig = alice.sign(b"from alice")
        assert bob.verify(alice.public_key, b"from alice", sig)
        assert not bob.verify(alice.public_key, b"forged", sig)
