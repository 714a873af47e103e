"""Ed25519 signing primitives with two interchangeable backends.

libsodium (loaded via ctypes when the shared library is present) verifies
roughly twice as fast as the cryptography package on the machines this was
measured on, which matters when validating long chains. Ed25519 signatures
are deterministic (RFC 8032), so both backends produce byte-identical
output; the fallback keeps the package working without libsodium.
"""

from __future__ import annotations

import ctypes
import ctypes.util

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SEED_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64


def _load_sodium():
    name = ctypes.util.find_library("sodium")
    if not name:
        return None
    try:
        lib = ctypes.CDLL(name)
        if lib.sodium_init() < 0:
            return None
        lib.crypto_sign_ed25519_seed_keypair.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p]
        lib.crypto_sign_ed25519_detached.argtypes = [
            ctypes.c_char_p, ctypes.POINTER(ctypes.c_ulonglong),
            ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p]
        lib.crypto_sign_ed25519_verify_detached.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p]
        lib.crypto_sign_ed25519_verify_detached.restype = ctypes.c_int
        return lib
    except OSError:
        return None


_sodium = _load_sodium()


def keypair(seed: bytes) -> tuple[bytes, object]:
    """(public key, signing key) for a 32-byte seed, from one derivation.

    The signing key is what sign() takes: libsodium's 64-byte expanded
    secret key, or a cryptography Ed25519PrivateKey on the fallback.
    """
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    if _sodium is not None:
        pk = ctypes.create_string_buffer(PUBLIC_KEY_SIZE)
        sk = ctypes.create_string_buffer(64)
        _sodium.crypto_sign_ed25519_seed_keypair(pk, sk, seed)
        return pk.raw, sk.raw
    key = Ed25519PrivateKey.from_private_bytes(seed)
    return key.public_key().public_bytes_raw(), key


def sign(signing_key, message: bytes) -> bytes:
    """64-byte detached signature over message by a key from keypair()."""
    if isinstance(signing_key, Ed25519PrivateKey):
        return signing_key.sign(message)
    if _sodium is None or len(signing_key) != 64:
        raise ValueError("not a libsodium signing key")
    sig = ctypes.create_string_buffer(SIGNATURE_SIZE)
    siglen = ctypes.c_ulonglong(0)
    _sodium.crypto_sign_ed25519_detached(
        sig, ctypes.byref(siglen), message, len(message), signing_key
    )
    return sig.raw


def verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature is a valid detached signature by public_key."""
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    if _sodium is not None:
        return (
            _sodium.crypto_sign_ed25519_verify_detached(
                signature, message, len(message), public_key
            )
            == 0
        )
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
