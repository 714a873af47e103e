"""Ed25519 signing primitives with two interchangeable backends.

libsodium (loaded via ctypes when the shared library is present) verifies
roughly twice as fast as the cryptography package on the machines this was
measured on, which matters when validating long chains. Ed25519 signatures
are deterministic (RFC 8032), so both backends produce byte-identical
output; the fallback keeps the package working without libsodium.

first_invalid checks a batch of signatures. _valid is the one per-signature
check (verify calls it too) and _first_invalid_in the one loop that runs it
over a range of the batch. Each check is independent, and ctypes releases
the interpreter lock for the length of a libsodium call, so on libsodium a
batch of at least PARALLEL_FLOOR signatures is split into one contiguous
chunk per CPU this process may run on, and the chunks run at once on one
pool made at import, whose threads start with the first batch it is given.
The cryptography fallback holds the lock while it verifies, so threads only
add hand-offs there: it, a short batch and a single CPU stay on the calling
thread. Pool threads call only these private functions, never verify or
sign, so a caller may wrap the public ones with code that is not
thread-safe.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SEED_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# below this many signatures a batch is checked on the calling thread: the
# hand-off to the pool costs more than the checks it would spread
PARALLEL_FLOOR = 16


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


def _valid(public_key: bytes, signature: bytes, message: bytes) -> bool:
    # libsodium reads exactly 32 and 64 bytes behind these pointers
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    if _sodium is not None:
        return _sodium.crypto_sign_ed25519_verify_detached(
            signature, message, len(message), public_key) == 0
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature is a valid detached signature by public_key."""
    return _valid(public_key, signature, message)


def _first_invalid_in(items, start: int, stop: int) -> int | None:
    for pos in range(start, stop):
        if not _valid(*items[pos]):
            return pos
    return None


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_pool() -> None:
    # no thread starts until work is submitted; a forked child inherits the
    # pool but none of its threads, so it gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(max(_cpus() - 1, 1), thread_name_prefix="ed25519-verify")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def first_invalid(items: Sequence[tuple[bytes, bytes, bytes]]) -> int | None:
    """Position of the first (public_key, signature, message) triple whose
    signature does not verify, or None when every one does.
    """
    cpus = _cpus()
    if _sodium is None or len(items) < PARALLEL_FLOOR or cpus == 1:
        return _first_invalid_in(items, 0, len(items))
    chunks = min(cpus, len(items))
    bounds = [len(items) * c // chunks for c in range(chunks + 1)]
    futures = [
        _pool.submit(_first_invalid_in, items, bounds[c], bounds[c + 1])
        for c in range(1, chunks)
    ]
    # the calling thread takes chunk 0; a chunk stops at its own first
    # failure and the lowest failing position wins
    found = [_first_invalid_in(items, 0, bounds[1])]
    found += [f.result() for f in futures]
    return min((pos for pos in found if pos is not None), default=None)
