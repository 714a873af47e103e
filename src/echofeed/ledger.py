"""User-owned consent ledger: a hash-chained, signed, append-only log.

Each block records one user action (a post, a consent grant or revocation,
or a token credit). Integrity rests on a canonical byte serialization of
the fields (index, prev_hash, timestamp, author, payload_type, payload), in
that order:

    index      8 bytes, unsigned big-endian
    prev_hash  32 bytes
    timestamp  8 bytes, unsigned big-endian (seconds since epoch)
    author     32 bytes (Ed25519 public key)
    type       1 byte
    payload    4-byte unsigned big-endian length, then the bytes

Both the block hash (SHA-256) and the author's Ed25519 signature are
computed over exactly these bytes; the stored JSON representation is just a
transport. The genesis block is system-authored (all-zero key) and carries
an all-zero signature, which verification accepts at index 0 only.

A ledger is a plain list of blocks in chain order. Consent and token
balances are pure functions of it: `accounts` replays the blocks to
reproduce them, and a user's latest consent block wins (default before any
consent block: False, opt-in).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping

from . import _ed25519
from ._atomic import atomic_write, dump_json
from .errors import (
    InvalidPayloadError,
    ParseError,
    SigningFailureError,
    UnregisteredUserError,
    VerificationFailureError,
)
from .ratings import RatingMatrix, filter_users, read_utf8

ZERO_HASH = b"\x00" * 32
GENESIS_AUTHOR = b"\x00" * 32
EMPTY_SIGNATURE = b"\x00" * 64


class PayloadType(IntEnum):
    POST = 0
    CONSENT_GRANT = 1
    CONSENT_REVOKE = 2
    TOKEN_CREDIT = 3


_TYPE_NAMES = {
    PayloadType.POST: "Post",
    PayloadType.CONSENT_GRANT: "ConsentGrant",
    PayloadType.CONSENT_REVOKE: "ConsentRevoke",
    PayloadType.TOKEN_CREDIT: "TokenCredit",
}
_NAMES_TO_TYPE = {name: int(t) for t, name in _TYPE_NAMES.items()}

# verification failure reasons, in check order
HASH_MISMATCH = "HashMismatch"
BROKEN_LINK = "BrokenLink"
BAD_INDEX = "BadIndex"
BAD_SIGNATURE = "BadSignature"


class Keypair:
    """Signing identity for one account: a 32-byte Ed25519 seed.

    The seed is expanded once, here; every signature reuses the result.
    """

    __slots__ = ("public_key", "_signing_key")

    def __init__(self, seed: bytes):
        if len(seed) != _ed25519.SEED_SIZE:
            raise SigningFailureError(f"signing seed must be {_ed25519.SEED_SIZE} bytes")
        self.public_key, self._signing_key = _ed25519.keypair(bytes(seed))

    def sign(self, message: bytes) -> bytes:
        try:
            return _ed25519.sign(self._signing_key, message)
        except Exception as exc:  # pragma: no cover - key material is pre-validated
            raise SigningFailureError(str(exc)) from exc


@dataclass(frozen=True)
class LedgerBlock:
    index: int
    prev_hash: bytes
    timestamp: int
    author: bytes
    payload_type: int
    payload: bytes
    signature: bytes
    hash: bytes

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash_hex": self.prev_hash.hex(),
            "timestamp": self.timestamp,
            "author_hex": self.author.hex(),
            "payload_type": _TYPE_NAMES[PayloadType(self.payload_type)],
            "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            "signature_hex": self.signature.hex(),
            "hash_hex": self.hash.hex(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LedgerBlock":
        """Inverse of to_json_dict; TypeError/KeyError/ValueError on a bad doc."""
        if not isinstance(doc, dict):
            raise TypeError(f"block must be a JSON object, got {type(doc).__name__}")
        index = doc["index"]
        if type(index) is not int:
            raise TypeError(f"index must be an integer, got {index!r}")
        timestamp = doc["timestamp"]
        if type(timestamp) is not int:
            raise TypeError(f"timestamp must be an integer, got {timestamp!r}")
        # positional, in field order: a ledger load builds thousands of these
        return cls(
            index,
            bytes.fromhex(doc["prev_hash_hex"]),
            timestamp,
            bytes.fromhex(doc["author_hex"]),
            _NAMES_TO_TYPE[doc["payload_type"]],
            base64.b64decode(doc["payload_b64"]),
            bytes.fromhex(doc["signature_hex"]),
            bytes.fromhex(doc["hash_hex"]),
        )


@dataclass(frozen=True)
class UserAccount:
    """Replay-derived view of one account at the current chain tip."""

    public_key: bytes
    consent: bool
    token_balance: int


@dataclass(frozen=True)
class PortableProfile:
    """Self-verifying export of one user's blocks, in ledger order."""

    public_key: bytes
    blocks: tuple[LedgerBlock, ...]


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    bad_index: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return f"invalid at index {self.bad_index}: {self.reason}"


def signing_bytes(
    index: int,
    prev_hash: bytes,
    timestamp: int,
    author: bytes,
    payload_type: int,
    payload: bytes,
) -> bytes:
    """Canonical bytes covered by both the block hash and the signature."""
    return b"".join(
        (
            struct.pack(">Q", index),
            prev_hash,
            struct.pack(">Q", timestamp),
            author,
            struct.pack(">B", payload_type),
            struct.pack(">I", len(payload)),
            payload,
        )
    )


def block_hash(canonical: bytes) -> bytes:
    return hashlib.sha256(canonical).digest()


def check_timestamp(timestamp: int) -> None:
    """Raise InvalidPayloadError unless timestamp fits a block's 8-byte field."""
    if not 0 <= timestamp < 2**64:
        raise InvalidPayloadError(f"timestamp must fit an unsigned 64-bit int, got {timestamp}")


def _seal(index, prev_hash, timestamp, author, payload_type, payload, sign) -> LedgerBlock:
    """Every new block is made here: signed by `sign` and hashed over one canonical encoding."""
    ts = int(timestamp)
    check_timestamp(ts)
    canonical = signing_bytes(index, prev_hash, ts, author, payload_type, payload)
    return LedgerBlock(
        index, prev_hash, ts, author, payload_type, payload,
        sign(canonical), block_hash(canonical),
    )


def new_ledger(timestamp: int = 0) -> list[LedgerBlock]:
    """Ledger holding only the system-authored genesis block."""
    genesis = _seal(
        0, ZERO_HASH, timestamp, GENESIS_AUTHOR, int(PayloadType.POST), b"",
        lambda _: EMPTY_SIGNATURE,
    )
    return [genesis]


def _validate_payload(payload_type: int, payload: bytes) -> None:
    try:
        ptype = PayloadType(payload_type)
    except ValueError:
        raise InvalidPayloadError(f"unknown payload type {payload_type}") from None
    if ptype in (PayloadType.CONSENT_GRANT, PayloadType.CONSENT_REVOKE):
        if payload != b"":
            raise InvalidPayloadError(f"{_TYPE_NAMES[ptype]} payload must be empty")
    elif ptype is PayloadType.TOKEN_CREDIT:
        if len(payload) != 8:
            raise InvalidPayloadError("TokenCredit payload must be an 8-byte unsigned amount")


def append_event(
    ledger: list[LedgerBlock],
    keypair: Keypair,
    payload_type: PayloadType | int,
    payload: bytes,
    timestamp: int,
) -> LedgerBlock:
    """Sign and append one block; returns it."""
    payload_type = int(payload_type)
    _validate_payload(payload_type, payload)
    prev_hash = ledger[-1].hash if ledger else ZERO_HASH
    block = _seal(
        len(ledger), prev_hash, timestamp, keypair.public_key, payload_type, bytes(payload),
        keypair.sign,
    )
    ledger.append(block)
    return block


def set_consent(
    ledger: list[LedgerBlock], keypair: Keypair, flag: bool, timestamp: int
) -> LedgerBlock:
    """Record a consent grant (flag True) or revocation (False)."""
    ptype = PayloadType.CONSENT_GRANT if flag else PayloadType.CONSENT_REVOKE
    return append_event(ledger, keypair, ptype, b"", timestamp)


def check_token_amount(amount: int) -> None:
    """Raise InvalidPayloadError unless amount fits a TokenCredit payload."""
    if amount < 0:
        raise InvalidPayloadError(f"token amount must be >= 0, got {amount}")
    if amount >= 2**64:
        raise InvalidPayloadError(f"token amount too large for 8 bytes: {amount}")


def credit_tokens(
    ledger: list[LedgerBlock], keypair: Keypair, amount: int, timestamp: int
) -> LedgerBlock:
    """Record a reward of `amount` tokens to the keypair's account."""
    amount = int(amount)
    check_token_amount(amount)
    return append_event(
        ledger, keypair, PayloadType.TOKEN_CREDIT, amount.to_bytes(8, "big"), timestamp
    )


def _canonical(block: LedgerBlock) -> bytes | None:
    """The block's canonical bytes, or None when its fields do not encode
    or do not hash to its `hash`."""
    try:
        canonical = signing_bytes(
            block.index,
            block.prev_hash,
            block.timestamp,
            block.author,
            block.payload_type,
            block.payload,
        )
    except (struct.error, ValueError):
        # unencodable fields cannot hash to anything, let alone match
        return None
    return canonical if block_hash(canonical) == block.hash else None


def verify_chain(ledger: list[LedgerBlock]) -> ChainReport:
    """Check every block: hash, linkage, index continuity, signature.

    Failures are reported (first one wins), never raised. The structural
    checks run first, up to the first block that fails one; the signatures
    before it are then checked in one batch, and a bad one among them is
    the first failure.
    """
    prev = ZERO_HASH
    triples: list[tuple[bytes, bytes, bytes]] = []
    signed_at: list[int] = []
    fault = None
    for pos, block in enumerate(ledger):
        canonical = _canonical(block)
        if canonical is None:
            fault = ChainReport(False, pos, HASH_MISMATCH)
        elif block.prev_hash != prev:
            fault = ChainReport(False, pos, BROKEN_LINK)
        elif block.index != pos:
            fault = ChainReport(False, pos, BAD_INDEX)
        elif block.author != GENESIS_AUTHOR:
            triples.append((block.author, block.signature, canonical))
            signed_at.append(pos)
        elif pos != 0 or block.signature != EMPTY_SIGNATURE:
            # only the genesis block may be unsigned, and its placeholder
            # signature is pinned so it is as tamper-evident as the rest
            fault = ChainReport(False, pos, BAD_SIGNATURE)
        if fault is not None:
            break
        prev = block.hash
    bad = _ed25519.first_invalid(triples)
    if bad is not None:
        return ChainReport(False, signed_at[bad], BAD_SIGNATURE)
    return fault or ChainReport(True)


def accounts(blocks: Iterable[LedgerBlock], keys: Iterable[bytes]) -> dict[bytes, UserAccount]:
    """Replay the blocks once; the account of every key asked about.

    A key's latest consent block wins, and a key with none has not
    consented (opt-in). Balances sum the key's TokenCredit amounts.
    """
    state = {bytes(key): [False, 0] for key in keys}
    for block in blocks:
        entry = state.get(block.author)
        # the system (genesis) account holds no consent and no tokens
        if entry is None or block.author == GENESIS_AUTHOR:
            continue
        ptype = block.payload_type
        if ptype == PayloadType.CONSENT_GRANT:
            entry[0] = True
        elif ptype == PayloadType.CONSENT_REVOKE:
            entry[0] = False
        elif ptype == PayloadType.TOKEN_CREDIT:
            entry[1] += int.from_bytes(block.payload, "big")
    return {key: UserAccount(key, consent, tokens) for key, (consent, tokens) in state.items()}


def consented_ratings(
    ledger: list[LedgerBlock], matrix: RatingMatrix, registry: Mapping[int, bytes]
) -> RatingMatrix:
    """Sub-matrix of the observations whose users currently consent.

    Dimensions are unchanged; rows of non-consenting users simply become
    empty. Every user appearing in the matrix must be in the registry.
    """
    present = sorted(set(matrix.users.tolist()))
    missing = [u for u in present if u not in registry]
    if missing:
        raise UnregisteredUserError(f"users {missing} have no registered public key")
    state = accounts(ledger, (registry[u] for u in present))
    return filter_users(matrix, [u for u in present if state[bytes(registry[u])].consent])


def export_profile(ledger: list[LedgerBlock], public_key: bytes) -> PortableProfile:
    """All blocks authored by this key, in ledger order."""
    public_key = bytes(public_key)
    blocks = tuple(b for b in ledger if b.author == public_key)
    if not blocks:
        raise UnregisteredUserError(f"no blocks authored by {public_key.hex()}")
    return PortableProfile(public_key=public_key, blocks=blocks)


def import_profile(profile: PortableProfile) -> UserAccount:
    """Re-verify an exported profile and rebuild its account view.

    Needs no access to the origin ledger: each block is checked for hash
    integrity, a valid signature under the profile key, and strictly
    ascending chain positions.
    """
    if not profile.blocks:
        raise VerificationFailureError("profile contains no blocks")
    # block i's signature triple is triples[i]: every block before the
    # first structural fault adds one, and so does an out-of-order block,
    # because its bad signature would be reported before its order
    triples: list[tuple[bytes, bytes, bytes]] = []
    fault = None
    last_index = -1
    for block in profile.blocks:
        canonical = _canonical(block)
        if block.author != profile.public_key:
            fault = f"block {block.index} authored by a different key"
        elif canonical is None:
            fault = f"block {block.index}: hash mismatch"
        elif block.author == GENESIS_AUTHOR:
            # the genesis key signs nothing, so a profile under it proves nothing
            fault = f"block {block.index}: bad signature"
        else:
            triples.append((block.author, block.signature, canonical))
            if block.index <= last_index:
                fault = f"block {block.index}: out of order"
        if fault is not None:
            break
        last_index = block.index
    bad = _ed25519.first_invalid(triples)
    if bad is not None:
        raise VerificationFailureError(f"block {profile.blocks[bad].index}: bad signature")
    if fault is not None:
        raise VerificationFailureError(fault)
    return accounts(profile.blocks, [profile.public_key])[profile.public_key]


def _block_line(block: LedgerBlock) -> str:
    return dump_json(block.to_json_dict(), sort_keys=True)


def save_ledger(ledger: list[LedgerBlock], path: str | Path) -> None:
    """One block per line, JSON; integrity lives in the canonical bytes.

    The file is replaced atomically: a failed write leaves the old one.
    """
    with atomic_write(path) as fh:
        fh.writelines(_block_line(b) for b in ledger)


def append_blocks(blocks: Iterable[LedgerBlock], path: str | Path) -> None:
    """Add blocks to the end of a ledger file in one write.

    Lines already in the file are never rewritten, so appending to a file
    save_ledger wrote gives the bytes save_ledger would write for the
    longer chain. A missing final newline is supplied first.
    """
    data = "".join(_block_line(b) for b in blocks).encode("utf-8")
    if not data:
        return
    with open(path, "a+b") as fh:
        if fh.tell():
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)


def load_ledger(path: str | Path) -> list[LedgerBlock]:
    text = read_utf8(path, "bad ledger block: ")
    decode = json.JSONDecoder().raw_decode
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            try:
                doc, end = decode(line)
            except (ValueError, RecursionError):
                end = -1
            if end != len(line):
                # not one bare JSON value (padding, a blank line, a BOM,
                # trailing data, bad JSON): skip blanks, let json.loads word
                # the error
                if not line.strip():
                    continue
                doc = json.loads(line)
            blocks.append(LedgerBlock.from_json_dict(doc))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ParseError(f"bad ledger block: {exc}", lineno) from exc
    if not blocks:
        raise ParseError(f"{path}: no ledger blocks, not even a genesis block")
    return blocks


def save_profile(profile: PortableProfile, path: str | Path) -> None:
    """The profile as one JSON document, replacing the file atomically."""
    doc = {
        "public_key_hex": profile.public_key.hex(),
        "blocks": [b.to_json_dict() for b in profile.blocks],
    }
    dump_json(doc, path, sort_keys=True, indent=2)


def load_profile(path: str | Path) -> PortableProfile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        public_key = bytes.fromhex(doc["public_key_hex"])
        blocks = tuple(LedgerBlock.from_json_dict(b) for b in doc["blocks"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not a valid profile file ({exc})") from exc
    return PortableProfile(public_key=public_key, blocks=blocks)
