import dataclasses
import json
import random

import pytest

from echofeed import _ed25519
from echofeed.errors import (
    InvalidPayloadError,
    ParseError,
    SigningFailureError,
    UnregisteredUserError,
    VerificationFailureError,
)
from echofeed.ledger import (
    BAD_INDEX,
    BAD_SIGNATURE,
    BROKEN_LINK,
    EMPTY_SIGNATURE,
    GENESIS_AUTHOR,
    HASH_MISMATCH,
    ZERO_HASH,
    Keypair,
    LedgerBlock,
    PayloadType,
    UserAccount,
    _canonical,
    accounts,
    append_event,
    block_hash,
    consented_ratings,
    credit_tokens,
    export_profile,
    import_profile,
    load_ledger,
    load_profile,
    new_ledger,
    save_ledger,
    save_profile,
    set_consent,
    signing_bytes,
    verify_chain,
)
from echofeed.ratings import from_triplets, load_csv


def keypair(n: int) -> Keypair:
    return Keypair(bytes([n]) * 32)


def replace_block(ledger: list[LedgerBlock], pos: int, **changes) -> list[LedgerBlock]:
    blocks = list(ledger)
    blocks[pos] = dataclasses.replace(blocks[pos], **changes)
    return blocks


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def account_of(led: list[LedgerBlock], public_key: bytes) -> UserAccount:
    return accounts(led, [public_key])[public_key]


def sample_ledger():
    led = new_ledger(timestamp=1000)
    alice, bob = keypair(1), keypair(2)
    append_event(led, alice, PayloadType.POST, b"hello", 1001)
    set_consent(led, alice, True, 1002)
    credit_tokens(led, bob, 7, 1003)
    append_event(led, bob, PayloadType.POST, b"x", 1004)
    return led, alice, bob


# --- construction ---


def test_new_ledger_genesis():
    led = new_ledger()
    assert len(led) == 1
    assert led[0].prev_hash == ZERO_HASH
    assert led[0].author == GENESIS_AUTHOR
    assert led[0].index == 0
    assert verify_chain(led).valid


def test_fresh_ledgers_share_genesis_hash():
    assert new_ledger(timestamp=42)[0].hash == new_ledger(timestamp=42)[0].hash
    assert new_ledger(timestamp=1)[0].hash != new_ledger(timestamp=2)[0].hash


def test_append_post():
    led = new_ledger()
    block = append_event(led, keypair(1), PayloadType.POST, b"hello", 5)
    assert len(led) == 2
    assert block.index == 1
    assert block.prev_hash == led[0].hash
    assert verify_chain(led).valid


def test_append_rejects_bad_payloads():
    led = new_ledger()
    kp = keypair(1)
    with pytest.raises(InvalidPayloadError):
        append_event(led, kp, PayloadType.CONSENT_GRANT, b"junk", 1)
    with pytest.raises(InvalidPayloadError):
        append_event(led, kp, PayloadType.TOKEN_CREDIT, b"\x01", 1)
    with pytest.raises(InvalidPayloadError):
        append_event(led, kp, 99, b"", 1)
    with pytest.raises(InvalidPayloadError):
        append_event(led, kp, PayloadType.POST, b"", -5)
    assert len(led) == 1


@pytest.mark.parametrize("timestamp", [-1, 2**64])
def test_new_ledger_rejects_timestamp_outside_u64(timestamp):
    with pytest.raises(InvalidPayloadError, match="timestamp must fit an unsigned 64-bit int"):
        new_ledger(timestamp)


def test_credit_rejects_negative_amount():
    led = new_ledger()
    with pytest.raises(InvalidPayloadError):
        credit_tokens(led, keypair(1), -3, 1)


def test_keypair_rejects_short_seed():
    with pytest.raises(SigningFailureError):
        Keypair(b"short")


def test_backends_agree():
    # libsodium and the cryptography package must be interchangeable
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    seed = bytes(range(32))
    msg = b"cross-check message"
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    public_key, signing_key = _ed25519.keypair(seed)
    assert public_key == sk.public_key().public_bytes_raw()
    assert _ed25519.sign(signing_key, msg) == sk.sign(msg)
    assert _ed25519.verify(public_key, _ed25519.sign(signing_key, msg), msg)
    assert not _ed25519.verify(public_key, b"\x00" * 64, msg)


# --- consent semantics ---


def test_consent_default_false():
    led = new_ledger()
    kp = keypair(3)
    append_event(led, kp, PayloadType.POST, b"first", 1)
    assert account_of(led, kp.public_key).consent is False


def test_consent_latest_wins():
    led = new_ledger()
    kp = keypair(3)
    set_consent(led, kp, True, 1)
    assert account_of(led, kp.public_key).consent is True
    set_consent(led, kp, False, 2)
    assert account_of(led, kp.public_key).consent is False
    set_consent(led, kp, True, 3)
    assert account_of(led, kp.public_key).consent is True


def test_unknown_user_defaults():
    led = new_ledger()
    key = keypair(9).public_key
    assert account_of(led, key) == UserAccount(key, consent=False, token_balance=0)


def test_replay_gives_genesis_author_nothing():
    # blocks by the all-zero key after genesis fail verification, and a
    # replay of an unverified chain does not count them either
    led = new_ledger()
    set_consent(led, keypair(1), True, 1)
    credit_tokens(led, keypair(1), 5, 2)
    blocks = [led[0]] + [rehashed(b, author=GENESIS_AUTHOR) for b in led[1:]]
    assert account_of(blocks, GENESIS_AUTHOR) == UserAccount(GENESIS_AUTHOR, False, 0)


# --- balances ---


def test_balance_accumulates():
    led = new_ledger()
    kp = keypair(4)
    credit_tokens(led, kp, 5, 1)
    credit_tokens(led, kp, 3, 2)
    assert account_of(led, kp.public_key).token_balance == 8


def test_random_events_replay_and_conserve():
    rng = random.Random(99)
    led = new_ledger()
    users = [keypair(i + 1) for i in range(6)]
    tracked = {kp.public_key: [False, 0] for kp in users}
    minted = 0
    for t in range(200):
        kp = rng.choice(users)
        action = rng.randrange(4)
        if action == 0:
            append_event(led, kp, PayloadType.POST, bytes([rng.randrange(256)]), t)
        elif action == 1:
            set_consent(led, kp, True, t)
            tracked[kp.public_key][0] = True
        elif action == 2:
            set_consent(led, kp, False, t)
            tracked[kp.public_key][0] = False
        else:
            amt = rng.randrange(50)
            credit_tokens(led, kp, amt, t)
            tracked[kp.public_key][1] += amt
            minted += amt
    assert verify_chain(led).valid
    state = accounts(led, tracked)
    assert state == {key: UserAccount(key, *entry) for key, entry in tracked.items()}
    assert sum(account.token_balance for account in state.values()) == minted


def test_account_state_view():
    led = new_ledger()
    kp = keypair(5)
    set_consent(led, kp, True, 1)
    credit_tokens(led, kp, 11, 2)
    account = account_of(led, kp.public_key)
    assert account == UserAccount(kp.public_key, consent=True, token_balance=11)


# --- verification ---


def test_tampered_payload_detected_at_block():
    led, _, _ = sample_ledger()
    tampered = replace_block(led, 1, payload=b"hellp")
    report = verify_chain(tampered)
    assert not report.valid
    assert report.bad_index == 1
    assert report.reason == HASH_MISMATCH


def test_tampered_timestamp_detected():
    led, _, _ = sample_ledger()
    tampered = replace_block(led, 2, timestamp=9999)
    report = verify_chain(tampered)
    assert (report.valid, report.bad_index, report.reason) == (False, 2, HASH_MISMATCH)


def test_forged_signature_detected_as_bad_signature():
    # swap in a well-formed signature from a different block
    led, _, _ = sample_ledger()
    tampered = replace_block(led, 3, signature=led[1].signature)
    report = verify_chain(tampered)
    assert (report.valid, report.bad_index, report.reason) == (False, 3, BAD_SIGNATURE)


def test_genesis_signature_is_pinned():
    led, _, _ = sample_ledger()
    tampered = replace_block(led, 0, signature=flip_bit(EMPTY_SIGNATURE, 17))
    report = verify_chain(tampered)
    assert (report.valid, report.bad_index, report.reason) == (False, 0, BAD_SIGNATURE)


def test_zero_author_rejected_after_genesis():
    led, _, _ = sample_ledger()
    block = led[1]
    canonical = signing_bytes(
        block.index, block.prev_hash, block.timestamp, GENESIS_AUTHOR,
        block.payload_type, block.payload,
    )
    forged = dataclasses.replace(
        block, author=GENESIS_AUTHOR, signature=EMPTY_SIGNATURE, hash=block_hash(canonical)
    )
    blocks = list(led)
    blocks[1] = forged
    report = verify_chain(blocks)
    assert (report.valid, report.bad_index, report.reason) == (False, 1, BAD_SIGNATURE)


def test_removed_block_breaks_chain():
    led, _, _ = sample_ledger()
    blocks = list(led)
    del blocks[2]
    report = verify_chain(blocks)
    assert not report.valid
    assert report.bad_index == 2
    assert report.reason == BROKEN_LINK


def test_swapped_blocks_detected():
    led, _, _ = sample_ledger()
    blocks = list(led)
    blocks[1], blocks[2] = blocks[2], blocks[1]
    report = verify_chain(blocks)
    assert not report.valid
    assert report.bad_index == 1


def test_bad_index_reason_reachable():
    # rebuild a block with a wrong index but matching hash over its fields
    led = new_ledger(timestamp=0)
    kp = keypair(1)
    append_event(led, kp, PayloadType.POST, b"a", 1)
    blk = led[1]
    canonical = signing_bytes(5, blk.prev_hash, blk.timestamp, blk.author, blk.payload_type, blk.payload)
    forged = dataclasses.replace(
        blk, index=5, signature=kp.sign(canonical), hash=block_hash(canonical)
    )
    report = verify_chain([led[0], forged])
    assert (report.valid, report.bad_index, report.reason) == (False, 1, BAD_INDEX)


def rehashed(block: LedgerBlock, **changes) -> LedgerBlock:
    """The block with `changes` and the hash of its new fields. The
    signature is kept, so it no longer matches."""
    block = dataclasses.replace(block, **changes)
    canonical = signing_bytes(
        block.index, block.prev_hash, block.timestamp, block.author,
        block.payload_type, block.payload,
    )
    return dataclasses.replace(block, hash=block_hash(canonical))


@pytest.mark.parametrize(
    "changes, reason",
    [({"prev_hash": b"\x01" * 32}, BROKEN_LINK), ({"index": 7}, BAD_INDEX)],
    ids=["link", "index"],
)
def test_link_and_index_are_reported_before_signature(changes, reason):
    led, _, _ = sample_ledger()
    blocks = list(led)
    blocks[2] = rehashed(blocks[2], **changes)
    assert not _ed25519.verify(blocks[2].author, blocks[2].signature, _canonical(blocks[2]))
    report = verify_chain(blocks)
    assert (report.valid, report.bad_index, report.reason) == (False, 2, reason)


def test_operations_never_rewrite_history():
    led = new_ledger()
    kp = keypair(6)
    snapshots = [tuple(b.hash for b in led)]
    for op in (
        lambda: append_event(led, kp, PayloadType.POST, b"p", 1),
        lambda: set_consent(led, kp, True, 2),
        lambda: credit_tokens(led, kp, 4, 3),
        lambda: verify_chain(led),
        lambda: account_of(led, kp.public_key).token_balance,
    ):
        before = tuple(b.hash for b in led)
        assert before == snapshots[-1]
        op()
        after = tuple(b.hash for b in led)
        assert after[: len(before)] == before
        assert len(after) >= len(before)
        snapshots.append(after)


# --- consent gating ---


def gated_setup():
    led = new_ledger()
    users = {i: keypair(i + 1) for i in range(10)}
    for i, kp in users.items():
        set_consent(led, kp, True, i)
    registry = {i: kp.public_key for i, kp in users.items()}
    rng = random.Random(13)
    trips = [
        (u, e, round(rng.uniform(1, 5), 2))
        for u in range(10)
        for e in range(8)
        if rng.random() < 0.5
    ]
    matrix = from_triplets(trips, 10, 8)
    return led, users, registry, matrix


def test_consented_all_granted_is_identity():
    led, _, registry, matrix = gated_setup()
    assert consented_ratings(led, matrix, registry) == matrix


def test_consented_none_granted_is_empty():
    led, users, registry, matrix = gated_setup()
    for i, kp in users.items():
        set_consent(led, kp, False, 100 + i)
    gated = consented_ratings(led, matrix, registry)
    assert len(gated) == 0
    assert (gated.n_users, gated.n_events) == (matrix.n_users, matrix.n_events)


def test_consented_filters_revoked_users():
    led, users, registry, matrix = gated_setup()
    set_consent(led, users[2], False, 50)
    set_consent(led, users[7], False, 51)
    gated = consented_ratings(led, matrix, registry)
    rows = zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist())
    expected = [row for row in rows if row[0] not in (2, 7)]
    gated_rows = zip(gated.users.tolist(), gated.events.tolist(), gated.values.tolist())
    assert list(gated_rows) == expected
    assert (gated.n_users, gated.n_events) == (matrix.n_users, matrix.n_events)


def test_consented_requires_registry_coverage():
    led, _, registry, matrix = gated_setup()
    del registry[4]
    with pytest.raises(UnregisteredUserError):
        consented_ratings(led, matrix, registry)


# --- portability ---


def test_export_import_round_trip():
    led, alice, bob = sample_ledger()
    credit_tokens(led, alice, 12, 2000)
    profile = export_profile(led, alice.public_key)
    account = import_profile(profile)
    assert account == account_of(led, alice.public_key)
    assert account.token_balance == 12
    assert len(profile.blocks) == 3


def test_export_single_block_profile():
    led = new_ledger()
    kp = keypair(8)
    append_event(led, kp, PayloadType.POST, b"only", 1)
    profile = export_profile(led, kp.public_key)
    assert len(profile.blocks) == 1
    account = import_profile(profile)
    assert account.consent is False and account.token_balance == 0


def test_export_unknown_author_rejected():
    led = new_ledger()
    with pytest.raises(UnregisteredUserError):
        export_profile(led, keypair(9).public_key)


def test_import_rejects_tampered_payload():
    led, alice, _ = sample_ledger()
    profile = export_profile(led, alice.public_key)
    blocks = list(profile.blocks)
    blocks[0] = dataclasses.replace(blocks[0], payload=flip_bit(blocks[0].payload, 3))
    tampered = dataclasses.replace(profile, blocks=tuple(blocks))
    with pytest.raises(VerificationFailureError):
        import_profile(tampered)


def test_import_rejects_reordered_blocks():
    led, alice, _ = sample_ledger()
    credit_tokens(led, alice, 1, 2000)
    profile = export_profile(led, alice.public_key)
    blocks = tuple(reversed(profile.blocks))
    with pytest.raises(VerificationFailureError):
        import_profile(dataclasses.replace(profile, blocks=blocks))


def test_import_rejects_foreign_block():
    led, alice, bob = sample_ledger()
    profile = export_profile(led, alice.public_key)
    foreign = export_profile(led, bob.public_key).blocks[0]
    blocks = profile.blocks + (foreign,)
    with pytest.raises(VerificationFailureError):
        import_profile(dataclasses.replace(profile, blocks=blocks))


def test_import_refuses_genesis_key_profile():
    # the genesis block is valid on the chain, but the genesis key signs
    # nothing, so a profile under it carries no proof
    led, _, _ = sample_ledger()
    profile = export_profile(led, GENESIS_AUTHOR)
    with pytest.raises(VerificationFailureError, match="^block 0: bad signature$"):
        import_profile(profile)


def test_import_rejects_empty_profile():
    led, alice, _ = sample_ledger()
    profile = export_profile(led, alice.public_key)
    with pytest.raises(VerificationFailureError):
        import_profile(dataclasses.replace(profile, blocks=()))


# --- file formats ---


def test_ledger_file_round_trip(tmp_path):
    led, _, _ = sample_ledger()
    path = tmp_path / "chain.jsonl"
    save_ledger(led, path)
    back = load_ledger(path)
    assert back == led
    assert verify_chain(back).valid


def test_ledger_file_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_ledger(sample_ledger()[0], a)
    save_ledger(sample_ledger()[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_load_ledger_reports_bad_line(tmp_path):
    path = tmp_path / "chain.jsonl"
    save_ledger(sample_ledger()[0], path)
    lines = path.read_text().splitlines()
    lines[2] = "{broken"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_ledger(path)
    assert exc.value.line == 3


def test_profile_file_round_trip(tmp_path):
    led, alice, _ = sample_ledger()
    profile = export_profile(led, alice.public_key)
    path = tmp_path / "alice.json"
    save_profile(profile, path)
    back = load_profile(path)
    assert back.blocks == profile.blocks
    assert back.public_key == profile.public_key
    assert import_profile(back).consent is True


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"public_key_hex": "00", "blocks": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["not-json", "deep-nesting"],
)
def test_load_profile_rejects_garbage(tmp_path, text):
    path = tmp_path / "profile.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_profile(path)


def _block_doc_with(**changes) -> str:
    doc = sample_ledger()[0][1].to_json_dict()
    doc.update(changes)
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "line",
    [
        "[1,2]",
        "5",
        '"block"',
        "null",
        _block_doc_with(index=None),
        _block_doc_with(index="1"),
        _block_doc_with(index=1.0),
        _block_doc_with(index=True),
        _block_doc_with(timestamp=None),
        _block_doc_with(prev_hash_hex=5),
        _block_doc_with(author_hex=None),
        _block_doc_with(payload_type=["Post"]),
        _block_doc_with(payload_b64=7),
        _block_doc_with(signature_hex=[]),
        _block_doc_with(hash_hex={}),
        "[" * 100_000,
    ],
    ids=[
        "array", "number", "string", "null", "index-null", "index-string", "index-float",
        "index-bool", "timestamp-null", "prev-hash-number", "author-null",
        "payload-type-array", "payload-number", "signature-array", "hash-object",
        "deep-nesting",
    ],
)
def test_load_ledger_rejects_mistyped_line(tmp_path, line):
    path = tmp_path / "chain.jsonl"
    save_ledger(sample_ledger()[0], path)
    lines = path.read_text().splitlines()
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_ledger(path)
    assert exc.value.line == 2


def test_load_ledger_reports_non_utf8_line(tmp_path):
    path = tmp_path / "chain.jsonl"
    save_ledger(sample_ledger()[0], path)
    lines = path.read_bytes().splitlines()
    lines[3] = lines[3].replace(b"payload_type", b"payload_\xfftype")
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError) as exc:
        load_ledger(path)
    assert exc.value.line == 4


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_line_numbered_as_both_loaders_split_lines(tmp_path, newline):
    # a bad byte on line 3 is on line 3 whatever ends the lines, in a ledger
    # as in a ratings CSV
    path = tmp_path / "chain.jsonl"
    save_ledger(sample_ledger()[0], path)
    lines = path.read_bytes().splitlines()
    lines[2] = lines[2].replace(b"payload_type", b"payload_\xfftype")
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(ParseError, match="^line 3: bad ledger block: not valid UTF-8 ") as exc:
        load_ledger(path)
    assert exc.value.line == 3
    csv = tmp_path / "ratings.csv"
    csv.write_bytes(newline.join([b"0,0,1.0", b"0,1,2.0", b"0,2,\xff"]) + newline)
    with pytest.raises(ParseError, match="^line 3: not valid UTF-8 ") as exc:
        load_csv(csv)
    assert exc.value.line == 3


@pytest.mark.skipif(_ed25519._sodium is None, reason="libsodium is not loaded")
def test_backends_byte_identical(monkeypatch):
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    rng = random.Random(3)
    seeds = [bytes(32), bytes(range(32))] + [rng.randbytes(32) for _ in range(6)]
    messages = [b"", b"m", rng.randbytes(300)]
    flips = [rng.randrange(512) for _ in range(len(seeds) * len(messages))]

    def outputs():
        """Keys, then (public key, signature, verify of it, of a bit-flipped
        copy, of it over a longer message) per seed and message, then a
        signed chain and its report."""
        keys = [Keypair(seed) for seed in seeds]
        pairs = [(kp, msg) for kp in keys for msg in messages]
        checks = []
        for (kp, msg), bit in zip(pairs, flips):
            sig = kp.sign(msg)
            checks.append((
                kp.public_key,
                sig,
                _ed25519.verify(kp.public_key, sig, msg),
                _ed25519.verify(kp.public_key, flip_bit(sig, bit), msg),
                _ed25519.verify(kp.public_key, sig, msg + b"\x00"),
            ))
        led = sample_ledger()[0]
        return keys, checks, led, verify_chain(led)

    sodium_keys, sodium, sodium_ledger, sodium_report = outputs()
    monkeypatch.setattr(_ed25519, "_sodium", None)
    fallback_keys, fallback, fallback_ledger, fallback_report = outputs()

    assert isinstance(fallback_keys[0]._signing_key, Ed25519PrivateKey)
    assert not isinstance(sodium_keys[0]._signing_key, Ed25519PrivateKey)
    assert fallback == sodium
    assert all(ok and not flipped and not longer for _, _, ok, flipped, longer in sodium)
    assert fallback_ledger == sodium_ledger
    assert sodium_report.valid and fallback_report.valid
    # a chain signed under libsodium verifies under the fallback
    assert verify_chain(sodium_ledger).valid
