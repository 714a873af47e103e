"""The batched signature check behind verify_chain and import_profile.

Both run their structural checks first and then check the collected
signatures in one _ed25519.first_invalid call, which on libsodium splits
them over a thread pool. These tests compare both against the sequential
per-block loops the batch replaced, with the split forced onto short chains,
and pin when threads may be started.
"""

import dataclasses
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import echofeed
from echofeed import _ed25519
from echofeed.errors import VerificationFailureError
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
    PortableProfile,
    accounts,
    append_event,
    block_hash,
    credit_tokens,
    export_profile,
    import_profile,
    new_ledger,
    save_ledger,
    set_consent,
    signing_bytes,
    verify_chain,
)

SODIUM = _ed25519._sodium is not None
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
KEYS = [Keypair(bytes([n]) * 32) for n in (1, 2, 3)]
SIGNER_OF = {kp.public_key: kp for kp in KEYS}
needs_sodium = pytest.mark.skipif(not SODIUM, reason="libsodium is not loaded")


def build_chain(n_blocks: int) -> list[LedgerBlock]:
    """Genesis plus n_blocks - 1 signed blocks, round-robin over KEYS."""
    led = new_ledger(timestamp=0)
    for t in range(1, n_blocks):
        kp = KEYS[t % len(KEYS)]
        kind = t % 4
        if kind == 0:
            append_event(led, kp, PayloadType.POST, bytes([t % 256]) * (t % 5), t)
        elif kind == 1:
            set_consent(led, kp, True, t)
        elif kind == 2:
            set_consent(led, kp, False, t)
        else:
            credit_tokens(led, kp, t, t)
    return led


BASE = build_chain(24)
TRIPLES = [
    (KEYS[i % 3].public_key, KEYS[i % 3].sign(bytes([i]) * (i % 7)), bytes([i]) * (i % 7))
    for i in range(64)
]


# --- the sequential loops the batch replaced, kept as the reference ---


def oracle_fault(block) -> str | None:
    try:
        canonical = signing_bytes(
            block.index, block.prev_hash, block.timestamp, block.author,
            block.payload_type, block.payload,
        )
    except (struct.error, ValueError):
        return HASH_MISMATCH
    if block_hash(canonical) != block.hash:
        return HASH_MISMATCH
    if block.author == GENESIS_AUTHOR:
        if block.index != 0 or block.signature != EMPTY_SIGNATURE:
            return BAD_SIGNATURE
    elif not _ed25519.verify(block.author, block.signature, canonical):
        return BAD_SIGNATURE
    return None


def oracle_verify_chain(blocks) -> tuple:
    prev = ZERO_HASH
    for pos, block in enumerate(blocks):
        fault = oracle_fault(block)
        if fault == HASH_MISMATCH:
            return (False, pos, HASH_MISMATCH)
        if block.prev_hash != prev:
            return (False, pos, BROKEN_LINK)
        if block.index != pos:
            return (False, pos, BAD_INDEX)
        if fault is not None:
            return (False, pos, fault)
        prev = block.hash
    return (True, None, None)


def oracle_import_profile(profile: PortableProfile):
    """The account, or the message of the VerificationFailureError."""
    if not profile.blocks:
        return "profile contains no blocks"
    last_index = -1
    for block in profile.blocks:
        if block.author != profile.public_key:
            return f"block {block.index} authored by a different key"
        fault = oracle_fault(block)
        if fault == HASH_MISMATCH:
            return f"block {block.index}: hash mismatch"
        if fault is not None or block.author == GENESIS_AUTHOR:
            return f"block {block.index}: bad signature"
        if block.index <= last_index:
            return f"block {block.index}: out of order"
        last_index = block.index
    return accounts(profile.blocks, [profile.public_key])[profile.public_key]


def chain_outcome(blocks) -> tuple:
    report = verify_chain(blocks)
    return (report.valid, report.bad_index, report.reason)


def profile_outcome(profile: PortableProfile):
    try:
        return import_profile(profile)
    except VerificationFailureError as exc:
        return str(exc)


def assert_matches_oracle(blocks) -> None:
    assert chain_outcome(blocks) == oracle_verify_chain(blocks)
    for key in [kp.public_key for kp in KEYS] + [GENESIS_AUTHOR]:
        profile = PortableProfile(key, tuple(b for b in blocks if b.author == key))
        assert profile_outcome(profile) == oracle_import_profile(profile)


@pytest.fixture
def fresh_pool(monkeypatch):
    """A new pool, with no thread started, that is shut down after the test."""
    monkeypatch.setattr(_ed25519, "_pool", _ed25519._pool)
    _ed25519._new_pool()
    yield
    _ed25519._pool.shutdown(wait=True)


@pytest.fixture
def chunked(monkeypatch, fresh_pool):
    """On libsodium, every batch is split into three chunks, whatever its
    length and the number of CPUs."""
    monkeypatch.setattr(_ed25519, "PARALLEL_FLOOR", 1)
    monkeypatch.setattr(_ed25519, "_cpus", lambda: 3)


def resealed(block, mode: str):
    """The block with its hash recomputed ("rehash"), and its signature
    redone too ("resign", by the author's key or else KEYS[0])."""
    if mode == "keep":
        return block
    try:
        canonical = signing_bytes(
            block.index, block.prev_hash, block.timestamp, block.author,
            block.payload_type, block.payload,
        )
    except (struct.error, ValueError):
        return block
    block = dataclasses.replace(block, hash=block_hash(canonical))
    if mode == "resign":
        signer = SIGNER_OF.get(block.author, KEYS[0])
        block = dataclasses.replace(block, signature=signer.sign(canonical))
    return block


def flip(data: bytes, bit: int) -> bytes:
    if not data:
        return b"\x01"
    out = bytearray(data)
    out[bit // 8 % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


def edited(data, block):
    field = data.draw(st.sampled_from([
        "index", "prev_hash", "timestamp", "author", "payload_type", "payload",
        "signature", "hash",
    ]))
    if field == "index":
        value = data.draw(st.integers(-1, 2 * len(BASE)) | st.just(2**64))
    elif field == "timestamp":
        value = data.draw(st.integers(0, 2**64 - 1))
    elif field == "payload_type":
        value = data.draw(st.integers(0, 256))
    elif field == "author":
        value = data.draw(st.sampled_from(
            [kp.public_key for kp in KEYS] + [GENESIS_AUTHOR, flip(block.author, 5)]))
    else:
        value = flip(getattr(block, field), data.draw(st.integers(0, 511)))
    block = dataclasses.replace(block, **{field: value})
    if field == "hash":
        return block
    return resealed(block, data.draw(st.sampled_from(["keep", "rehash", "resign"])))


def tampered(data, blocks) -> list:
    """blocks after one to four edits, deletions, swaps or duplications."""
    blocks = list(blocks)
    for _ in range(data.draw(st.integers(1, 4))):
        if not blocks:
            break
        kind = data.draw(st.sampled_from(["edit", "delete", "swap", "duplicate"]))
        pos = data.draw(st.integers(0, len(blocks) - 1))
        if kind == "edit":
            blocks[pos] = edited(data, blocks[pos])
        elif kind == "delete":
            del blocks[pos]
        elif kind == "swap":
            other = data.draw(st.integers(0, len(blocks) - 1))
            blocks[pos], blocks[other] = blocks[other], blocks[pos]
        else:
            blocks.insert(pos + 1, blocks[pos])
    return blocks


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batched_checks_match_sequential_oracle(chunked, data):
    assert_matches_oracle(tampered(data, BASE))
    # profiles tampered on their own, so edits hit them directly
    for key in [kp.public_key for kp in KEYS] + [GENESIS_AUTHOR]:
        own = tampered(data, [b for b in BASE if b.author == key])
        profile = PortableProfile(key, tuple(own))
        assert profile_outcome(profile) == oracle_import_profile(profile)


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(0, len(TRIPLES)),
    bad=st.dictionaries(
        st.integers(0, len(TRIPLES) - 1),
        st.sampled_from(["signature", "message", "short-key", "short-signature"]),
        max_size=4,
    ),
)
def test_first_invalid_is_the_lowest_failing_position(chunked, n, bad):
    items = list(TRIPLES[:n])
    for pos, how in bad.items():
        if pos >= n:
            continue
        key, sig, msg = items[pos]
        items[pos] = {
            "signature": (key, flip(sig, pos), msg),
            "message": (key, sig, msg + b"\x00"),
            "short-key": (key[:-1], sig, msg),
            "short-signature": (key, sig[:-1], msg),
        }[how]
    want = next((i for i, t in enumerate(items) if not _ed25519.verify(*t)), None)
    assert _ed25519.first_invalid(items) == want
    assert want == min((p for p in bad if p < n), default=None)


def with_bad_signature(blocks: list, pos: int) -> None:
    blocks[pos] = dataclasses.replace(blocks[pos], signature=flip(blocks[pos].signature, 3))


@pytest.mark.parametrize("later", ["hash", "link"])
def test_bad_signature_before_a_structural_fault_wins(chunked, later):
    blocks = list(BASE)
    with_bad_signature(blocks, 5)
    if later == "hash":
        blocks[17] = dataclasses.replace(blocks[17], payload=b"forged")
    else:
        blocks[17] = resealed(dataclasses.replace(blocks[17], prev_hash=b"\x01" * 32), "resign")
    assert chain_outcome(blocks) == (False, 5, BAD_SIGNATURE) == oracle_verify_chain(blocks)
    assert_matches_oracle(blocks)


def test_lowest_of_two_bad_signatures_in_different_chunks_wins(chunked):
    # 23 signatures in three chunks: blocks 1-7, 8-15 and 16-23; chunk 0
    # runs on the calling thread, so both failures come from the pool
    before = verifier_threads()
    blocks = list(BASE)
    with_bad_signature(blocks, 20)
    with_bad_signature(blocks, 10)
    assert chain_outcome(blocks) == (False, 10, BAD_SIGNATURE) == oracle_verify_chain(blocks)
    assert_matches_oracle(blocks)
    assert bool(verifier_threads() - before) == SODIUM


def test_out_of_order_profile_block_with_bad_signature_says_bad_signature(chunked):
    own = list(export_profile(BASE, KEYS[0].public_key).blocks)
    own[1], own[2] = own[2], own[1]
    with_bad_signature(own, 2)
    profile = PortableProfile(KEYS[0].public_key, tuple(own))
    message = f"block {own[2].index}: bad signature"
    assert profile_outcome(profile) == message == oracle_import_profile(profile)
    # with its signature intact the same block is only out of order
    own[2] = BASE[own[2].index]
    profile = PortableProfile(KEYS[0].public_key, tuple(own))
    assert profile_outcome(profile) == f"block {own[2].index}: out of order"


# --- thread discipline ---


def verifier_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("ed25519-verify")}


def test_pool_threads_call_no_public_signature_function(monkeypatch, chunked):
    # a caller may wrap verify and sign with code that is not thread-safe
    # (a tracer appending spans, say), so only the calling thread may call them
    before = verifier_threads()
    bad_sig = list(BASE)
    with_bad_signature(bad_sig, 20)
    chains = [list(BASE), bad_sig]
    profiles = [
        PortableProfile(kp.public_key, tuple(b for b in chain if b.author == kp.public_key))
        for chain in chains for kp in KEYS
    ]
    want = [chain_outcome(c) for c in chains] + [profile_outcome(p) for p in profiles]
    assert (False, 20, BAD_SIGNATURE) in want

    def main_thread_only(fn):
        def guarded(*args):
            assert threading.current_thread() is threading.main_thread(), fn.__name__
            return fn(*args)
        return guarded

    for name in ("verify", "sign"):
        monkeypatch.setattr(_ed25519, name, main_thread_only(getattr(_ed25519, name)))
    got = [chain_outcome(c) for c in chains] + [profile_outcome(p) for p in profiles]
    assert got == want
    assert bool(verifier_threads() - before) == SODIUM


def test_fallback_starts_no_thread(monkeypatch, fresh_pool):
    chain = build_chain(64)
    monkeypatch.setattr(_ed25519, "_sodium", None)
    before = threading.active_count()
    threads_before = verifier_threads()
    assert verify_chain(chain).valid
    assert import_profile(export_profile(chain, KEYS[0].public_key)).public_key == KEYS[0].public_key
    assert _ed25519.first_invalid(TRIPLES) is None
    assert not verifier_threads() - threads_before
    assert threading.active_count() == before


@needs_sodium
def test_short_batch_starts_no_thread(fresh_pool):
    before = threading.active_count()
    threads_before = verifier_threads()
    floor = _ed25519.PARALLEL_FLOOR
    assert _ed25519.first_invalid(TRIPLES[: floor - 1]) is None
    # genesis is unsigned, so this chain holds floor - 1 signatures
    assert verify_chain(build_chain(floor)).valid
    assert not verifier_threads() - threads_before
    assert threading.active_count() == before


@needs_sodium
def test_pool_never_exceeds_affinity_cpus(fresh_pool):
    before = verifier_threads()
    for _ in range(5):
        assert _ed25519.first_invalid(TRIPLES) is None
    # the calling thread takes one chunk, the pool the others
    assert len(verifier_threads() - before) <= CPUS - 1
    assert bool(verifier_threads() - before) == (CPUS > 1)


@needs_sodium
def test_concurrent_batches_share_one_pool(fresh_pool):
    before = verifier_threads()
    results = {}

    def caller(n):
        items = list(TRIPLES)
        bad = (7 * n) % len(items) if n % 3 else None
        if bad is not None:
            key, sig, msg = items[bad]
            items[bad] = (key, flip(sig, n), msg)
        results[n] = [(bad, _ed25519.first_invalid(items)) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert sorted(results) == list(range(8))
    assert all(want == got for runs in results.values() for want, got in runs)
    # a second pool would have started threads of its own
    assert len(verifier_threads() - before) <= CPUS - 1


FORKED_CHECK = """
import os, signal
from echofeed import _ed25519
from echofeed.ledger import Keypair

_ed25519.PARALLEL_FLOOR = 1
_ed25519._cpus = lambda: 3
kp = Keypair(bytes([7]) * 32)
items = [(kp.public_key, kp.sign(bytes([i])), bytes([i])) for i in range(40)]
assert _ed25519.first_invalid(items) is None  # starts the pool's threads
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a hang kills the child instead of leaving it running
    items[30] = (kp.public_key, bytes(64), items[30][2])
    os._exit(0 if _ed25519.first_invalid(items) == 30 else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


@needs_sodium
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_forked_child_checks_signatures_on_its_own_pool():
    # the child inherits the parent's pool object but none of its threads
    src = str(Path(echofeed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", FORKED_CHECK],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr


def test_cli_verify_exits_with_the_pool_started(tmp_path):
    chain = tmp_path / "chain.jsonl"
    save_ledger(build_chain(200), chain)
    src = str(Path(echofeed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "echofeed.cli", "ledger", "verify", str(chain)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid\n", "")
