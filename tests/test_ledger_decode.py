"""Differential test of the ledger and profile decoders.

`load_ledger` decodes each line with one raw_decode and falls back to
json.loads only when that does not consume the whole line. The reference
below is the earlier decoder: json.loads on every line, and a
from_json_dict with a per-key type loop and keyword construction. On
valid chains with one line edited, both must give the same blocks, or the
same ParseError message and line.
"""

import base64
import json
from dataclasses import astuple
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from echofeed.errors import ParseError
from echofeed.ledger import (
    Keypair,
    LedgerBlock,
    PayloadType,
    PortableProfile,
    append_event,
    credit_tokens,
    load_ledger,
    load_profile,
    new_ledger,
    set_consent,
)

KEYS = [Keypair(bytes([n]) * 32) for n in (1, 2, 3)]
FIELDS = [
    "index", "prev_hash_hex", "timestamp", "author_hex", "payload_type", "payload_b64",
    "signature_hex", "hash_hex",
]
MISTYPED = [
    None, True, False, 0, -1, 1.0, 2**64, "", "1", "zz", "Post", "AAAA", "A", [], ["Post"], {},
    {"index": 1},
]
# str.strip() whitespace, some of it also a line break for splitlines()
WHITESPACE = " \t\r\x0b\x0c\x1c\x85\xa0 \u3000"
BIG_INT = "9" * 5000
DEEP = "[" * 5000 + "]" * 5000


# --- the reference decoder -------------------------------------------------

_REFERENCE_TYPES = {
    "Post": PayloadType.POST,
    "ConsentGrant": PayloadType.CONSENT_GRANT,
    "ConsentRevoke": PayloadType.CONSENT_REVOKE,
    "TokenCredit": PayloadType.TOKEN_CREDIT,
}


def reference_from_json_dict(doc) -> LedgerBlock:
    if not isinstance(doc, dict):
        raise TypeError(f"block must be a JSON object, got {type(doc).__name__}")
    for key in ("index", "timestamp"):
        if type(doc[key]) is not int:
            raise TypeError(f"{key} must be an integer, got {doc[key]!r}")
    return LedgerBlock(
        index=doc["index"],
        prev_hash=bytes.fromhex(doc["prev_hash_hex"]),
        timestamp=doc["timestamp"],
        author=bytes.fromhex(doc["author_hex"]),
        payload_type=int(_REFERENCE_TYPES[doc["payload_type"]]),
        payload=base64.b64decode(doc["payload_b64"]),
        signature=bytes.fromhex(doc["signature_hex"]),
        hash=bytes.fromhex(doc["hash_hex"]),
    )


def reference_load_ledger(path) -> list[LedgerBlock]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"bad ledger block: not valid UTF-8 ({exc.reason})", lineno) from exc
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            blocks.append(reference_from_json_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ParseError(f"bad ledger block: {exc}", lineno) from exc
    return blocks


def reference_load_profile(path) -> PortableProfile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        public_key = bytes.fromhex(doc["public_key_hex"])
        blocks = tuple(reference_from_json_dict(b) for b in doc["blocks"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not a valid profile file ({exc})") from exc
    return PortableProfile(public_key=public_key, blocks=blocks)


def outcome(call):
    try:
        return ("ok", call())
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


# --- inputs -----------------------------------------------------------------


@st.composite
def chains(draw) -> list[LedgerBlock]:
    ledger = new_ledger(timestamp=draw(st.integers(0, 2**64 - 1)))
    for step in range(draw(st.integers(0, 4))):
        kp = draw(st.sampled_from(KEYS))
        kind = draw(st.sampled_from(["post", "consent", "credit"]))
        if kind == "post":
            append_event(ledger, kp, PayloadType.POST, draw(st.binary(max_size=12)), step)
        elif kind == "consent":
            set_consent(ledger, kp, draw(st.booleans()), step)
        else:
            credit_tokens(ledger, kp, draw(st.integers(0, 2**64 - 1)), step)
    return ledger


def _dumps(doc: dict) -> str:
    """The block line, with the placeholders for values json cannot write."""
    return (
        json.dumps(doc, sort_keys=True)
        .replace('"<big-int>"', BIG_INT)
        .replace('"<deep>"', DEEP)
    )


@st.composite
def doc_edits(draw, doc: dict) -> dict:
    """The block document with one key dropped or one value changed."""
    doc = dict(doc)
    key = draw(st.sampled_from(FIELDS))
    how = draw(st.sampled_from(["drop", "mistype", "big-int", "deep"]))
    if how == "drop":
        del doc[key]
    elif how == "mistype":
        doc[key] = draw(st.sampled_from(MISTYPED))
    else:
        doc[key] = f"<{how}>"
    return doc


@st.composite
def line_edits(draw, line: str) -> list[str]:
    """What one ledger line becomes: one or two lines of text."""
    how = draw(st.sampled_from(
        ["keep", "pad", "blank-before", "bom", "two-values", "field", "deep-line", "text"]
    ))
    pad = st.text(st.sampled_from(WHITESPACE), max_size=3)
    if how == "pad":
        return [draw(pad) + line + draw(pad)]
    if how == "blank-before":
        return [draw(pad), line]
    if how == "bom":
        return ["\ufeff" + line]
    if how == "two-values":
        second = draw(st.sampled_from([line, "5", "{}", "[]", "null", "x", "\ufeff"]))
        return [line + draw(st.sampled_from(["", " ", "\t", "\u3000"])) + second]
    if how == "field":
        return [_dumps(draw(doc_edits(json.loads(line))))]
    if how == "deep-line":
        return ["[" * 100_000]
    if how == "text":
        return [draw(st.text(max_size=20))]
    return [line]


@settings(max_examples=300, deadline=None)
@given(chain=chains(), data=st.data())
def test_load_ledger_matches_reference(fresh_path, chain, data):
    lines = [json.dumps(b.to_json_dict(), sort_keys=True) for b in chain]
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at:at + 1] = data.draw(line_edits(lines[at]))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    end = data.draw(st.sampled_from(["", newline, newline * 2]))
    path = fresh_path(".jsonl")
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))

    def blocks(load):
        return [astuple(b) for b in load(path)]

    assert outcome(lambda: blocks(load_ledger)) == outcome(lambda: blocks(reference_load_ledger))


@settings(max_examples=150, deadline=None)
@given(chain=chains(), data=st.data())
def test_load_profile_matches_reference(fresh_path, chain, data):
    docs = [b.to_json_dict() for b in chain]
    at = data.draw(st.integers(0, len(docs) - 1))
    if data.draw(st.booleans()):
        docs[at] = data.draw(doc_edits(docs[at]))
    text = _dumps({"public_key_hex": KEYS[0].public_key.hex(), "blocks": docs})
    text = data.draw(st.sampled_from(["", " ", "\ufeff"])) + text
    text += data.draw(st.sampled_from(["", "\n", "\u3000", " {}"]))
    path = fresh_path(".json")
    path.write_bytes(text.encode("utf-8"))

    def profile(load):
        got = load(path)
        return got.public_key, [astuple(b) for b in got.blocks]

    assert outcome(lambda: profile(load_profile)) == outcome(
        lambda: profile(reference_load_profile)
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([float("inf"), float("nan"), 2**64, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    base=chains().map(lambda c: c[-1].to_json_dict()),
    changes=st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3),
    dropped=st.sets(st.sampled_from(FIELDS), max_size=2),
    doc=json_values,
    whole=st.booleans(),
)
def test_from_json_dict_matches_reference(base, changes, dropped, doc, whole):
    if not whole:
        doc = {k: v for k, v in {**base, **changes}.items() if k not in dropped}

    def run(decode):
        try:
            return ("ok", astuple(decode(doc)))
        except (KeyError, TypeError, ValueError) as exc:
            return (type(exc), str(exc))

    assert run(LedgerBlock.from_json_dict) == run(reference_from_json_dict)
