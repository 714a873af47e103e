"""One Ed25519 verdict on both signature backends.

libsodium refuses a public key A or a signature's R of small order, in any
encoding, and an S >= L. OpenSSL, behind the cryptography fallback, refuses
only the last, so the identity key with R the identity and S = 0 verifies
any message there. _ed25519._valid makes libsodium's refusals before either
backend runs. The small-order points are derived below from the curve's own
arithmetic, so that blocklist is checked here, not trusted.
"""

import hashlib

import pytest

from echofeed import _ed25519
from echofeed.cli import main
from echofeed.ledger import (
    PayloadType,
    append_event,
    credit_tokens,
    export_profile,
    new_ledger,
    save_ledger,
    save_profile,
)

# --- Edwards arithmetic on -x^2 + y^2 = 1 + d x^2 y^2 (RFC 8032, 5.1) ---

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = -121665 * pow(121666, -1, P) % P
IDENTITY = (0, 1)


def add(p, q):
    (x1, y1), (x2, y2) = p, q
    t = D * x1 * x2 * y1 * y2
    x = (x1 * y2 + y1 * x2) * pow(1 + t, -1, P)
    y = (y1 * y2 + x1 * x2) * pow(1 - t, -1, P)
    return x % P, y % P


def mul(k, p):
    q = IDENTITY
    while k:
        if k & 1:
            q = add(q, p)
        p, k = add(p, p), k >> 1
    return q


def point_at(y):
    """The point with even x at y, or None when y is not on the curve."""
    u = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(u, (P + 3) // 8, P)
    if x * x % P != u:
        x = x * pow(2, (P - 1) // 4, P) % P
    if x * x % P != u:
        return None
    return (P - x if x & 1 else x), y


def encode(p, y_offset=0, sign=None):
    """y + y_offset in 255 bits, then x's sign bit or the one given."""
    x, y = p
    sign = x & 1 if sign is None else sign
    return ((y + y_offset) | sign << 255).to_bytes(32, "little")


BASE = point_at(4 * pow(5, -1, P) % P)


def torsion():
    """The eight points of order dividing 8: the multiples of [L]Q, for the
    first curve point Q whose [L]Q has order 8."""
    y = 2
    while (q := point_at(y)) is None or mul(4, mul(L, q)) == IDENTITY:
        y += 1
    t = mul(L, q)
    return [mul(k, t) for k in range(8)]


def small_order_encodings():
    """Every 32 bytes that decode to a torsion point: y or y + p below
    2**255, under either sign bit."""
    return {
        encode(p, offset, sign)
        for p in torsion()
        for offset in (0, P)
        if p[1] + offset < 2**255
        for sign in (0, 1)
    }


def challenge(r, a, message):
    return int.from_bytes(hashlib.sha512(r + a + message).digest(), "little") % L


def secret_scalar(seed):
    h = int.from_bytes(hashlib.sha512(seed).digest()[:32], "little")
    return h & (2**254 - 8) | 2**254


SEED = bytes(range(32))
HONEST_A, SIGNING_KEY = _ed25519.keypair(SEED)
MESSAGE = b"echofeed"
HONEST_SIG = _ed25519.sign(SIGNING_KEY, MESSAGE)
ZERO_R = encode(IDENTITY) + bytes(32)


def forgeries():
    """(A, signature, message) triples that satisfy [S]B = R + [k]A, which
    OpenSSL accepts and libsodium refuses."""
    out = [(encode(IDENTITY), ZERO_R, MESSAGE)]
    # an honest key with R the identity: S = k a
    k = challenge(encode(IDENTITY), HONEST_A, MESSAGE)
    s = k * secret_scalar(SEED) % L
    out.append((HONEST_A, encode(IDENTITY) + s.to_bytes(32, "little"), MESSAGE))
    # a key of order 8 with S = 1: R = B - [g]A holds when k = g mod 8,
    # which one message in eight gives
    t = torsion()[1]
    a = encode(t)
    for n in range(1000):
        message = b"%d" % n
        g = n % 8
        r = encode(add(BASE, mul(8 - g, t)))
        if challenge(r, a, message) % 8 == g:
            out.append((a, r + (1).to_bytes(32, "little"), message))
            break
    return out


@pytest.fixture(params=["libsodium", "cryptography"])
def backend(request, monkeypatch):
    lib = _ed25519._load_sodium() if request.param == "libsodium" else None
    if request.param == "libsodium" and lib is None:
        pytest.skip("libsodium is not installed")
    monkeypatch.setattr(_ed25519, "_sodium", lib)
    return request.param


def test_the_helper_derives_the_eight_torsion_points():
    points = torsion()
    assert len(set(points)) == 8
    assert BASE == (
        15112221349535400772501151409588531511454012693041857206046113283949847762202,
        46316835694926478169428394003475163141307993866256225615783033603165251855960,
    )
    assert encode(mul(secret_scalar(SEED), BASE)) == HONEST_A
    for p in points:
        x, y = p
        assert (-x * x + y * y - 1 - D * x * x * y * y) % P == 0
        assert mul(8, p) == IDENTITY


def test_the_blocklist_is_every_small_order_encoding():
    encodings = small_order_encodings()
    # 1, -1, 0 and the pair of order 8, plus p and p + 1: 7 y, 2 signs each
    assert len(encodings) == 14
    assert _ed25519._SMALL_ORDER == encodings
    assert _ed25519._L == L


def test_forgeries_are_refused(backend):
    found = forgeries()
    assert len(found) == 3
    for triple in found:
        assert not _ed25519.verify(*triple)
    assert _ed25519.verify(HONEST_A, HONEST_SIG, MESSAGE)


def test_both_backends_give_one_verdict():
    lib = _ed25519._load_sodium()
    if lib is None:
        pytest.skip("libsodium is not installed")
    s_values = [0, L - 1, L, 2**256 - 1, int.from_bytes(HONEST_SIG[32:], "little")]
    keys = sorted(small_order_encodings()) + [HONEST_A]
    rs = sorted(small_order_encodings()) + [HONEST_SIG[:32]]
    triples = [
        (a, r + s.to_bytes(32, "little"), MESSAGE) for a in keys for r in rs for s in s_values
    ] + forgeries()
    verdicts = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, backend in (("libsodium", lib), ("cryptography", None)):
            patch.setattr(_ed25519, "_sodium", backend)
            verdicts[name] = [_ed25519._valid(*t) for t in triples]
    assert verdicts["libsodium"] == verdicts["cryptography"]
    # the honest signature is the only one that verifies
    assert [t for t, ok in zip(triples, verdicts["libsodium"]) if ok] == [
        (HONEST_A, HONEST_SIG, MESSAGE)
    ]


class IdentityKey:
    """Signs anything as the identity point: R the identity, S = 0."""

    public_key = encode(IDENTITY)

    def sign(self, message):
        return ZERO_R


def test_an_identity_key_chain_is_invalid_on_both_backends(tmp_path, capsys, backend):
    chain = new_ledger(timestamp=100)
    append_event(chain, IdentityKey(), PayloadType.CONSENT_GRANT, b"", 101)
    credit_tokens(chain, IdentityKey(), 2**64 - 1, 102)
    save_ledger(chain, tmp_path / "chain.jsonl")
    save_profile(export_profile(chain, IdentityKey.public_key), tmp_path / "p.json")
    assert main(["ledger", "verify", str(tmp_path / "chain.jsonl")]) == 1
    assert capsys.readouterr().out == "invalid at index 1: BadSignature\n"
    assert main(["ledger", "import", str(tmp_path / "p.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
