"""The benchmark workloads: seeded inputs, one timed pass, output checks.

A workload object has four parts. ``generate`` writes the pristine inputs
for a seed into a directory (this is the set-up the benchmark times).
``run_pass`` drives echofeed's public entry points over a fresh copy of
those inputs in a closed loop, one operation after the other, and returns
the digest of everything the pass produced. ``after_pass`` runs outside the
pass's wall time on the same copy, for output checks. ``guard`` runs once
per run, for checks such as the tamper guards.

Every operation goes through an ``Ops`` recorder, which times it and counts
it as attempted, and as failed when it exits non-zero or its output check
fails. Only ``echofeed.cli.main`` and the library calls documented in the
README are used; modules are looked up at call time so that the tracer's
wrappers, when installed, see every call.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import echofeed
import echofeed.cli

RMSE_BOUND = 1.5  # holdout RMSE above this means training went wrong


class Op:
    __slots__ = ("kind", "seconds", "rc", "out", "err", "failed")

    def __init__(self, kind, seconds, rc, out, err=""):
        self.kind = kind
        self.seconds = seconds
        self.rc = rc
        self.out = out
        self.err = err
        self.failed = False


class Ops:
    """Times and counts every operation of a run."""

    def __init__(self):
        self.ops: list[Op] = []

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(op.failed for op in self.ops)

    def seconds(self, kind):
        return [op.seconds for op in self.ops if op.kind == kind and op.seconds is not None]

    def expect(self, op, ok, why):
        """Mark `op` failed unless `ok`; report the first reason per op."""
        if not ok and not op.failed:
            op.failed = True
            print(f"check failed [{op.kind}]: {why} {op.err.strip()}", file=sys.stderr)
        return ok

    def cli(self, kind, argv, expect_rc=0):
        """Run ``echofeed <argv>`` in-process; stdout is captured."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = echofeed.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crashed run
            rc = None
            err.write(traceback.format_exc())
        op = Op(kind, time.perf_counter() - start, rc, out.getvalue(), err.getvalue())
        self.ops.append(op)
        self.expect(op, rc == expect_rc, f"exit code {rc}, wanted {expect_rc}: {argv}")
        return op

    def lib(self, kind, fn, *args):
        """Call a library function; returns (op, result or None)."""
        start = time.perf_counter()
        result, rc, err = None, 0, ""
        try:
            result = fn(*args)
        except Exception:
            rc, err = None, traceback.format_exc()
        op = Op(kind, time.perf_counter() - start, rc, "", err)
        self.ops.append(op)
        self.expect(op, rc == 0, f"{fn.__name__} raised")
        return op, result

    def check(self, kind, ok, why):
        """A check that is an operation of its own, with no time (repeats)."""
        op = Op(kind, None, 0, "")
        self.ops.append(op)
        return self.expect(op, ok, why)


def _read(path: Path) -> bytes:
    """File contents, or nothing if a failed operation never wrote it."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class Workload:
    """Sizes by name; hooks a workload may leave empty."""

    SIZES: dict = {}

    def __init__(self, size, seed):
        self.p = self.SIZES[size]
        self.seed = seed
        self.rmse = None  # holdout RMSE the pass reported, kept as a quality record

    def generate(self, d: Path):
        pass

    def after_pass(self, d: Path, ops: Ops):
        """Returns a digest of any outputs, or None."""
        return None

    def guard(self, d: Path, ops: Ops):
        pass


# --------------------------------------------------------------------------
# recsys: ingest -> train -> serve top_k


class Recsys(Workload):
    """Analyst path on a planted low-rank ratings CSV."""

    SIZES = {
        "full": dict(users=2000, events=2000, ratings=100_000, rank=4, requests=100, epochs=1),
        "tiny": dict(users=60, events=50, ratings=900, rank=2, requests=12, epochs=20),
    }
    TRAIN_FLAGS = ["--holdout", "0.1", "--k", "8", "--lr", "0.05", "--scale", "0.5"]

    def generate(self, d: Path):
        p = self.p
        rng = np.random.default_rng(self.seed)
        cells = rng.choice(p["users"] * p["events"], p["ratings"], replace=False)
        users, events = cells // p["events"], cells % p["events"]
        x = rng.normal(0.0, 0.5, (p["users"], p["rank"]))
        y = rng.normal(0.0, 0.5, (p["events"], p["rank"]))
        noise = rng.normal(0.0, 0.3, p["ratings"])
        values = np.clip(3.0 + np.einsum("ij,ij->i", x[users], y[events]) + noise, 0.5, 5.0)
        rows = zip(users.tolist(), events.tolist(), values.round(3).tolist())
        (d / "raw.csv").write_text("".join(f"{u},{e},{v}\n" for u, e, v in rows))
        self.observed = {}
        for u, e in zip(users.tolist(), events.tolist()):
            self.observed.setdefault(u, set()).add(e)
        req = random.Random(self.seed)
        (d / "requests.json").write_text(json.dumps(
            [req.randrange(p["users"]) for _ in range(p["requests"])]))

    def run_pass(self, d: Path, ops: Ops):
        ops.cli("ingest", ["ingest", str(d / "raw.csv"), "--out", str(d / "ratings.csv")])
        train = ops.cli("train", ["train", str(d / "ratings.csv"), "--out", str(d / "model.json"),
                                  "--report", str(d / "report.json"), "--seed", str(self.seed),
                                  "--epochs", str(self.p["epochs"]), *self.TRAIN_FLAGS])
        rmse = self.rmse = _parse_rmse(train.out)
        ops.expect(train, rmse is not None and math.isfinite(rmse) and rmse < RMSE_BOUND,
                   f"holdout rmse {rmse} not finite and below {RMSE_BOUND}")
        _, model = ops.lib("serve_load", echofeed.load_model, d / "model.json")
        _, matrix = ops.lib("serve_load", echofeed.load_csv, d / "ratings.csv")
        served = []
        for u in json.loads((d / "requests.json").read_text()):
            op, recs = ops.lib("request", echofeed.top_k, model, matrix, u, 10)
            if recs is None:
                continue
            _check_recs(ops, op, u, recs, 10, self.observed)
            served.append((u, recs.events, recs.scores))
        return digest(*[_read(d / f) for f in ("ratings.csv", "model.json", "report.json")],
                       train.out, served)

    def after_pass(self, d: Path, ops: Ops):
        """The canonical CSV holds every generated rating, counted without echofeed."""
        rows = sum(1 for line in _read(d / "ratings.csv").decode().splitlines()
                   if line and not line.startswith("#"))
        ops.check("ingest_rows", rows == self.p["ratings"],
                  f"ingest wrote {rows} rows, raw had {self.p['ratings']}")


def _check_recs(ops, op, u, recs, k, observed):
    ops.expect(op, len(recs.events) == k, f"user {u}: {len(recs.events)} events, wanted {k}")
    ops.expect(op, not observed.get(u, set()).intersection(recs.events),
               f"user {u}: observed event")
    ops.expect(op, all(a >= b for a, b in zip(recs.scores, recs.scores[1:])),
               f"user {u}: scores not descending")


def _parse_rmse(text):
    for line in text.splitlines():
        if line.startswith("rmse_holdout="):
            return float(line.split("=", 1)[1])
    return None


# --------------------------------------------------------------------------
# consent: a signed ledger read and written by the CLI

CONSENT_SHARE, CREDIT_SHARE = 0.16, 0.04  # of each user's blocks; the rest are posts
GRANT_SHARE = 0.7  # users whose last consent block grants, and earlier grants
LEDGER_T0 = 1_000
TRAIN_T = 900_000


class Consent(Workload):
    """Operator path: verify, gated train with rewards, consent appends,
    profile imports, plus the tamper guards."""

    SIZES = {
        "full": dict(users=250, blocks=5_000, events=500, ratings=10_000,
                     appends=5, profiles=50),
        "tiny": dict(users=12, blocks=120, events=20, ratings=120,
                     appends=2, profiles=5),
    }
    REWARD = 2
    TRAIN_FLAGS = ["--holdout", "0.1", "--epochs", "2", "--lr", "0.05", "--scale", "0.5"]

    def generate(self, d: Path):
        p = self.p
        rng = np.random.default_rng(self.seed)
        ops = Ops()
        ops.cli("init", ["ledger", "init", "--out", str(d / "chain.jsonl"), "--keys",
                         str(d / "keys.json"), "--users", str(p["users"]),
                         "--key-seed", str(self.seed), "--timestamp", str(LEDGER_T0)])
        if ops.failed:
            raise RuntimeError("ledger init failed")
        keys = {int(u): echofeed.Keypair(bytes.fromhex(s))
                for u, s in json.loads((d / "keys.json").read_text()).items()}
        chain = echofeed.load_ledger(d / "chain.jsonl")
        # Every seed does the same amount of work: each user authors the
        # same number of posts, consent blocks and credits, and the same
        # number of users end up consenting. Only the order and the
        # identities change with the seed.
        users = p["users"]
        per_user = p["blocks"] // users
        n_consent = max(1, round(CONSENT_SHARE * per_user))
        n_credit = round(CREDIT_SHARE * per_user)
        kinds = ["post"] * (per_user - n_consent - n_credit) + ["consent"] * n_consent \
            + ["credit"] * n_credit
        blocks = [(u, kind) for u in range(users) for kind in kinds]
        blocks = [blocks[j] for j in rng.permutation(len(blocks)).tolist()]
        final = set(rng.permutation(users)[:round(GRANT_SHARE * users)].tolist())
        grants = rng.random(len(blocks)).tolist()
        amounts = rng.integers(1, 20, len(blocks)).tolist()
        consent_left = [n_consent] * users
        consent = [False] * users
        tokens = [0] * users
        for i, ((u, kind), grant, amount) in enumerate(zip(blocks, grants, amounts)):
            ts = LEDGER_T0 + 1 + i
            if kind == "post":
                echofeed.append_event(chain, keys[u], echofeed.PayloadType.POST,
                                      b"post %d by %d" % (i, u), ts)
            elif kind == "consent":
                consent_left[u] -= 1
                consent[u] = u in final if consent_left[u] == 0 else grant < GRANT_SHARE
                echofeed.set_consent(chain, keys[u], consent[u], ts)
            else:
                echofeed.credit_tokens(chain, keys[u], amount, ts)
                tokens[u] += amount
        echofeed.save_ledger(chain, d / "chain.jsonl")

        cells = rng.choice(p["users"] * p["events"], p["ratings"], replace=False)
        values = rng.uniform(1.0, 5.0, p["ratings"]).round(3)
        (d / "ratings.csv").write_text(
            f"# users={p['users']} events={p['events']}\n" + "".join(
                f"{c // p['events']},{c % p['events']},{v}\n"
                for c, v in zip(cells.tolist(), values.tolist())))

        pick = random.Random(self.seed)
        profiled = sorted(pick.sample(range(users), p["profiles"]))
        for u in profiled:
            echofeed.save_profile(echofeed.export_profile(chain, keys[u].public_key),
                                  d / f"profile-{u}.json")
        appends = [(pick.randrange(p["users"]), pick.random() < 0.5) for _ in range(p["appends"])]
        # what the CLI must report, from the generator's own bookkeeping
        self.expect = {
            "blocks": len(chain),
            "consenting": sum(consent),
            "profiles": {u: {"public_key": keys[u].public_key.hex(), "consent": consent[u],
                             "balance": tokens[u]} for u in profiled},
            "appends": appends,
            "tamper_block": pick.randrange(1, len(chain)),
            "tamper_field": pick.choice(["signature_hex", "payload_b64", "author_hex",
                                         "prev_hash_hex"]),
            "tamper_bit": pick.randrange(1 << 30),
            "tamper_profile": pick.choice(profiled),
        }

    def run_pass(self, d: Path, ops: Ops):
        exp = self.expect
        chain, keys = str(d / "chain.jsonl"), str(d / "keys.json")
        verify = ops.cli("verify", ["ledger", "verify", chain])
        ops.expect(verify, verify.out.strip() == "valid",
                   f"verify printed {verify.out.strip()!r}")
        train = ops.cli("train", ["train", str(d / "ratings.csv"), "--out", str(d / "model.json"),
                                  "--report", str(d / "report.json"), "--ledger", chain,
                                  "--keys", keys, "--reward", str(self.REWARD),
                                  "--seed", str(self.seed), "--timestamp", str(TRAIN_T),
                                  *self.TRAIN_FLAGS])
        self.train_op = train
        self.rmse = _parse_rmse(train.out)
        appended = []
        for j, (u, grant) in enumerate(exp["appends"]):
            op = ops.cli("append", ["ledger", "consent", chain, "--keys", keys, "--user", str(u),
                                    "--grant" if grant else "--revoke",
                                    "--timestamp", str(TRAIN_T + 1 + j)])
            want = f"appended block {exp['blocks'] + exp['consenting'] + j}"
            ops.expect(op, op.out.strip() == want, f"append printed {op.out.strip()!r}")
            appended.append(op.out)
        imported = []
        for u, want in exp["profiles"].items():
            op = ops.cli("request", ["ledger", "import", str(d / f"profile-{u}.json")])
            try:
                got = json.loads(op.out)
            except ValueError:
                got = None
            ops.expect(op, got == want, f"import of user {u}: {got} != {want}")
            imported.append(op.out)
        return digest(_read(d / "chain.jsonl"), _read(d / "model.json"),
                       _read(d / "report.json"), train.out, appended, imported)

    def after_pass(self, d: Path, ops: Ops):
        """Rewards: exactly one TokenCredit of REWARD per consenting user,
        read straight from the ledger file rather than through echofeed."""
        exp = self.expect
        lines = (d / "chain.jsonl").read_text().splitlines()
        credits = [json.loads(line) for line in lines[exp["blocks"]:]
                   if json.loads(line)["payload_type"] == "TokenCredit"]
        minted = sum(int.from_bytes(base64.b64decode(c["payload_b64"]), "big") for c in credits)
        ops.expect(self.train_op, minted == self.REWARD * exp["consenting"],
                   f"train minted {minted} tokens, wanted {self.REWARD} x {exp['consenting']}")

    def guard(self, d: Path, ops: Ops):
        """One bit flipped in one block must be reported at that block, and
        a profile with one bit flipped must be refused."""
        exp = self.expect
        lines = (d / "chain.jsonl").read_text().splitlines()
        i = exp["tamper_block"]
        doc = json.loads(lines[i])
        field = exp["tamper_field"]
        doc[field] = _tamper_field(doc[field], field, exp["tamper_bit"])
        lines[i] = json.dumps(doc, sort_keys=True)
        bad = d / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        op = ops.cli("tamper_verify", ["ledger", "verify", str(bad)], expect_rc=1)
        ops.expect(op, op.out.startswith(f"invalid at index {i}:"),
                   f"tampered block {i} ({field}): verify printed {op.out.strip()!r}")

        u = exp["tamper_profile"]
        prof = json.loads((d / f"profile-{u}.json").read_text())
        block = prof["blocks"][exp["tamper_bit"] % len(prof["blocks"])]
        block["signature_hex"] = _tamper_field(block["signature_hex"], "signature_hex",
                                               exp["tamper_bit"])
        (d / "tampered-profile.json").write_text(json.dumps(prof))
        ops.cli("tamper_import", ["ledger", "import", str(d / "tampered-profile.json")],
                expect_rc=1)


def _tamper_field(value, field, bit):
    if field == "payload_b64":
        raw = base64.b64decode(value) or b"\0"
        return base64.b64encode(_flip_bit(raw, bit % (8 * len(raw)))).decode()
    raw = bytes.fromhex(value)
    return _flip_bit(raw, bit % (8 * len(raw))).hex()


# workload name -> (class, batch op kind: the one heavy command of a pass)
WORKLOADS = {
    "recsys": (Recsys, "train"),
    "consent": (Consent, "train"),
}
