"""Command-line front end: ingest, train, eval, recommend, simulate, and
ledger operations, all emitting machine-readable output.

Every subcommand is deterministic given its flags and --seed, except the
signing seeds that ledger init draws at random without --key-seed; commands
that write ledger blocks take --timestamp to pin block times (wall clock is
used when the flag is absent). Exit codes: 0 success, 1 domain error, 2
usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import secrets
import sys
import time
from pathlib import Path

from . import ledger as led
from ._atomic import atomic_write, dump_json
from ._ed25519 import PUBLIC_KEY_SIZE, SEED_SIZE
from .errors import (
    EchoFeedError,
    InvalidParameterError,
    NonFiniteScoreError,
    ParseError,
    UnregisteredUserError,
)
from .model import init_model, load_model, save_model
from .ratings import load_csv, split_holdout, write_csv
from .simulate import (
    check_engagement,
    check_k_recs,
    engagement_round,
    fragmentation_index,
    synth_community_matrix,
    top_k,
)
from .training import TrainConfig, rmse, train

METRIC_COLUMNS = ["round", "fragmentation_index", "n_observations", "rmse_holdout"]


def _now_or(timestamp: int | None) -> int:
    return int(time.time()) if timestamp is None else timestamp


def _signing_seed(key_seed: int | None, index: int) -> bytes:
    """User index's signing seed: secret and uniformly random, or with a key
    seed derived by a public formula that anyone can recompute."""
    if key_seed is None:
        return secrets.token_bytes(SEED_SIZE)
    return hashlib.sha256(f"{key_seed}:{index}".encode("ascii")).digest()


def _load_keystore(path: Path) -> dict[int, bytes]:
    """Every user's signing seed, each entry checked; no key is expanded."""
    try:
        # every object decodes as the tuple of its members, so a key
        # written twice is still there to be refused
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=tuple)
        if not isinstance(doc, tuple):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        seeds = {}
        for idx, text in doc:
            user = int(idx)
            if user in seeds:
                raise ValueError(f"user {user} is listed more than once")
            seed = bytes.fromhex(text)
            if len(seed) != SEED_SIZE:
                raise ValueError(f"signing seed must be {SEED_SIZE} bytes")
            seeds[user] = seed
        return seeds
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not a valid keystore ({exc})") from exc


def _keypair(seeds: dict[int, bytes], user: int) -> led.Keypair:
    if user not in seeds:
        raise UnregisteredUserError(f"user {user} not present in the keystore")
    return led.Keypair(seeds[user])


def _resolve_author(args) -> bytes:
    if args.author:
        try:
            author = bytes.fromhex(args.author)
        except ValueError:
            author = b""
        if len(author) != PUBLIC_KEY_SIZE:
            args.usage_error(
                f"--author must be {PUBLIC_KEY_SIZE} bytes in hex, got {args.author!r}"
            )
        return author
    if args.user is None or args.keys is None:
        args.usage_error("provide either --author or both --user and --keys")
    return _keypair(_load_keystore(Path(args.keys)), args.user).public_key


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)


def cmd_ingest(args) -> int:
    matrix = load_csv(args.csv)
    write_csv(matrix, args.out)
    print(f"wrote {len(matrix)} observations ({matrix.n_users}x{matrix.n_events}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.ledger and not args.keys:
        args.usage_error("--ledger requires --keys for the user registry")
    config = _train_config(args)
    led.check_token_amount(args.reward)
    if args.timestamp is not None:
        led.check_timestamp(args.timestamp)
    matrix = load_csv(args.matrix)
    ledger_obj = None
    keystore = None
    if args.ledger:
        ledger_obj = led.load_ledger(args.ledger)
        # the registry needs every public key, so every seed is expanded
        seeds = _load_keystore(Path(args.keys))
        keystore = {idx: led.Keypair(seed) for idx, seed in seeds.items()}
        registry = {idx: kp.public_key for idx, kp in keystore.items()}
        matrix = led.consented_ratings(ledger_obj, matrix, registry)
    train_m, test_m = split_holdout(matrix, args.holdout, args.seed)
    model = init_model(
        matrix.n_users, matrix.n_events, args.k, args.gamma, args.seed, args.scale
    )
    trained, report = train(model, train_m, config)
    # a holdout rmse that overflows is refused before anything is written
    holdout = rmse(trained, test_m) if len(test_m) else None
    save_model(trained, args.out)
    if args.report:
        dump_json(report.to_dict(), args.report)
    if ledger_obj is not None:
        ts = _now_or(args.timestamp)
        # credits never change consent, so one replay serves the whole loop
        state = led.accounts(ledger_obj, (kp.public_key for kp in keystore.values()))
        start = len(ledger_obj)
        for idx in sorted(keystore):
            if state[keystore[idx].public_key].consent:
                led.credit_tokens(ledger_obj, keystore[idx], args.reward, ts)
        led.append_blocks(ledger_obj[start:], args.ledger)
    print(f"final_objective={report.loss_history[-1]!r}")
    if holdout is not None:
        print(f"rmse_holdout={holdout!r}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    matrix = load_csv(args.matrix)
    print(f"rmse={rmse(model, matrix)!r}")
    return 0


def cmd_recommend(args) -> int:
    model = load_model(args.model)
    matrix = load_csv(args.matrix)
    recs = top_k(model, matrix, args.user, args.top, exclude_observed=not args.include_observed)
    for event, score in zip(recs.events, recs.scores):
        if not math.isfinite(score):
            raise NonFiniteScoreError(f"score of user {recs.user}, event {event} is {score!r}")
    doc = {"user": recs.user, "events": list(recs.events), "scores": list(recs.scores)}
    print(dump_json(doc, args.out), end="")
    return 0


def cmd_simulate(args) -> int:
    config = _train_config(args)
    if args.rounds < 0:
        raise InvalidParameterError(f"--rounds must be >= 0, got {args.rounds}")
    check_k_recs(args.rec_k)
    check_engagement(args.accept_top, args.accept_value)
    matrix, labels = synth_community_matrix(
        args.users, args.events, args.communities, args.in_rate, args.cross_rate, args.seed
    )
    train_m, test_m = split_holdout(matrix, args.holdout, args.seed)
    # train never modifies its input, so every round starts from this model
    fresh = init_model(args.users, args.events, args.k, args.gamma, args.seed, args.scale)
    rows = []
    model = None
    for rnd in range(args.rounds + 1):
        if rnd > 0:
            train_m = engagement_round(train_m, model, args.accept_top, args.accept_value)
        model, _ = train(fresh, train_m, config)
        recs = [
            top_k(model, train_m, u, args.rec_k, exclude_observed=False)
            for u in range(args.users)
        ]
        rows.append(
            {
                "round": rnd,
                "fragmentation_index": fragmentation_index(recs, labels),
                "n_observations": len(train_m),
                "rmse_holdout": rmse(model, test_m) if len(test_m) else None,
            }
        )
    dump_json(rows, args.out, indent=2)
    if args.csv:
        with atomic_write(args.csv) as fh:
            writer = csv.DictWriter(fh, METRIC_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    print(f"wrote {len(rows)} rounds to {args.out}")
    return 0


def cmd_ledger(args) -> int:
    action = args.action
    if action == "init":
        if args.users < 0:
            raise InvalidParameterError(f"--users must be >= 0, got {args.users}")
        # keystore indices name ratings users, whose indices are int64
        if args.users >= 2**63:
            raise InvalidParameterError(f"--users must fit in int64, got {args.users}")
        # never a replace: the keystore holds the only copy of every seed
        if Path(args.out).resolve() == Path(args.keys).resolve():
            raise InvalidParameterError(f"--out and --keys name the same file {args.out}")
        for path in (args.out, args.keys) if args.users else (args.out,):
            if Path(path).exists():
                raise InvalidParameterError(f"{path} exists; ledger init never replaces a file")
        chain = led.new_ledger(_now_or(args.timestamp))
        led.save_ledger(chain, args.out)
        if args.users:
            keystore = {str(i): _signing_seed(args.key_seed, i).hex() for i in range(args.users)}
            # every signing seed: readable by the owner alone
            dump_json(keystore, args.keys, 0o600, sort_keys=True, indent=2)
        print(f"initialized ledger at {args.out}")
        return 0

    if action == "import":
        account = led.import_profile(led.load_profile(args.profile))
        doc = {
            "public_key": account.public_key.hex(),
            "consent": account.consent,
            "balance": account.token_balance,
        }
        print(dump_json(doc), end="")
        return 0

    chain = led.load_ledger(args.ledger)
    if action == "verify":
        report = led.verify_chain(chain)
        print(report)
        return 0 if report.valid else 1
    if action in ("append", "consent"):
        kp = _keypair(_load_keystore(Path(args.keys)), args.user)
        ts = _now_or(args.timestamp)
        if action == "consent":
            block = led.set_consent(chain, kp, args.grant, ts)
        elif args.type == "credit":
            block = led.credit_tokens(chain, kp, args.amount, ts)
        else:
            block = led.append_event(
                chain, kp, led.PayloadType.POST, os.fsencode(args.payload), ts
            )
        led.append_blocks([block], args.ledger)
        print(f"appended block {block.index}")
        return 0
    if action == "balance":
        author = _resolve_author(args)
        print(led.accounts(chain, [author])[author].token_balance)
        return 0
    if action == "export":
        author = _resolve_author(args)
        profile = led.export_profile(chain, author)
        led.save_profile(profile, args.out)
        print(f"exported {len(profile.blocks)} blocks to {args.out}")
        return 0
    raise AssertionError(f"unhandled ledger action {action}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call to main shares it."""
    parser = argparse.ArgumentParser(
        prog="echofeed",
        description="Latent-factor engagement recommender with a consent ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train_flags = argparse.ArgumentParser(add_help=False)
    train_flags.add_argument("--k", type=int, default=2, help="latent dimension")
    train_flags.add_argument("--gamma", type=float, default=0.0, help="regularization weight")
    train_flags.add_argument("--lr", type=float, default=0.01, help="SGD learning rate")
    train_flags.add_argument("--epochs", type=int, default=100)
    train_flags.add_argument("--seed", type=int, default=0)
    train_flags.add_argument("--scale", type=float, default=0.1, help="init scale")

    p = sub.add_parser("ingest", help="validate a ratings CSV and write it back canonically")
    p.add_argument("csv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[train_flags], help="train a factor model by SGD")
    p.add_argument("matrix")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", help="training report JSON path")
    p.add_argument("--holdout", type=float, default=0.0)
    p.add_argument("--ledger", help="consent ledger; train only on consenting users")
    p.add_argument("--keys", help="keystore JSON mapping user index to signing seed")
    p.add_argument("--reward", type=int, default=1, help="tokens credited per consenting user")
    p.add_argument("--timestamp", type=int, default=None)
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("eval", help="holdout RMSE of a model on a matrix")
    p.add_argument("model")
    p.add_argument("matrix")

    p = sub.add_parser("recommend", help="top-K events for one user")
    p.add_argument("model")
    p.add_argument("matrix")
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--include-observed", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser(
        "simulate", parents=[train_flags], help="train/engage loop on planted communities"
    )
    p.add_argument("--users", type=int, default=40)
    p.add_argument("--events", type=int, default=40)
    p.add_argument("--communities", type=int, default=2)
    p.add_argument("--in-rate", type=float, default=0.5)
    p.add_argument("--cross-rate", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--accept-top", type=int, default=2)
    p.add_argument("--accept-value", type=float, default=4.0)
    p.add_argument("--rec-k", type=int, default=10, help="recommendations scored per user")
    p.add_argument("--holdout", type=float, default=0.1)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--csv", help="also write metrics as CSV")

    pl = sub.add_parser("ledger", help="consent ledger operations")
    actions = pl.add_subparsers(dest="action", required=True)

    a = actions.add_parser("init")
    a.add_argument("--out", required=True)
    a.add_argument("--keys", default="keys.json")
    a.add_argument("--users", type=int, default=0, help="generate this many keypairs")
    a.add_argument(
        "--key-seed", type=int, metavar="N",
        help="derive seed i as sha256(f'{N}:{i}'): public seeds anyone can recompute, "
        "for tests only (default: a secret random seed per user)",
    )
    a.add_argument("--timestamp", type=int, default=None)

    a = actions.add_parser("append")
    a.add_argument("ledger")
    a.add_argument("--keys", required=True)
    a.add_argument("--user", type=int, required=True)
    a.add_argument("--type", choices=["post", "credit"], default="post")
    a.add_argument("--payload", default="")
    a.add_argument("--amount", type=int, default=0)
    a.add_argument("--timestamp", type=int, default=None)

    a = actions.add_parser("consent")
    a.add_argument("ledger")
    a.add_argument("--keys", required=True)
    a.add_argument("--user", type=int, required=True)
    g = a.add_mutually_exclusive_group(required=True)
    g.add_argument("--grant", dest="grant", action="store_true")
    g.add_argument("--revoke", dest="grant", action="store_false")
    a.add_argument("--timestamp", type=int, default=None)

    a = actions.add_parser("verify")
    a.add_argument("ledger")

    for name in ("balance", "export"):
        a = actions.add_parser(name)
        a.add_argument("ledger")
        a.add_argument("--author", help="public key hex")
        a.add_argument("--user", type=int)
        a.add_argument("--keys")
        if name == "export":
            a.add_argument("--out", required=True)
        a.set_defaults(usage_error=a.error)

    a = actions.add_parser("import")
    a.add_argument("profile")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "train": cmd_train,
        "eval": cmd_eval,
        "recommend": cmd_recommend,
        "simulate": cmd_simulate,
        "ledger": cmd_ledger,
    }
    try:
        return handlers[args.command](args)
    # MemoryError: a dense array the flags ask for (say --k 10**17) cannot be allocated
    except (EchoFeedError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
