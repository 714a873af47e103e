"""End-to-end acceptance suite.

One test per criterion, each checked at its stated tolerance and reported
with a PASS/FAIL line (run `pytest -s tests/test_acceptance.py` to watch
them stream). Oracle values are computed independently inside each test;
planted instances and seeds are frozen from the calibration runs.
"""

import dataclasses
import random
import shutil
import time

import numpy as np
import pytest

from echofeed.cli import main
from echofeed.errors import VerificationFailureError
from echofeed.ledger import (
    BAD_SIGNATURE,
    HASH_MISMATCH,
    Keypair,
    PayloadType,
    accounts,
    append_event,
    consented_ratings,
    credit_tokens,
    export_profile,
    import_profile,
    new_ledger,
    set_consent,
    verify_chain,
)
from echofeed.model import init_model, l2_penalty, objective
from echofeed.ratings import from_triplets, split_holdout, write_csv
from echofeed.simulate import (
    CommunityLabels,
    engagement_round,
    fragmentation_index,
    synth_community_matrix,
    top_k,
)
from echofeed.training import TrainConfig, gradient_at, rmse, train


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    rng = random.Random(2024)
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        gamma = 0.0 if trial % 2 == 0 else 0.5
        n_u = rng.randint(1, 5)
        n_e = rng.randint(1, 5)
        k = rng.randint(1, 3)
        model = init_model(n_u, n_e, k, gamma, seed=trial, scale=1.0)
        trips = [
            (u, e, round(rng.uniform(0.5, 5.0), 3))
            for u in range(n_u)
            for e in range(n_e)
            if rng.random() < 0.6
        ]
        matrix = from_triplets(trips, n_u, n_e)
        u = rng.randrange(n_u)
        grad = gradient_at(model, matrix, u)
        fd = np.zeros(k)
        for j in range(k):
            plus = model.copy()
            plus.user_factors[u, j] += h
            minus = model.copy()
            minus.user_factors[u, j] -= h
            fd[j] = (objective(plus, matrix) - objective(minus, matrix)) / (2 * h)
        rel = float(np.abs(grad - fd).max() / max(1e-8, np.abs(fd).max()))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "gradient matches central finite differences",
        worst < 1e-4 and elapsed < 1.0,
        f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------- criterion 2

# 3x3 engagement matrix, deliberately not rank-1 so the optimum is nonzero
ORACLE_RATINGS = np.array(
    [
        [5.0, 1.0, 3.0],
        [4.0, 1.0, 2.0],
        [1.0, 4.0, 2.0],
    ]
)


def exact_grid_optimum(R, grid):
    """Global minimum of sum((R - x yT)^2) over the factor grid.

    For fixed y the users decouple: cost_u(x) = |r_u|^2 - 2 x (y.r_u)
    + x^2 |y|^2 is convex in x, so its grid minimum sits on a grid point
    adjacent to the continuous minimizer s/q. Scanning every y combination
    with that per-user reduction equals brute-force enumeration of the full
    6-dimensional grid.
    """
    step = grid[1] - grid[0]
    combos = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    q = (combos**2).sum(axis=1)
    total = np.zeros(combos.shape[0])
    for i in range(R.shape[0]):
        r = R[i]
        s = combos @ r
        with np.errstate(divide="ignore", invalid="ignore"):
            xstar = np.where(q > 0, s / np.where(q > 0, q, 1.0), 0.0)
        anchor = np.floor((xstar - grid[0]) / step).astype(int)
        best = np.full(combos.shape[0], np.inf)
        for off in (-1, 0, 1, 2):  # generous bracket around the minimizer
            x = grid[np.clip(anchor + off, 0, len(grid) - 1)]
            best = np.minimum(best, q * x * x - 2.0 * s * x)
        total += float(r @ r) + best
    return float(total.min())


def brute_grid_optimum(R, grid):
    best = np.inf
    for y1 in grid:
        for y2 in grid:
            for y3 in grid:
                y = np.array([y1, y2, y3])
                tot = 0.0
                for i in range(R.shape[0]):
                    tot += min(float(((R[i] - x * y) ** 2).sum()) for x in grid)
                best = min(best, tot)
    return best


def test_criterion_2_trained_objective_near_grid_optimum():
    t0 = time.perf_counter()
    # cross-check the decoupled oracle against naive enumeration on a
    # coarse grid before trusting it at full resolution
    coarse = np.linspace(-3.0, 3.0, 13)
    assert exact_grid_optimum(ORACLE_RATINGS, coarse) == pytest.approx(
        brute_grid_optimum(ORACLE_RATINGS, coarse), abs=1e-9
    )

    grid = np.linspace(-3.0, 3.0, 121)  # step 0.05
    grid_opt = exact_grid_optimum(ORACLE_RATINGS, grid)

    matrix = from_triplets(
        [(u, i, float(ORACLE_RATINGS[u, i])) for u in range(3) for i in range(3)], 3, 3
    )
    model = init_model(3, 3, 1, 0.0, seed=0, scale=0.1)
    trained, record = train(
        model, matrix, TrainConfig(learning_rate=0.01, epochs=500, seed=0)
    )
    trained_obj = record.loss_history[-1]
    elapsed = time.perf_counter() - t0
    report(
        2,
        "SGD reaches the grid-search optimum within 5%",
        trained_obj <= grid_opt * 1.05 and elapsed < 10.0,
        f"(trained {trained_obj:.4f} vs grid {grid_opt:.4f}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_planted_rank_two_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    X = rng.uniform(0.5, 1.5, (60, 2))
    Y = rng.uniform(0.5, 1.5, (40, 2))
    R = X @ Y.T
    mask = rng.random((60, 40)) < 0.3
    trips = [(int(u), int(i), float(R[u, i])) for u, i in zip(*np.nonzero(mask))]
    matrix = from_triplets(trips, 60, 40)
    train_m, test_m = split_holdout(matrix, 0.2, seed=1)
    model = init_model(60, 40, 2, 0.0, seed=0, scale=0.1)
    trained, _ = train(model, train_m, TrainConfig(learning_rate=0.01, epochs=200, seed=0))
    holdout_rmse = rmse(trained, test_m)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "rank-2 planted structure recovered (holdout RMSE < 0.15)",
        holdout_rmse < 0.15 and elapsed < 10.0,
        f"(rmse {holdout_rmse:.4f}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_regularization_monotonicity():
    rng = random.Random(21)
    trips = [
        (u, e, round(rng.uniform(1, 5), 2))
        for u in range(8)
        for e in range(8)
        if rng.random() < 0.6
    ]
    matrix = from_triplets(trips, 8, 8)
    penalties = []
    for gamma in (0.0, 0.1, 1.0, 10.0):
        model = init_model(8, 8, 2, gamma, seed=6, scale=0.1)
        trained, _ = train(model, matrix, TrainConfig(epochs=100, seed=6))
        penalties.append(l2_penalty(trained))
    ok = all(a > b for a, b in zip(penalties, penalties[1:]))
    report(
        4,
        "trained factor norms strictly shrink as gamma grows",
        ok,
        "(" + " > ".join(f"{p:.3g}" for p in penalties) + ")",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_filter_bubble_reproduction():
    t0 = time.perf_counter()
    matrix, labels = synth_community_matrix(40, 40, 2, 0.5, 0.0, seed=5)
    train_m, _ = split_holdout(matrix, 0.1, seed=5)
    config = TrainConfig(epochs=100, seed=5)

    def fit_and_score(current):
        model, _ = train(init_model(40, 40, 2, 0.0, seed=5, scale=0.1), current, config)
        recs = [top_k(model, current, u, 10, exclude_observed=False) for u in range(40)]
        return model, recs, fragmentation_index(recs, labels)

    model, recs, frag = fit_and_score(train_m)

    perm = list(labels.labels)
    random.Random(2).shuffle(perm)
    permuted = CommunityLabels(tuple(perm), labels.n_communities, labels.event_labels)
    frag_permuted = fragmentation_index(recs, permuted)

    trajectory = [frag]
    for _ in range(3):
        train_m = engagement_round(train_m, model, accept_top=2, accept_value=4.0)
        model, recs, frag_r = fit_and_score(train_m)
        trajectory.append(frag_r)

    elapsed = time.perf_counter() - t0
    ok = (
        trajectory[0] >= 0.9
        and abs(frag_permuted - 0.5) <= 0.1
        and all(a <= b for a, b in zip(trajectory, trajectory[1:]))
        and elapsed < 30.0
    )
    report(
        5,
        "recommendations fragment users into their communities",
        ok,
        f"(index {trajectory[0]:.3f}, permuted {frag_permuted:.3f}, "
        f"trajectory {[round(f, 3) for f in trajectory]}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 6


def bit_flips(data: bytes):
    for bit in range(len(data) * 8):
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        yield bytes(out)


def five_block_ledger():
    led = new_ledger(timestamp=100)
    alice, bob = Keypair(b"\x01" * 32), Keypair(b"\x02" * 32)
    append_event(led, alice, PayloadType.POST, b"hi", 101)
    set_consent(led, alice, True, 102)
    credit_tokens(led, bob, 7, 103)
    append_event(led, bob, PayloadType.POST, b"x", 104)
    return led


def test_criterion_6_ledger_immutability():
    led = five_block_ledger()
    assert verify_chain(led).valid

    checked = 0
    for pos, block in enumerate(led):
        mutations = []
        for flipped in bit_flips(block.index.to_bytes(8, "big")):
            mutations.append(({"index": int.from_bytes(flipped, "big")}, HASH_MISMATCH))
        for flipped in bit_flips(block.prev_hash):
            mutations.append(({"prev_hash": flipped}, HASH_MISMATCH))
        for flipped in bit_flips(block.timestamp.to_bytes(8, "big")):
            mutations.append(({"timestamp": int.from_bytes(flipped, "big")}, HASH_MISMATCH))
        for flipped in bit_flips(block.author):
            mutations.append(({"author": flipped}, HASH_MISMATCH))
        for flipped in bit_flips(bytes([block.payload_type])):
            mutations.append(({"payload_type": flipped[0]}, HASH_MISMATCH))
        for flipped in bit_flips(block.payload):
            mutations.append(({"payload": flipped}, HASH_MISMATCH))
        for flipped in bit_flips(block.signature):
            mutations.append(({"signature": flipped}, BAD_SIGNATURE))
        for changes, expected_reason in mutations:
            blocks = list(led)
            blocks[pos] = dataclasses.replace(block, **changes)
            verdict = verify_chain(blocks)
            assert not verdict.valid, (pos, changes)
            assert verdict.bad_index == pos, (pos, changes, verdict)
            assert verdict.reason == expected_reason, (pos, changes, verdict)
            checked += 1

    # long-chain verification throughput
    big = new_ledger(timestamp=0)
    signers = [Keypair(bytes([i + 1]) * 32) for i in range(5)]
    for t in range(9_999):
        kp = signers[t % len(signers)]
        kind = t % 4
        if kind == 0:
            append_event(big, kp, PayloadType.POST, b"post payload", t)
        elif kind == 1:
            set_consent(big, kp, True, t)
        elif kind == 2:
            set_consent(big, kp, False, t)
        else:
            credit_tokens(big, kp, t % 97, t)
    assert len(big) == 10_000
    t0 = time.perf_counter()
    verdict = verify_chain(big)
    elapsed = time.perf_counter() - t0
    report(
        6,
        "every single-bit tamper detected; 10k-block verify under 1s",
        verdict.valid and elapsed < 1.0,
        f"({checked} tampers, verify {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_consent_gating_bit_identical():
    rng = random.Random(70)
    trips = [
        (u, e, round(rng.uniform(1, 5), 2))
        for u in range(10)
        for e in range(8)
        if rng.random() < 0.5
    ]
    matrix = from_triplets(trips, 10, 8)

    led = new_ledger()
    users = {i: Keypair(bytes([i + 1]) * 32) for i in range(10)}
    for i, kp in users.items():
        set_consent(led, kp, True, i)
    set_consent(led, users[2], False, 50)
    set_consent(led, users[7], False, 51)
    registry = {i: kp.public_key for i, kp in users.items()}

    gated = consented_ratings(led, matrix, registry)
    by_hand = from_triplets(
        [
            (u, e, v)
            for u, e, v in zip(matrix.users, matrix.events, matrix.values)
            if u not in (2, 7)
        ],
        10,
        8,
    )
    assert gated == by_hand

    config = TrainConfig(epochs=60, seed=9)
    model = init_model(10, 8, 2, 0.1, seed=4)
    trained_a, report_a = train(model, gated, config)
    trained_b, report_b = train(model, by_hand, config)
    ok = (
        report_a.loss_history == report_b.loss_history
        and np.array_equal(trained_a.user_factors, trained_b.user_factors)
        and np.array_equal(trained_a.event_factors, trained_b.event_factors)
    )
    report(7, "consent-gated training is bit-identical to hand filtering", ok)


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_token_conservation_and_replay():
    rng = random.Random(88)
    led = new_ledger()
    users = [Keypair(bytes([i + 1]) * 32) for i in range(8)]
    tracked = {kp.public_key: [False, 0] for kp in users}
    minted = 0
    for t in range(1000):
        kp = rng.choice(users)
        action = rng.randrange(4)
        if action == 0:
            append_event(led, kp, PayloadType.POST, rng.randbytes(rng.randrange(20)), t)
        elif action == 1:
            set_consent(led, kp, True, t)
            tracked[kp.public_key][0] = True
        elif action == 2:
            set_consent(led, kp, False, t)
            tracked[kp.public_key][0] = False
        else:
            amount = rng.randrange(100)
            credit_tokens(led, kp, amount, t)
            tracked[kp.public_key][1] += amount
            minted += amount
    state = accounts(led, tracked)
    replay_ok = all(
        state[kp.public_key].consent == tracked[kp.public_key][0]
        and state[kp.public_key].token_balance == tracked[kp.public_key][1]
        for kp in users
    )
    conserved = sum(state[kp.public_key].token_balance for kp in users) == minted
    ok = replay_ok and conserved and verify_chain(led).valid and len(led) == 1001
    report(
        8,
        "replay equals incremental state; tokens conserved over 1000 events",
        ok,
        f"(minted {minted})",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_portable_profile_round_trip():
    led = new_ledger()
    alice = Keypair(b"\x0a" * 32)
    bob = Keypair(b"\x0b" * 32)
    append_event(led, alice, PayloadType.POST, b"first post", 10)
    set_consent(led, alice, True, 11)
    credit_tokens(led, bob, 100, 12)
    credit_tokens(led, alice, 5, 13)
    set_consent(led, alice, False, 14)
    set_consent(led, alice, True, 15)
    credit_tokens(led, alice, 2, 16)

    profile = export_profile(led, alice.public_key)
    account = import_profile(profile)
    replayed = accounts(led, [alice.public_key])[alice.public_key]
    round_trip_ok = (
        account.consent is replayed.consent
        and account.token_balance == replayed.token_balance == 7
    )

    tampered_detected = 0
    tampered_total = 0
    for pos, block in enumerate(profile.blocks):
        fields = {
            "index": block.index.to_bytes(8, "big"),
            "prev_hash": block.prev_hash,
            "timestamp": block.timestamp.to_bytes(8, "big"),
            "author": block.author,
            "payload_type": bytes([block.payload_type]),
            "payload": block.payload,
            "signature": block.signature,
            "hash": block.hash,
        }
        for name, data in fields.items():
            for byte_pos in range(len(data)):
                corrupted = bytearray(data)
                corrupted[byte_pos] ^= 0x01
                corrupted = bytes(corrupted)
                if name in ("index", "timestamp"):
                    changes = {name: int.from_bytes(corrupted, "big")}
                elif name == "payload_type":
                    changes = {name: corrupted[0]}
                else:
                    changes = {name: corrupted}
                blocks = list(profile.blocks)
                blocks[pos] = dataclasses.replace(block, **changes)
                tampered_total += 1
                try:
                    import_profile(dataclasses.replace(profile, blocks=tuple(blocks)))
                except VerificationFailureError:
                    tampered_detected += 1
    ok = round_trip_ok and tampered_detected == tampered_total
    report(
        9,
        "profile export/import preserves state; any tampered byte fails",
        ok,
        f"({tampered_detected}/{tampered_total} tampers rejected)",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism(tmp_path):
    rng = random.Random(10)
    trips = [
        (u, e, round(rng.uniform(1, 5), 2))
        for u in range(10)
        for e in range(10)
        if rng.random() < 0.5
    ]
    csv_path = tmp_path / "ratings.csv"
    write_csv(from_triplets(trips, 10, 10), csv_path)

    assert main([
        "ledger", "init", "--out", str(tmp_path / "chain.jsonl"),
        "--keys", str(tmp_path / "keys.json"), "--users", "10", "--timestamp", "50",
    ]) == 0
    for u in range(10):
        assert main([
            "ledger", "consent", str(tmp_path / "chain.jsonl"),
            "--keys", str(tmp_path / "keys.json"), "--user", str(u),
            "--grant", "--timestamp", str(60 + u),
        ]) == 0
    pristine = (tmp_path / "chain.jsonl").read_bytes()

    train_outputs = []
    for run_dir in ("run_a", "run_b"):
        d = tmp_path / run_dir
        d.mkdir()
        chain = d / "chain.jsonl"
        chain.write_bytes(pristine)
        code = main([
            "train", str(csv_path), "--out", str(d / "model.json"),
            "--report", str(d / "report.json"), "--ledger", str(chain),
            "--keys", str(tmp_path / "keys.json"), "--reward", "2",
            "--holdout", "0.2", "--epochs", "40", "--seed", "12",
            "--timestamp", "999",
        ])
        assert code == 0
        train_outputs.append(
            (
                (d / "model.json").read_bytes(),
                (d / "report.json").read_bytes(),
                chain.read_bytes(),
            )
        )
    train_ok = train_outputs[0] == train_outputs[1]

    sim_outputs = []
    for run_dir in ("sim_a", "sim_b"):
        d = tmp_path / run_dir
        d.mkdir()
        code = main([
            "simulate", "--users", "16", "--events", "16", "--rounds", "2",
            "--epochs", "30", "--seed", "3", "--out", str(d / "metrics.json"),
            "--csv", str(d / "metrics.csv"),
        ])
        assert code == 0
        sim_outputs.append(
            ((d / "metrics.json").read_bytes(), (d / "metrics.csv").read_bytes())
        )
    sim_ok = sim_outputs[0] == sim_outputs[1]
    report(
        10,
        "cmd_train and cmd_simulate are byte-deterministic",
        train_ok and sim_ok,
    )
