import base64
import hashlib
import json
import warnings

import pytest

from echofeed.cli import build_parser, main
from echofeed.ledger import load_ledger, verify_chain
from echofeed.ratings import from_triplets, load_csv, write_csv


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def matrix_csv(tmp_path):
    rng_trips = [(u, e, 1.0 + ((u * 7 + e * 3) % 9) / 2) for u in range(10) for e in range(8)]
    matrix = from_triplets(rng_trips, 10, 8)
    path = tmp_path / "ratings.csv"
    write_csv(matrix, path)
    return path


@pytest.fixture
def consent_env(tmp_path, capsys):
    """Ledger + keystore with users 0..9, everyone consenting."""
    ledger = tmp_path / "chain.jsonl"
    keys = tmp_path / "keys.json"
    code, _, _ = run(
        capsys, "ledger", "init", "--out", ledger, "--keys", keys,
        "--users", 10, "--key-seed", 5, "--timestamp", 100,
    )
    assert code == 0
    for u in range(10):
        code, _, _ = run(
            capsys, "ledger", "consent", ledger, "--keys", keys,
            "--user", u, "--grant", "--timestamp", 101 + u,
        )
        assert code == 0
    return ledger, keys


# --- ingest ---


def test_ingest_valid(tmp_path, capsys, matrix_csv):
    out = tmp_path / "canonical.csv"
    code, stdout, _ = run(capsys, "ingest", matrix_csv, "--out", out)
    assert code == 0
    assert "80 observations" in stdout
    assert load_csv(out) == load_csv(matrix_csv)


def test_ingest_malformed_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,1.0\n0,1,oops\n")
    code, _, err = run(capsys, "ingest", bad, "--out", tmp_path / "x.csv")
    assert code == 1
    assert "line 2" in err


def test_ingest_non_utf8_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"0,0,1.0\r\n0,1,\xff\n")
    code, _, err = run(capsys, "ingest", bad, "--out", tmp_path / "x.csv")
    assert code == 1
    assert "line 2" in err and "UTF-8" in err


def test_ingest_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "ingest", empty, "--out", tmp_path / "x.csv")
    assert code == 1
    assert "error" in err


# --- train / eval / recommend ---


def test_train_writes_model_and_report(tmp_path, capsys, matrix_csv):
    model = tmp_path / "model.json"
    report = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "train", matrix_csv, "--out", model, "--report", report,
        "--epochs", 30, "--holdout", 0.2, "--seed", 3,
    )
    assert code == 0
    assert "final_objective=" in stdout
    assert "rmse_holdout=" in stdout
    doc = json.loads(report.read_text())
    assert doc["epochs_run"] == 30
    assert len(doc["loss_history"]) == 30
    assert model.exists()


def test_train_deterministic_outputs(tmp_path, capsys, matrix_csv):
    outs = []
    for name in ("a", "b"):
        model = tmp_path / f"model_{name}.json"
        report = tmp_path / f"report_{name}.json"
        code, _, _ = run(
            capsys, "train", matrix_csv, "--out", model, "--report", report,
            "--epochs", 20, "--seed", 11,
        )
        assert code == 0
        outs.append((model.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_train_with_ledger_credits_consenting_users(tmp_path, capsys, matrix_csv, consent_env):
    ledger, keys = consent_env
    # user 2 revokes before training
    run(capsys, "ledger", "consent", ledger, "--keys", keys,
        "--user", 2, "--revoke", "--timestamp", 200)
    code, _, _ = run(
        capsys, "train", matrix_csv, "--out", tmp_path / "m.json",
        "--ledger", ledger, "--keys", keys, "--reward", 3,
        "--epochs", 5, "--timestamp", 300,
    )
    assert code == 0
    assert verify_chain(load_ledger(ledger)).valid
    code, out, _ = run(capsys, "ledger", "balance", ledger, "--keys", keys, "--user", 0)
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "ledger", "balance", ledger, "--keys", keys, "--user", 2)
    assert code == 0 and out.strip() == "0"


def test_train_with_no_consenting_users_fails(tmp_path, capsys, matrix_csv):
    ledger = tmp_path / "chain.jsonl"
    keys = tmp_path / "keys.json"
    run(capsys, "ledger", "init", "--out", ledger, "--keys", keys,
        "--users", 10, "--timestamp", 100)
    code, _, err = run(
        capsys, "train", matrix_csv, "--out", tmp_path / "m.json",
        "--ledger", ledger, "--keys", keys,
    )
    assert code == 1
    assert "no observations" in err


def test_train_with_no_consenting_users_leaves_the_ledger_unchanged(tmp_path, capsys, matrix_csv):
    ledger = tmp_path / "chain.jsonl"
    keys = tmp_path / "keys.json"
    run(capsys, "ledger", "init", "--out", ledger, "--keys", keys,
        "--users", 10, "--timestamp", 100)
    before = ledger.read_bytes()
    code, _, _ = run(
        capsys, "train", matrix_csv, "--out", tmp_path / "m.json",
        "--ledger", ledger, "--keys", keys, "--timestamp", 300,
    )
    assert code == 1
    assert ledger.read_bytes() == before


def test_train_ledger_without_keys_is_usage_error(tmp_path, capsys, matrix_csv):
    ledger = tmp_path / "chain.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["train", str(matrix_csv), "--out", str(tmp_path / "m.json"), "--ledger", str(ledger)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: echofeed train")
    assert "--ledger requires --keys" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", [["train", "ratings.csv"], ["simulate"]])
def test_no_shuffle_is_not_an_option(tmp_path, capsys, command):
    # every epoch's order is drawn from --seed; there is no unshuffled mode
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(tmp_path / "out.json"), "--no-shuffle"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-shuffle" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["train", "ratings.csv"], ["simulate"]])
def test_tolerance_is_not_an_option(tmp_path, capsys, command):
    # training always runs --epochs epochs; there is no early stop
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(tmp_path / "out.json"), "--tolerance", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_prints_rmse(tmp_path, capsys, matrix_csv):
    model = tmp_path / "model.json"
    run(capsys, "train", matrix_csv, "--out", model, "--epochs", 30)
    code, stdout, _ = run(capsys, "eval", model, matrix_csv)
    assert code == 0
    assert stdout.startswith("rmse=")


def test_recommend_outputs_ranked_events(tmp_path, capsys, matrix_csv):
    model = tmp_path / "model.json"
    run(capsys, "train", matrix_csv, "--out", model, "--epochs", 30)
    out = tmp_path / "recs.json"
    code, stdout, _ = run(
        capsys, "recommend", model, matrix_csv, "--user", 0, "--top", 3, "--out", out
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["user"] == 0
    assert len(doc["events"]) <= 3
    assert doc == json.loads(out.read_text())
    assert doc["scores"] == sorted(doc["scores"], reverse=True)


def test_recommend_include_observed(tmp_path, capsys):
    # user 0 has rated event 1, the event that scores highest for them
    model = tmp_path / "model.json"
    model.write_text(
        '{"k": 1, "gamma": 0.0, "user_factors": [[1.0]], "event_factors": [[1.0], [3.0], [2.0]]}'
    )
    ratings = tmp_path / "r.csv"
    ratings.write_text("# users=1 events=3\n0,1,5.0\n")
    recs = {}
    for flags in ([], ["--include-observed"]):
        code, stdout, _ = run(capsys, "recommend", model, ratings, "--user", 0, "--top", 2, *flags)
        assert code == 0
        recs[bool(flags)] = json.loads(stdout)
    assert recs[True] == {"user": 0, "events": [1, 2], "scores": [3.0, 2.0]}
    assert recs[False] == {"user": 0, "events": [2, 0], "scores": [2.0, 1.0]}


@pytest.fixture
def overflowing_model(tmp_path):
    """A model load_model accepts whose score for (user 0, event 0) is inf,
    with a ratings file in which user 0 has rated only event 1."""
    model = tmp_path / "big.json"
    model.write_text(
        '{"k": 1, "gamma": 0.0, "user_factors": [[1e200]], "event_factors": [[1e200], [1.0]]}'
    )
    ratings = tmp_path / "one.csv"
    ratings.write_text("0,1,1.0\n")
    return model, ratings


def run_recording_warnings(capsys, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *args)
    return (*result, [str(w.message) for w in caught])


def test_train_diverging_objective_is_an_error(tmp_path, capsys):
    # every update stays finite, but the factors' squares overflow the objective
    ratings = tmp_path / "r.csv"
    ratings.write_text("0,0,4.0\n0,1,2.0\n1,0,3.5\n1,2,1.0\n2,1,5.0\n")
    model, report = tmp_path / "m.json", tmp_path / "report.json"
    code, out, err, caught = run_recording_warnings(
        capsys, "train", ratings, "--scale", 1e100, "--lr", 1e-300, "--k", 1,
        "--epochs", 2, "--out", model, "--report", report,
    )
    assert (code, out, caught) == (1, "", [])
    assert err == "error: non-finite objective inf after epoch 1\n"
    assert not model.exists() and not report.exists()


def test_train_overflowing_holdout_rmse_writes_nothing(tmp_path, capsys):
    # the objective stays finite (9.19e307), but the holdout predictions overflow
    ratings = tmp_path / "r.csv"
    ratings.write_text("0,0,4.0\n0,1,2.0\n1,0,3.5\n1,2,1.0\n2,1,5.0\n2,2,3.0\n3,0,1.0\n3,3,2.0\n")
    code, out, err, caught = run_recording_warnings(
        capsys, "train", ratings, "--out", tmp_path / "m.json", "--report", tmp_path / "rep.json",
        "--k", 1, "--epochs", 1, "--lr", 1e-300, "--scale", 1.2e77, "--holdout", 0.5,
        "--seed", 7,
    )
    assert (code, out, caught) == (1, "", [])
    assert err == "error: rmse is inf: the model's predictions overflow\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_simulate_overflowing_holdout_rmse_writes_nothing(tmp_path, capsys):
    code, out, err, caught = run_recording_warnings(
        capsys, "simulate", "--users", 6, "--events", 6, "--k", 1, "--epochs", 1,
        "--lr", 1e-300, "--scale", 1.2e77, "--rounds", 0, "--holdout", 0.5, "--seed", 0,
        "--out", tmp_path / "sim.json", "--csv", tmp_path / "sim.csv",
    )
    assert (code, out, caught) == (1, "", [])
    assert err == "error: rmse is inf: the model's predictions overflow\n"
    assert list(tmp_path.iterdir()) == []


def test_recommend_overflowing_score_is_an_error(capsys, overflowing_model):
    model, ratings = overflowing_model
    code, out, err, caught = run_recording_warnings(capsys, "recommend", model, ratings, "--user", 0)
    assert (code, out, caught) == (1, "", [])
    assert err == "error: score of user 0, event 0 is inf\n"


def test_eval_overflowing_rmse_is_an_error(capsys, overflowing_model):
    model, ratings = overflowing_model
    code, out, err, caught = run_recording_warnings(capsys, "eval", model, ratings)
    assert (code, out, caught) == (1, "", [])
    assert err == "error: rmse is inf: the model's predictions overflow\n"


# --- simulate ---


def test_simulate_rounds_zero_single_row(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code, _, _ = run(
        capsys, "simulate", "--users", 12, "--events", 12, "--epochs", 20,
        "--rounds", 0, "--out", out, "--seed", 4,
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["round"] == 0
    assert set(rows[0]) == {"round", "fragmentation_index", "n_observations", "rmse_holdout"}


def test_simulate_two_community_bubble(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code, _, _ = run(
        capsys, "simulate", "--users", 20, "--events", 20, "--rounds", 2,
        "--rec-k", 6, "--epochs", 60, "--seed", 2,
        "--in-rate", 0.6, "--cross-rate", 0.0, "--out", out,
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[-1]["fragmentation_index"] >= 0.9
    assert rows[-1]["n_observations"] > rows[0]["n_observations"]


def test_simulate_deterministic_and_csv(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"metrics_{name}.json"
        csv_out = tmp_path / f"metrics_{name}.csv"
        code, _, _ = run(
            capsys, "simulate", "--users", 12, "--events", 12, "--epochs", 20,
            "--rounds", 2, "--out", out, "--csv", csv_out, "--seed", 4,
        )
        assert code == 0
        blobs.append((out.read_bytes(), csv_out.read_bytes()))
    assert blobs[0] == blobs[1]
    header, *rows = (tmp_path / "metrics_a.csv").read_text().splitlines()
    assert header == "round,fragmentation_index,n_observations,rmse_holdout"
    assert len(rows) == 3


def test_simulate_negative_rounds_rejected_before_work(tmp_path, capsys):
    out, csv_out = tmp_path / "metrics.json", tmp_path / "metrics.csv"
    code, _, err = run(capsys, "simulate", "--rounds", -1, "--out", out, "--csv", csv_out)
    assert code == 1
    assert err == "error: --rounds must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--accept-top", 0], "accept_top must be >= 1, got 0"),
        (["--accept-top", 0, "--rounds", 0], "accept_top must be >= 1, got 0"),
        (["--accept-value", 0], "accept_value must be > 0, got 0.0"),
        (["--accept-value", "nan"], "accept_value must be finite, got nan"),
        (["--accept-value", "inf", "--rounds", 0], "accept_value must be finite, got inf"),
        (["--rec-k", 0], "k_recs must be >= 1, got 0"),
        (["--lr", "nan"], "learning_rate must be finite and > 0, got nan"),
        (["--scale", "inf"], "init scale must be finite and > 0, got inf"),
        (["--gamma", "nan"], "gamma must be finite and >= 0, got nan"),
    ],
    ids=[
        "accept-top", "accept-top-no-rounds", "accept-value", "accept-value-nan",
        "accept-value-inf-no-rounds", "rec-k", "lr-nan", "scale-inf",
        "gamma-nan",
    ],
)
def test_simulate_bad_round_flags_rejected_before_work(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_train(*args, **kwargs):
        raise AssertionError("train ran before the flags were checked")

    monkeypatch.setattr("echofeed.cli.train", no_train)
    out = tmp_path / "metrics.json"
    code, _, err = run(capsys, "simulate", *flags, "--out", out)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lr", "inf"], "learning_rate must be finite and > 0, got inf"),
        (["--scale", "nan"], "init scale must be finite and > 0, got nan"),
        (["--gamma", "inf"], "gamma must be finite and >= 0, got inf"),
    ],
    ids=["lr-inf", "scale-nan", "gamma-inf"],
)
def test_train_non_finite_flags_are_domain_errors(tmp_path, capsys, matrix_csv, flags, message):
    out = tmp_path / "m.json"
    code, stdout, err = run(capsys, "train", matrix_csv, "--out", out, *flags)
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "reward, message",
    [
        (-3, "token amount must be >= 0, got -3"),
        (2**64, f"token amount too large for 8 bytes: {2**64}"),
    ],
    ids=["negative", "too-large"],
)
def test_train_out_of_range_reward_rejected_before_work(
    tmp_path, capsys, matrix_csv, consent_env, reward, message
):
    ledger, keys = consent_env
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    code, _, err = run(
        capsys, "train", matrix_csv, "--out", tmp_path / "m.json", "--report",
        tmp_path / "r.json", "--ledger", ledger, "--keys", keys, "--reward", reward,
        "--timestamp", 300,
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("timestamp", [-1, 2**64], ids=["negative", "too-large"])
def test_train_out_of_range_timestamp_rejected_before_work(
    tmp_path, capsys, matrix_csv, consent_env, timestamp
):
    # the reward blocks' timestamp is refused before training, so no model
    # or report is written and the ledger is unchanged
    ledger, keys = consent_env
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    code, stdout, err = run(
        capsys, "train", matrix_csv, "--out", tmp_path / "m.json", "--report",
        tmp_path / "r.json", "--ledger", ledger, "--keys", keys, "--timestamp", timestamp,
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: timestamp must fit an unsigned 64-bit int, got {timestamp}\n"
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def tiny_run_args(command, tmp_path):
    """The input arguments of a two-user train or simulate run."""
    if command == "simulate":
        return ["--users", 2, "--events", 2, "--epochs", 1, "--rounds", 1]
    matrix = tmp_path / "tiny.csv"
    matrix.write_text("0,0,1.0\n1,1,2.0\n")
    return [matrix, "--epochs", 1]


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_negative_seed_is_a_domain_error(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, command, *tiny_run_args(command, tmp_path),
                            "--seed", -1, "--out", out)
    assert code == 1
    assert stdout == ""
    assert err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate"])
def test_unallocatable_width_is_a_domain_error(tmp_path, capsys, command):
    # two users at k = 10**17 need about 1.6 EB, which no allocator can map
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, command, *tiny_run_args(command, tmp_path),
                            "--k", 10**17, "--out", out)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--k", 10**18], "user factors of 2x1000000000000000000 float64 cells"),
        (["simulate", "--users", 2**70], f"community matrix of {2**70}x2 float64 cells"),
        (["simulate", "--events", 2**70], f"community matrix of 2x{2**70} float64 cells"),
        (["simulate", "--communities", 2**70], f"n_communities must fit in int64, got {2**70}"),
    ],
    ids=["train-k", "simulate-users", "simulate-events", "simulate-communities"],
)
def test_oversized_size_flag_is_refused_before_numpy(tmp_path, capsys, argv, message):
    # these byte counts overflow numpy's size type, so numpy would raise a
    # bare ValueError or OverflowError instead of trying to allocate
    command, *flags = argv
    out = tmp_path / "out.json"
    # the flag under test comes last, so it overrides the tiny run's own
    code, stdout, err = run(capsys, command, *tiny_run_args(command, tmp_path), *flags,
                            "--out", out)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


# --- ledger subcommands ---


def test_ledger_init_verify(tmp_path, capsys):
    ledger = tmp_path / "chain.jsonl"
    code, _, _ = run(capsys, "ledger", "init", "--out", ledger, "--timestamp", 7)
    assert code == 0
    code, stdout, _ = run(capsys, "ledger", "verify", ledger)
    assert code == 0
    assert stdout.strip() == "valid"


def init_seeds(capsys, keys):
    """The signing seeds of a 3-user `ledger init` without --key-seed."""
    code, _, _ = run(
        capsys, "ledger", "init", "--out", keys.with_suffix(".jsonl"), "--keys", keys,
        "--users", 3,
    )
    assert code == 0
    return {int(user): bytes.fromhex(seed) for user, seed in json.loads(keys.read_text()).items()}


def test_ledger_init_draws_secret_seeds_by_default(tmp_path, capsys):
    first = init_seeds(capsys, tmp_path / "a.json")
    second = init_seeds(capsys, tmp_path / "b.json")
    assert first.keys() == second.keys() == {0, 1, 2}
    assert all(len(seed) == 32 for seed in [*first.values(), *second.values()])
    assert first != second
    # nor is a seed the public derivation that --key-seed 0 gives
    assert first[1] != hashlib.sha256(b"0:1").digest()


@pytest.mark.parametrize("timestamp", [-1, 2**64])
def test_ledger_init_bad_timestamp_is_a_domain_error(tmp_path, capsys, timestamp):
    code, stdout, err = run(
        capsys, "ledger", "init", "--out", tmp_path / "chain.jsonl", "--timestamp", timestamp
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: timestamp must fit an unsigned 64-bit int, got {timestamp}\n"
    assert list(tmp_path.iterdir()) == []


def test_ledger_init_oversized_user_count_is_a_domain_error(tmp_path, capsys):
    # 2**63 keypairs could never be derived; the command must not start
    code, stdout, err = run(
        capsys, "ledger", "init", "--out", tmp_path / "chain.jsonl",
        "--keys", tmp_path / "keys.json", "--users", 2**63,
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: --users must fit in int64, got {2**63}\n"
    assert list(tmp_path.iterdir()) == []


def test_ledger_init_negative_user_count_is_a_domain_error(tmp_path, capsys):
    # no keypairs to derive is no reason to write a chain or an empty keystore
    code, stdout, err = run(
        capsys, "ledger", "init", "--out", tmp_path / "chain.jsonl",
        "--keys", tmp_path / "keys.json", "--users", -3,
    )
    assert code == 1
    assert stdout == ""
    assert err == "error: --users must be >= 0, got -3\n"
    assert list(tmp_path.iterdir()) == []


def test_ledger_append_and_tamper_detection(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    code, _, _ = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 1,
        "--payload", "hello world", "--timestamp", 500,
    )
    assert code == 0
    lines = ledger.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["payload_b64"] = base64.b64encode(b"evil").decode()
    lines[3] = json.dumps(doc, sort_keys=True)
    ledger.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "ledger", "verify", ledger)
    assert code == 1
    assert "invalid at index 3" in stdout


def test_ledger_credit_append(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    code, _, _ = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 4,
        "--type", "credit", "--amount", 9, "--timestamp", 600,
    )
    assert code == 0
    code, out, _ = run(capsys, "ledger", "balance", ledger, "--keys", keys, "--user", 4)
    assert out.strip() == "9"


def test_ledger_credit_too_large_leaves_the_ledger_unchanged(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    before = ledger.read_bytes()
    code, stdout, err = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 4,
        "--type", "credit", "--amount", 2**64, "--timestamp", 600,
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: token amount too large for 8 bytes: {2**64}\n"
    assert ledger.read_bytes() == before


def test_ledger_post_payload_bytes_round_trip(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    # argv holding the bytes b"caf\xc3\xa9\xff" decodes to this string (surrogateescape)
    code, _, _ = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 2,
        "--payload", "caf\u00e9\udcff", "--timestamp", 650,
    )
    assert code == 0
    chain = load_ledger(ledger)
    assert chain[-1].payload == b"caf\xc3\xa9\xff"
    assert verify_chain(chain).valid


@pytest.mark.parametrize(
    "author", ["zz", "ab" * 31, "ab" * 33, None], ids=["non-hex", "short", "long", "missing"]
)
@pytest.mark.parametrize("action", ["balance", "export"])
def test_ledger_bad_author_is_usage_error(tmp_path, capsys, consent_env, action, author):
    ledger, _ = consent_env
    extra = ["--out", str(tmp_path / "profile.json")] if action == "export" else []
    if author is not None:
        extra += ["--author", author]
    with pytest.raises(SystemExit) as exc:
        main(["ledger", action, str(ledger), *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: echofeed ledger {action} ")
    if author is None:
        assert "provide either --author or both --user and --keys" in err
    else:
        assert "--author must be 32 bytes in hex" in err


def test_shared_parser_survives_a_usage_error(capsys, consent_env):
    ledger, keys = consent_env
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["ledger", "balance", str(ledger), "--author", "zz"])
    assert exc.value.code == 2
    assert "--author must be 32 bytes in hex" in capsys.readouterr().err
    # nothing of the refused command's flags carries over to the next one
    assert run(capsys, "ledger", "balance", ledger, "--user", 3, "--keys", keys) == (0, "0\n", "")
    assert run(capsys, "ledger", "verify", ledger) == (0, "valid\n", "")


@pytest.mark.parametrize("action", ["append", "balance", "export"])
def test_ledger_domain_errors_are_unquoted(tmp_path, capsys, action):
    ledger, keys = tmp_path / "chain.jsonl", tmp_path / "keys.json"
    code, _, _ = run(capsys, "ledger", "init", "--out", ledger, "--keys", keys, "--users", 2)
    assert code == 0
    unknown = "ab" * 32
    args, message = {
        "append": (["--keys", keys, "--user", 7], "user 7 not present in the keystore"),
        "balance": (["--keys", keys, "--user", 7], "user 7 not present in the keystore"),
        "export": (["--author", unknown, "--out", tmp_path / "profile.json"],
                   f"no blocks authored by {unknown}"),
    }[action]
    code, _, err = run(capsys, "ledger", action, ledger, *args)
    assert code == 1
    assert err == f"error: {message}\n"


def test_ledger_export_import_round_trip(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    run(capsys, "ledger", "append", ledger, "--keys", keys, "--user", 3,
        "--type", "credit", "--amount", 8, "--timestamp", 700)
    profile = tmp_path / "profile.json"
    code, _, _ = run(
        capsys, "ledger", "export", ledger, "--keys", keys, "--user", 3, "--out", profile
    )
    assert code == 0
    code, stdout, _ = run(capsys, "ledger", "import", profile)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["consent"] is True
    assert doc["balance"] == 8


def test_ledger_import_rejects_tampered_profile(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    profile = tmp_path / "profile.json"
    run(capsys, "ledger", "export", ledger, "--keys", keys, "--user", 6, "--out", profile)
    doc = json.loads(profile.read_text())
    doc["blocks"][0]["timestamp"] += 1
    profile.write_text(json.dumps(doc))
    code, _, err = run(capsys, "ledger", "import", profile)
    assert code == 1
    assert "error" in err


def test_ledger_append_unknown_user(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    code, _, err = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 42,
        "--payload", "x",
    )
    assert code == 1
    assert "keystore" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_file_is_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "eval", tmp_path / "nope.json", tmp_path / "nope.csv")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        "{bad",  # not JSON
        '["00"]',  # not an object
        '{"zero": "' + "00" * 32 + '"}',  # index not an integer
        '{"0": "' + "zz" * 32 + '"}',  # seed not hex
        '{"0": "abcd"}',  # seed of the wrong length
        '{"1": "' + "11" * 32 + '", "01": "' + "22" * 32 + '"}',  # one user, two spellings
        '{"1": "' + "11" * 32 + '", "1": "' + "22" * 32 + '"}',  # one JSON key twice
    ],
    ids=[
        "invalid-json", "non-object", "non-integer-index", "non-hex-seed", "short-seed",
        "same-user-twice", "same-key-twice",
    ],
)
def test_malformed_keystore_is_domain_error(tmp_path, capsys, consent_env, text):
    ledger, _ = consent_env
    keys = tmp_path / "bad-keys.json"
    keys.write_text(text)
    before = ledger.read_bytes()
    code, _, err = run(
        capsys, "ledger", "consent", ledger, "--keys", keys, "--user", 0, "--grant",
    )
    assert code == 1
    assert "not a valid keystore" in err
    assert ledger.read_bytes() == before


@pytest.mark.parametrize(
    "command",
    [
        "ledger consent {ledger} --user 0 --grant",
        "ledger append {ledger} --user 0 --payload x",
        "ledger balance {ledger} --user 0",
        "ledger export {ledger} --user 0 --out {tmp}/profile.json",
        "train {csv} --out {tmp}/model.json --ledger {ledger} --epochs 1",
    ],
    ids=["consent", "append", "balance", "export", "train"],
)
def test_bad_seed_of_another_user_is_refused(tmp_path, capsys, consent_env, matrix_csv, command):
    """Only the signing user's seed is expanded, but every seed is checked."""
    ledger, keys = consent_env
    doc = json.loads(keys.read_text())
    doc["5"] = "abcd"
    keys.write_text(json.dumps(doc))
    before = ledger.read_bytes()
    args = [a.format(ledger=ledger, tmp=tmp_path, csv=matrix_csv) for a in command.split()]
    code, _, err = run(capsys, *args, "--keys", keys)
    assert code == 1
    assert err == f"error: {keys}: not a valid keystore (signing seed must be 32 bytes)\n"
    assert ledger.read_bytes() == before
    assert not (tmp_path / "profile.json").exists() and not (tmp_path / "model.json").exists()


# --- appends ---


def test_append_after_missing_final_newline(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    unterminated = ledger.read_bytes().rstrip(b"\n")
    ledger.write_bytes(unterminated)
    code, out, _ = run(
        capsys, "ledger", "append", ledger, "--keys", keys, "--user", 4,
        "--payload", "after", "--timestamp", 300,
    )
    assert code == 0 and out.strip() == "appended block 11"
    data = ledger.read_bytes()
    assert data.startswith(unterminated + b"\n") and data.endswith(b"}\n")
    chain = load_ledger(ledger)
    assert len(chain) == 12 and verify_chain(chain).valid


def test_consent_refuses_torn_last_line(tmp_path, capsys, consent_env):
    ledger, keys = consent_env
    torn = ledger.read_bytes()[:-40]
    ledger.write_bytes(torn)
    code, _, err = run(
        capsys, "ledger", "consent", ledger, "--keys", keys, "--user", 1, "--revoke",
        "--timestamp", 300,
    )
    assert code == 1
    assert "line 11" in err
    assert ledger.read_bytes() == torn


def test_ledger_verify_non_object_line(tmp_path, capsys):
    ledger = tmp_path / "chain.jsonl"
    ledger.write_text("[1,2]\n")
    code, _, err = run(capsys, "ledger", "verify", ledger)
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
def test_ledger_without_blocks_is_refused(tmp_path, capsys, matrix_csv, text):
    # with no genesis block there is no chain to verify, extend or gate on
    ledger, keys = tmp_path / "chain.jsonl", tmp_path / "keys.json"
    code, _, _ = run(capsys, "ledger", "init", "--out", tmp_path / "other.jsonl",
                     "--keys", keys, "--users", 2, "--key-seed", 0)
    assert code == 0
    ledger.write_text(text)
    for args in (
        ["ledger", "verify", ledger],
        ["ledger", "append", ledger, "--keys", keys, "--user", 0],
        ["train", matrix_csv, "--out", tmp_path / "m.json", "--ledger", ledger, "--keys", keys],
    ):
        assert run(capsys, *args) == (
            1, "", f"error: {ledger}: no ledger blocks, not even a genesis block\n"
        )
        assert ledger.read_text() == text
    assert not (tmp_path / "m.json").exists()
