"""File writes: CLI ledger appends and atomic whole-file replacement."""

import contextlib
import hashlib
import io
import os
import stat
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echofeed._atomic
from echofeed import _ed25519
from echofeed._atomic import dump_json
from echofeed.cli import main
from echofeed.errors import NonFiniteScoreError
from echofeed.ledger import (
    Keypair,
    LedgerBlock,
    PayloadType,
    append_blocks,
    append_event,
    export_profile,
    load_ledger,
    new_ledger,
    save_ledger,
    save_profile,
    verify_chain,
)
from echofeed.model import init_model, save_model

USERS = 4


def quiet_main(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in args])


users = st.integers(0, USERS - 1)
cli_ops = st.lists(
    st.one_of(
        st.tuples(st.just("post"), users,
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)),
        st.tuples(st.just("credit"), users, st.integers(0, 2**64 - 1)),
        st.tuples(st.just("consent"), users, st.booleans()),
        st.tuples(st.just("train"), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(ops=cli_ops)
def test_cli_appends_match_a_full_rewrite(ops):
    """However the CLI writers are interleaved, the file they leave is the
    file save_ledger writes for the chain it holds."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        chain, keys, csv = d / "chain.jsonl", d / "keys.json", d / "ratings.csv"
        csv.write_text("".join(f"{u},{e},{1 + (u + e) % 4}\n"
                               for u in range(USERS) for e in range(3)))
        assert quiet_main("ledger", "init", "--out", chain, "--keys", keys,
                          "--users", USERS, "--timestamp", 100) == 0
        consenting = set()
        for ts, (kind, a, b) in enumerate(ops, start=101):
            expect = 0
            if kind == "post":
                args = ["ledger", "append", chain, "--user", a, f"--payload={b}"]
            elif kind == "credit":
                args = ["ledger", "append", chain, "--user", a, "--type", "credit",
                        "--amount", b]
            elif kind == "consent":
                args = ["ledger", "consent", chain, "--user", a, "--grant" if b else "--revoke"]
                (consenting.add if b else consenting.discard)(a)
            else:
                args = ["train", csv, "--out", d / "model.json", "--ledger", chain,
                        "--reward", a, "--seed", b, "--epochs", 1]
                # with nobody consenting there is nothing to train on
                expect = 0 if consenting else 1
            assert quiet_main(*args, "--keys", keys, "--timestamp", ts) == expect
        data = chain.read_bytes()
        ledger = load_ledger(chain)
        assert verify_chain(ledger).valid
        save_ledger(ledger, d / "rewritten.jsonl")
        assert data == (d / "rewritten.jsonl").read_bytes()


# --- atomic whole-file writes ---


def _failing_after(n, real):
    """Stand-in for a serialiser that works n times, then raises."""
    calls = iter(range(n + 1))

    def fake(*args, **kwargs):
        if next(calls) == n:
            raise RuntimeError("serialiser failed")
        return real(*args, **kwargs)

    return fake


def _ledger(n_posts):
    led, kp = new_ledger(10), Keypair(bytes([7]) * 32)
    for i in range(n_posts):
        append_event(led, kp, PayloadType.POST, b"p%d" % i, 11 + i)
    return led


def _save_ledger_midway(tmp_path, monkeypatch):
    path = tmp_path / "chain.jsonl"
    save_ledger(_ledger(2), path)
    # the third block fails, after two lines went to the temporary file
    monkeypatch.setattr(LedgerBlock, "to_json_dict",
                        _failing_after(2, LedgerBlock.to_json_dict))
    return path, lambda: save_ledger(_ledger(5), path)


def _save_model_midway(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(init_model(3, 3, 2, 0.0, 1), path)
    _writes_fail_after(0, monkeypatch)
    return path, lambda: save_model(init_model(4, 4, 2, 0.0, 2), path)


def _save_profile_midway(tmp_path, monkeypatch):
    path = tmp_path / "profile.json"
    led = _ledger(3)
    author = led[1].author
    save_profile(export_profile(_ledger(1), author), path)
    _writes_fail_after(0, monkeypatch)
    return path, lambda: save_profile(export_profile(led, author), path)


def _report_midway(tmp_path, monkeypatch):
    path, csv = tmp_path / "report.json", tmp_path / "ratings.csv"
    csv.write_text("0,0,1\n1,1,2\n")
    train = ["train", str(csv), "--out", str(tmp_path / "model.json"), "--report", str(path)]
    assert quiet_main(*train, "--epochs", 2) == 0
    # the model is written first, then the report
    _writes_fail_after(1, monkeypatch)
    return path, lambda: main([*train, "--epochs", "3"])


def _writes_fail_after(n, monkeypatch):
    """The first n writes through atomic_write, counted over all its handles
    (a writelines call is one write), succeed; the next one raises, as on a
    full disk."""
    write = _failing_after(n, lambda fh, text: fh.write(text))

    @contextlib.contextmanager
    def failing_open(*args, **kwargs):
        with open(*args, **kwargs) as fh:
            yield types.SimpleNamespace(write=lambda text: write(fh, text),
                                        writelines=lambda lines: write(fh, "".join(lines)))

    monkeypatch.setattr(echofeed._atomic, "open", failing_open, raising=False)


def _ingest_midway(tmp_path, monkeypatch):
    path, raw = tmp_path / "canonical.csv", tmp_path / "raw.csv"
    raw.write_text("0,0,1\n1,1,2\n")
    assert quiet_main("ingest", raw, "--out", path) == 0
    raw.write_text("0,0,3\n2,2,4\n")
    _writes_fail_after(0, monkeypatch)
    return path, lambda: main(["ingest", str(raw), "--out", str(path)])


def _recommend_midway(tmp_path, monkeypatch):
    path, csv, model = tmp_path / "recs.json", tmp_path / "ratings.csv", tmp_path / "model.json"
    csv.write_text("0,0,1\n1,1,2\n0,2,3\n")
    assert quiet_main("train", csv, "--out", model, "--epochs", 2) == 0
    assert quiet_main("recommend", model, csv, "--user", 0, "--out", path) == 0
    _writes_fail_after(0, monkeypatch)
    return path, lambda: main(["recommend", str(model), str(csv), "--user", "1", "--out", str(path)])


def _simulate_midway(target):
    """simulate writes its JSON, then its CSV; fail the write of `target`."""
    def setup(tmp_path, monkeypatch):
        paths = {"out": tmp_path / "metrics.json", "csv": tmp_path / "metrics.csv"}
        sim = ["simulate", "--users", "8", "--events", "8", "--epochs", "2",
               "--out", str(paths["out"]), "--csv", str(paths["csv"])]
        assert quiet_main(*sim, "--rounds", 0) == 0
        _writes_fail_after(list(paths).index(target), monkeypatch)
        return paths[target], lambda: main([*sim, "--rounds", "1"])
    return setup


@pytest.mark.parametrize(
    "setup",
    [_save_ledger_midway, _save_model_midway, _save_profile_midway, _report_midway,
     _ingest_midway, _recommend_midway, _simulate_midway("out"), _simulate_midway("csv")],
    ids=["save_ledger", "save_model", "save_profile", "report", "ingest", "recommend",
         "simulate_out", "simulate_csv"],
)
def test_failed_write_leaves_old_file(tmp_path, monkeypatch, capsys, setup):
    path, write = setup(tmp_path, monkeypatch)
    before = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(RuntimeError, match="serialiser failed"):
        write()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_ledger_init_writes_the_keystore_owner_only(tmp_path):
    chain, keys = tmp_path / "chain.jsonl", tmp_path / "keys.json"
    umask = os.umask(0o022)
    try:
        assert quiet_main("ledger", "init", "--out", chain, "--keys", keys, "--users", 2,
                          "--timestamp", 1) == 0
    finally:
        os.umask(umask)
    # the seeds are secret; the chain is public
    assert stat.S_IMODE(keys.stat().st_mode) == 0o600
    assert stat.S_IMODE(chain.stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.jsonl", "keys.json"]


def test_owner_only_json_replaces_a_world_readable_file(tmp_path):
    path = tmp_path / "keys.json"
    path.write_text("{}\n")
    path.chmod(0o644)
    umask = os.umask(0o022)
    try:
        dump_json({"0": "ab" * 32}, path, 0o600)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == '{"0": "' + "ab" * 32 + '"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keys.json"]


@pytest.mark.parametrize(
    "out, keys",
    [("chain.jsonl", "keys.json"), ("chain.jsonl", "new.json"), ("new.jsonl", "keys.json")],
    ids=["both", "out", "keys"],
)
def test_ledger_init_never_replaces_a_file(tmp_path, capsys, out, keys):
    init = ["ledger", "init", "--users", "2", "--timestamp", "1"]
    assert main([*init, "--out", str(tmp_path / "chain.jsonl"),
                  "--keys", str(tmp_path / "keys.json")]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    # the keystore holds the only copy of every seed
    assert main([*init, "--out", str(tmp_path / out), "--keys", str(tmp_path / keys)]) == 1
    taken = tmp_path / ("chain.jsonl" if out == "chain.jsonl" else "keys.json")
    assert capsys.readouterr().err == f"error: {taken} exists; ledger init never replaces a file\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # with no users there is no keystore to write, so an existing one is no obstacle
    assert quiet_main("ledger", "init", "--out", tmp_path / "new.jsonl",
                      "--keys", tmp_path / "keys.json") == 0
    assert (tmp_path / "keys.json").read_bytes() == before["keys.json"]


@pytest.mark.parametrize("keys", ["chain.jsonl", "sub/../chain.jsonl"], ids=["same", "dotdot"])
def test_ledger_init_refuses_one_file_for_chain_and_keys(tmp_path, capsys, keys):
    (tmp_path / "sub").mkdir()
    chain = tmp_path / "chain.jsonl"
    assert main(["ledger", "init", "--out", str(chain), "--keys", f"{tmp_path}/{keys}",
                 "--users", "2"]) == 1
    assert capsys.readouterr().err == f"error: --out and --keys name the same file {chain}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_json_writer_refuses_non_finite_floats(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteScoreError):
        dump_json({"scores": [1.0, value]}, path)
    assert list(tmp_path.iterdir()) == []
    assert dump_json({"scores": [1.0, 0.1]}, path) == path.read_text() == '{"scores": [1.0, 0.1]}\n'


def test_appending_no_blocks_leaves_the_file_alone(tmp_path):
    path = tmp_path / "chain.jsonl"
    save_ledger(new_ledger(100), path)
    before = path.read_bytes()
    append_blocks([], path)
    assert path.read_bytes() == before
    missing = tmp_path / "missing.jsonl"
    append_blocks([], missing)
    assert not missing.exists()


# sha256 of what the session in test_ledger_files_keep_their_bytes leaves
PINNED_SHA256 = {
    "keys.json": "8070ff36841445f2e1a83f5fa3217d109350f2e8539f6dda1aee3186d9f17c1b",
    "chain.jsonl": "9428a6e3820df9bc666baa5ac95b63d21961afb39756e1b9ed5aba2223d2e890",
    "profile.json": "0910cbb3bf23d49264987f511ff36b47189851f83d0e93c2edfabaf8e4c14ac8",
    "import stdout": "f1566935a09ad58b53a952b7bf205c53d77375c1771bf0c77531f422c993847c",
}


@pytest.mark.parametrize("backend", ["libsodium", "cryptography"])
def test_ledger_files_keep_their_bytes(tmp_path, monkeypatch, capsys, backend):
    """A fixed session writes the same keystore, chain, profile and import
    output byte for byte. Ed25519 signatures are deterministic, so one set
    of digests holds on both signature backends."""
    if backend == "cryptography":
        monkeypatch.setattr(_ed25519, "_sodium", None)
    elif _ed25519._sodium is None:
        pytest.skip("libsodium is not loaded")
    chain, keys = tmp_path / "chain.jsonl", tmp_path / "keys.json"
    profile = tmp_path / "profile.json"
    signed = [chain, "--keys", keys, "--user", 1]
    for argv in [
        ["ledger", "init", "--out", chain, "--keys", keys, "--users", 2, "--key-seed", 0,
         "--timestamp", 5],
        ["ledger", "consent", *signed, "--grant", "--timestamp", 6],
        ["ledger", "append", *signed, "--payload", "hello", "--timestamp", 7],
        ["ledger", "append", *signed, "--type", "credit", "--amount", 3, "--timestamp", 8],
        ["ledger", "export", *signed, "--out", profile],
    ]:
        assert quiet_main(*argv) == 0
    assert main(["ledger", "import", str(profile)]) == 0
    outputs = {
        "keys.json": keys.read_bytes(),
        "chain.jsonl": chain.read_bytes(),
        "profile.json": profile.read_bytes(),
        "import stdout": capsys.readouterr().out.encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == PINNED_SHA256
