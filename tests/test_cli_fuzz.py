"""Hostile command lines for every subcommand: each run ends with exit 0, 1
or 2 and never with a traceback.

Each case gives hostile values to one flag of one command and ordinary ones
to the others. Hostile values are ints, floats, nan, +-inf and huge values,
and float text for an int flag. Sizes (--users, --events, --k,
--communities) are drawn only from at most 30 or at least 2**63: a size in
between may be a real allocation of gigabytes. --epochs and --rounds are
always passed, and capped at 3 and 2.

Every run that exits 0 leaves strict JSON (RFC 8259: no NaN or Infinity)
in each JSON file it wrote, on each ledger line and on the stdout of
`recommend` and `ledger import`; every run that exits 1 prints one
`error:` line and writes no --out file.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echofeed.cli import main

NAN, INF = float("nan"), float("inf")
HUGE = [2**63, 2**64, 2**70, 10**30]
# sampled_from draws each listed value about equally often; a one_of of
# open ranges would rarely reach the huge ones
HOSTILE_SIZE = st.sampled_from([0, -1, *HUGE, 1.5, NAN, -INF])
HOSTILE_INT = st.sampled_from([-1, -(2**63) - 1, *HUGE, -(10**30), 1.5, NAN]) | st.integers()
HOSTILE_FLOAT = st.sampled_from(
    [NAN, INF, -INF, 1e308, -1e308, -0.0, 5e-324, -1, *HUGE]
) | st.floats()


def size(lo, hi):
    return (st.integers(lo, hi), HOSTILE_SIZE)


def integer(lo, hi):
    return (st.integers(lo, hi), HOSTILE_INT)


def real(lo, hi):
    return (st.floats(lo, hi), HOSTILE_FLOAT)


# flag: (ordinary values, hostile values)
FLAGS = {
    "--k": size(1, 3), "--users": size(1, 30), "--events": size(1, 30),
    "--communities": size(1, 4),
    "--epochs": (st.integers(1, 3), st.integers(-1, 3)),
    "--rounds": (st.integers(0, 2), st.integers(-1, 2)),
    "--gamma": real(0, 0.1), "--lr": real(0.001, 0.05), "--scale": real(0.01, 1),
    "--tolerance": real(0, 0.1), "--holdout": real(0, 0.5), "--in-rate": real(0.5, 1),
    "--cross-rate": real(0, 0.5), "--accept-value": real(1, 5),
    "--seed": integer(0, 5), "--reward": integer(0, 5), "--timestamp": integer(0, 10**6),
    "--accept-top": integer(1, 3), "--rec-k": integer(1, 5), "--top": integer(1, 5),
    "--user": integer(0, 2), "--amount": integer(0, 100), "--key-seed": integer(0, 5),
}
TRAIN = ["--k", "--gamma", "--lr", "--seed", "--scale", "--tolerance"]
# command: (flags always passed, flags passed or left at their defaults)
NUMERIC = {
    "train": (["--epochs"], TRAIN + ["--holdout", "--reward", "--timestamp"]),
    "simulate": (["--epochs", "--rounds"], TRAIN + [
        "--users", "--events", "--communities", "--in-rate", "--cross-rate",
        "--accept-top", "--accept-value", "--rec-k", "--holdout"]),
    "recommend": (["--user"], ["--top"]),
    "init": ([], ["--users", "--key-seed", "--timestamp"]),
    "append": (["--user"], ["--amount", "--timestamp"]),
    "consent": (["--user"], ["--timestamp"]),
    "balance": (["--user"], []),
    "export": (["--user"], []),
}
# (command, its one hostile flag): every numeric flag of every command
CASES = [(command, None) for command in ("ingest", "eval", "verify", "import")] + [
    (command, flag) for command, (required, optional) in NUMERIC.items()
    for flag in required + optional
]


@st.composite
def numeric_flags(draw, command, hostile):
    """--flag=value words: the joined form passes values such as -inf,
    which argparse would otherwise read as a flag."""
    required, optional = NUMERIC[command]
    names = required + [f for f in optional if f == hostile or draw(st.booleans())]
    return [f"{f}={draw(FLAGS[f][f == hostile])}" for f in names]


# a 3x3 model whose scores overflow for some users: with the events r.csv
# leaves unobserved, user 0's only score is 0.0, user 1's is -inf, and
# user 2's are -1e200 and -inf; every RMSE it gives on r.csv is inf
EXTREME_MODEL = {
    "k": 2,
    "gamma": 0.0,
    "user_factors": [[1.0, 0.0], [1e200, 1e200], [0.0, -1e200]],
    "event_factors": [[1e200, 1.0], [1.0, -1e200], [0.0, 1e200]],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A ratings CSV, a model trained on it, a model whose scores overflow,
    a ledger in which all three users consent, its keystore, and user 1's
    exported profile."""
    d = tmp_path_factory.mktemp("inputs")
    paths = {name: str(d / name) for name in
             ("r.csv", "m.json", "extreme.json", "chain.jsonl", "keys.json", "p.json")}
    with open(paths["r.csv"], "w") as fh:
        fh.write("0,0,4.0\n0,1,2.0\n1,0,3.5\n1,2,1.0\n2,1,5.0\n")
    with open(paths["extreme.json"], "w") as fh:
        json.dump(EXTREME_MODEL, fh)
    setup = [
        ["train", paths["r.csv"], "--out", paths["m.json"], "--epochs", "2"],
        ["ledger", "init", "--out", paths["chain.jsonl"], "--keys", paths["keys.json"],
         "--users", "3", "--timestamp", "1"],
        *(["ledger", "consent", paths["chain.jsonl"], "--keys", paths["keys.json"],
           "--user", str(u), "--grant", "--timestamp", "2"] for u in range(3)),
        ["ledger", "export", paths["chain.jsonl"], "--keys", paths["keys.json"],
         "--user", "1", "--out", paths["p.json"]],
    ]
    for argv in setup:
        code, _, err = run(argv)
        assert (code, err) == (0, "")
    return paths


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; any other
    exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_refuse_constant)


# command: the flags naming the JSON files an exit-0 run writes
JSON_FILES = {
    "train": ["--out", "--report"], "simulate": ["--out"], "recommend": ["--out"],
    "init": ["--keys"], "export": ["--out"],
}


def check_strict_json(command, argv, stdout):
    """Parse every JSON document an exit-0 run of argv left, refusing NaN
    and Infinity."""
    flags = dict(zip(argv, argv[1:]))
    for flag in JSON_FILES.get(command, []):
        path = Path(flags[flag])
        # ledger init --users 0 writes no keystore
        if command != "init" or path.exists():
            strict_json(path.read_text(encoding="utf-8"))
    if command == "init":
        chain = flags["--out"]
    elif command == "train":
        chain = flags.get("--ledger")
    else:
        chain = argv[2] if argv[0] == "ledger" and command != "import" else None
    if chain is not None:
        for line in Path(chain).read_text(encoding="utf-8").splitlines():
            strict_json(line)
    if command in ("recommend", "import"):
        strict_json(stdout)


def command_line(draw, command, hostile, paths, fresh_path) -> list[str]:
    """One argv; every file it writes is a new path, and a ledger it may
    change is a fresh copy."""
    chain = str(fresh_path(".jsonl"))
    shutil.copy(paths["chain.jsonl"], chain)
    keys = paths["keys.json"]
    out = str(fresh_path(".out"))
    tail = draw(numeric_flags(command, hostile)) if command in NUMERIC else []
    if command == "ingest":
        return ["ingest", paths["r.csv"], "--out", out]
    if command in ("eval", "recommend"):
        model = paths[draw(st.sampled_from(["m.json", "extreme.json"]))]
    if command == "eval":
        return ["eval", model, paths["r.csv"]]
    if command == "verify":
        return ["ledger", "verify", chain]
    if command == "import":
        return ["ledger", "import", paths["p.json"]]
    if command == "train":
        ledger = ["--ledger", chain, "--keys", keys] if draw(st.booleans()) else []
        return ["train", paths["r.csv"], "--out", out, "--report", str(fresh_path()),
                *ledger, *tail]
    if command == "simulate":
        return ["simulate", "--out", out, "--csv", str(fresh_path()), *tail]
    if command == "recommend":
        return ["recommend", model, paths["r.csv"], "--out", out, *tail]
    if command == "init":
        return ["ledger", "init", "--out", out, "--keys", str(fresh_path()), *tail]
    if command == "append":
        tail += [f"--type={draw(st.sampled_from(['post', 'credit']))}",
                 f"--payload={draw(st.text(max_size=4))}"]
    elif command == "consent":
        tail.append(draw(st.sampled_from(["--grant", "--revoke"])))
    elif command == "export":
        tail += ["--out", out]
    return ["ledger", command, chain, "--keys", keys, *tail]


@pytest.mark.parametrize(
    "command, hostile", CASES, ids=[f"{c}{' ' + f if f else ''}" for c, f in CASES]
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_argv_ends_in_a_traceback(inputs, fresh_path, command, hostile, data):
    argv = command_line(data.draw, command, hostile, inputs, fresh_path)
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        check_strict_json(command, argv, out)
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists(), argv
