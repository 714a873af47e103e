"""The columnar constructors against the triplet-by-triplet reference.

`ref_from_triplets`, `ref_load_csv` and `ref_split_holdout` are the
dict-and-tuple implementations that the columnar ones replaced. On any
input the two must agree: a bitwise-equal matrix, or the same exception
class and message (and, for ParseError, the same line). The one deliberate
difference: an index outside int64, which the tuple matrix stored as a
Python int when the dimensions allowed it, is now rejected at the point
where that triplet would otherwise have been accepted.
"""

import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echofeed.errors import (
    DuplicateEntryError,
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidParameterError,
    InvalidValueError,
    ParseError,
)
from echofeed.ratings import (
    _HEADER_RE,
    RatingMatrix,
    from_triplets,
    load_csv,
    split_holdout,
)


def _matrix(n_users, n_events, rows):
    return RatingMatrix(
        n_users,
        n_events,
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64),
    )


def ref_from_triplets(triplets, n_users, n_events):
    if n_users < 0 or n_events < 0:
        raise InvalidParameterError("matrix dimensions must be non-negative")
    seen = {}
    for row in triplets:
        user, event, value = row
        user = int(user)
        event = int(event)
        if not 0 <= user < n_users:
            raise IndexOutOfRangeError(f"user index {user} outside [0, {n_users})")
        if not 0 <= event < n_events:
            raise IndexOutOfRangeError(f"event index {event} outside [0, {n_events})")
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise InvalidValueError(f"rating value must be finite and >= 0, got {value}")
        if not (-(2**63) <= user < 2**63 and -(2**63) <= event < 2**63):
            raise IndexOutOfRangeError(f"index of triplet {row} does not fit in int64")
        key = (user, event)
        if key in seen and seen[key] != value:
            raise DuplicateEntryError(
                f"duplicate entry for user {user}, event {event}: {seen[key]} vs {value}"
            )
        seen[key] = value
    rows = [(u, e, v) for (u, e), v in sorted(seen.items()) if v != 0.0]
    return _matrix(n_users, n_events, rows)


def ref_load_csv(path):
    triplets = []
    header_dims = None
    max_user = -1
    max_event = -1
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                header_dims = (int(m.group(1)), int(m.group(2)))
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {len(fields)}", lineno)
        try:
            user = int(fields[0])
            event = int(fields[1])
            value = float(fields[2])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        triplets.append((user, event, value))
        max_user = max(max_user, user)
        max_event = max(max_event, event)
    if not triplets and header_dims is None:
        raise EmptyInputError(f"{path}: no observations and no dimension header")
    if header_dims is not None:
        n_users, n_events = header_dims
    else:
        n_users, n_events = max_user + 1, max_event + 1
    return ref_from_triplets(triplets, n_users, n_events)


def ref_split_holdout(matrix, fraction, seed):
    observations = list(zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist()))
    n = len(observations)
    test_idx = frozenset(random.Random(seed).sample(range(n), int(round(fraction * n))))
    train = [o for i, o in enumerate(observations) if i not in test_idx]
    test = [o for i, o in enumerate(observations) if i in test_idx]
    return (
        _matrix(matrix.n_users, matrix.n_events, train),
        _matrix(matrix.n_users, matrix.n_events, test),
    )


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the comparison is the point
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))


def assert_same(new, ref):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        assert new[1] == ref[1]
        assert new[1].users.dtype == np.int64 and new[1].values.dtype == np.float64
    else:
        assert new[1:] == ref[1:]


INDEX = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([2**63, -(2**63) - 1, 2**70, True, 1.5, "2", " 3 ", "x", None]),
)
VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1.0, 2.5, 4, -1.0, -2, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2**60 + 1, 10**400, "1.5", "nan", "x", None]),
)


@st.composite
def triplet_lists(draw):
    n_users = draw(st.integers(-1, 6))
    n_events = draw(st.integers(0, 6))
    plain = st.tuples(st.integers(-1, 6), st.integers(-1, 6), VALUE)
    odd = st.one_of(
        st.tuples(INDEX, INDEX, VALUE),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(1.0), st.just(1.0)),
    )
    rows = draw(st.lists(st.one_of(plain, plain, plain, odd), max_size=14))
    for row in list(rows):
        kind = draw(st.sampled_from(["none", "none", "exact", "clash"]))
        if kind == "exact":
            rows.append(row)
        elif kind == "clash" and len(row) == 3:
            rows.append((row[0], row[1], draw(VALUE)))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n_users, n_events


@settings(max_examples=400, deadline=None)
@given(triplet_lists())
@example(([(1, 2, 1.0), (0, 2**70, 0.0), (1, 2, 2.0)], 2, 2**71))
def test_from_triplets_matches_reference(case):
    rows, n_users, n_events = case
    assert_same(
        outcome(from_triplets, rows, n_users, n_events),
        outcome(ref_from_triplets, rows, n_users, n_events),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.floats(0, 5)), max_size=30),
    st.integers(0, 12),
)
def test_from_triplets_matches_reference_on_valid_input(rows, extra):
    # mostly valid input, so the result (not an error) is compared
    assert_same(
        outcome(from_triplets, rows, 10, 10 + extra),
        outcome(ref_from_triplets, rows, 10, 10 + extra),
    )


FIELD = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["", " 4 ", "+2", "1_0", "0x1", "1e1", "nan", "-inf", "abc", "99999999999999999999"]
    ),
    # where numpy's C reader and int()/float() could part: spellings only
    # Python takes, float spellings in an index, a mid-line "#", a NUL, a
    # \x1f (whitespace to the reader, not to int()), int64's edges, and
    # letters that numpy 2.4's reader took for digits
    st.sampled_from(
        [
            "\u0663", "\uff13", "\u0661.\u0665", "\u3000 4\u3000", "\xa04", "1.0", "1e3",
            "1_0.5", "-nan", "Infinity", "+inf", "1.", ".5", "2 #x", "\x00", "4\x1f",
            str(2**63), str(-(2**63) - 1), str(2**63 - 1), str(-(2**63)), "7" * 5000,
            "0" * 30 + "3", "\u01fe", "\U00010400",
        ]
    ),
    st.text(alphabet="0123456789-+._e nainf\t", max_size=5),
)
LINE = st.one_of(
    st.tuples(FIELD, FIELD, FIELD).map(",".join),
    st.tuples(st.integers(-3, 9), st.integers(-3, 9), st.floats(0, 5)).map(
        lambda t: f"{t[0]},{t[1]},{t[2]!r}"
    ),
    st.lists(FIELD, min_size=1, max_size=5).map(",".join),
    st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment", "#users=3"]),
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda d: f"# users={d[0]} events={d[1]}"
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(LINE, max_size=12),
    st.sampled_from(["\n", "\r\n", "\r", "\x0c"]),
    st.booleans(),
)
@example(["-2,-1,1.0"], "\n", True)
@example(["0,0,1", "0,99999999999999999999,0", "0,0,2"], "\n", False)
# numpy 1.x's reader takes "1.0" as an index with only a DeprecationWarning
@example(["1.0,2,3"], "\n", True)
@example(["0,0,1", "1.0,2,3"], "\n", True)
# spellings only int() and float() take: a matrix, not an error
@example(["1_0,\u0663,\u0661.\u0665", "\uff12,0,\xa02.5\u3000"], "\n", True)
# no data lines: numpy's reader warns "input contained no data"
@example(["# users=3 events=4"], "\n", True)
# \x1f is whitespace to numpy's reader, not to int() and float()
@example(["0,0,1\x1f", "1\x1f,1,2"], "\n", False)
# a non-ASCII or \x1f comment lets the data lines alone pick the parser
@example(["# caf\xe9 \x1f", "0,0,1", "\u01fe,1,1"], "\n", True)
@example(["# caf\xe9 \x1f", "0,0,1", "1\x1f,1,2"], "\n", True)
# a "#" after a value is no comment, as numpy's comments="#" would make it
@example(["# users=3 events=3", "0,0,1", "1,2,2 #x"], "\n", True)
# the clash that comes first in input order sorts second, and is reported
@example(["1,1,1", "0,0,1", "1,1,2", "0,0,2"], "\n", True)
# a clash before a bad index is reported, and a bad index before a clash
@example(["# users=2 events=2", "0,0,1", "0,0,2", "5,0,1"], "\n", True)
@example(["# users=2 events=2", "5,0,1", "0,0,1", "0,0,2"], "\n", True)
# a clash in a file already in write_csv's (user, event) order: the sort is skipped
@example(["# users=2 events=2", "0,0,1.0", "0,1,1.0", "0,1,2.0", "1,0,1.0"], "\n", True)
def test_load_csv_matches_reference(tmp_path_factory, lines, newline, trailing):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    assert_same(outcome(load_csv, path), outcome(ref_load_csv, path))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0.5, 5)), max_size=40),
    st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    st.integers(0, 2**32),
)
def test_split_holdout_matches_reference(rows, fraction, seed):
    matrix = from_triplets(dict(((u, e), (u, e, v)) for u, e, v in rows).values(), 8, 8)
    assert split_holdout(matrix, fraction, seed) == ref_split_holdout(matrix, fraction, seed)
