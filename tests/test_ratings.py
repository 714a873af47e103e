import math
import random
import warnings

import numpy as np
import pytest

from echofeed.errors import (
    DuplicateEntryError,
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidParameterError,
    InvalidValueError,
    ParseError,
)
from echofeed.ratings import (
    _parse_bulk,
    from_triplets,
    load_csv,
    split_holdout,
    write_csv,
)


def rows_of(m):
    """The matrix's (user, event, value) rows, read from its columns in order."""
    return list(zip(m.users.tolist(), m.events.tolist(), m.values.tolist()))


def random_matrix(rng, n_users=6, n_events=8, density=0.4):
    triplets = [
        (u, e, round(rng.uniform(0.5, 5.0), 3))
        for u in range(n_users)
        for e in range(n_events)
        if rng.random() < density
    ]
    return from_triplets(triplets, n_users, n_events)


def test_empty_matrix_is_valid():
    m = from_triplets([], 3, 3)
    assert len(m) == 0
    assert m.n_users == 3 and m.n_events == 3


def test_two_engagements_stored_exactly():
    # one user engaging with the last two of four events
    m = from_triplets([(0, 2, 4.0), (0, 3, 2.0)], 1, 4)
    assert rows_of(m) == [(0, 2, 4.0), (0, 3, 2.0)]


def test_zero_value_means_unobserved():
    m = from_triplets([(0, 0, 0.0), (0, 1, 5.0)], 1, 2)
    assert rows_of(m) == [(0, 1, 5.0)]


def test_order_insensitive():
    trips = [(2, 1, 3.0), (0, 5, 1.5), (1, 0, 2.0), (2, 0, 4.0)]
    m1 = from_triplets(trips, 3, 6)
    m2 = from_triplets(list(reversed(trips)), 3, 6)
    assert m1 == m2


@pytest.mark.parametrize(
    "bad", [(3, 0, 1.0), (0, 3, 1.0), (-1, 0, 1.0), (0, -1, 1.0)]
)
def test_index_out_of_range(bad):
    with pytest.raises(IndexOutOfRangeError):
        from_triplets([bad], 3, 3)


def test_duplicate_with_differing_values_rejected():
    with pytest.raises(DuplicateEntryError):
        from_triplets([(0, 0, 1.0), (0, 0, 2.0)], 1, 1)


def test_exact_duplicate_collapses():
    m = from_triplets([(0, 0, 1.5), (0, 0, 1.5)], 1, 1)
    assert len(m) == 1


def test_negative_value_rejected():
    with pytest.raises(InvalidValueError):
        from_triplets([(0, 0, -1.0)], 1, 1)


def test_negative_dimensions_rejected():
    with pytest.raises(InvalidParameterError):
        from_triplets([], -1, 3)


# --- CSV ---


def test_load_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,0,4\n1,1,2\n")
    m = load_csv(p)
    assert (m.n_users, m.n_events) == (2, 2)
    assert rows_of(m) == [(0, 0, 4.0), (1, 1, 2.0)]


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(EmptyInputError):
        load_csv(p)


def test_load_csv_malformed_value(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0,abc\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text", ["# users=4 events=4\n", "\n  \n", "1.0,2,3\n", "1_0,2,3\n", "0,0,1\n"]
)
def test_load_csv_leaks_no_numpy_warning(tmp_path, text):
    # an empty data section and a refused file both make numpy warn
    p = tmp_path / "m.csv"
    p.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            load_csv(p)
        except (ParseError, EmptyInputError):
            pass
    assert [str(w.message) for w in caught] == []


def test_load_csv_non_ascii_index_that_int_refuses_is_a_parse_error():
    # numpy 2.4's reader took thousands of code points as digits (U+01FE as
    # 462) and crashed the process on some above U+FFFF; text that is not
    # ASCII bypasses it
    for code in [0x1FE, *range(0x80, 0x110000, 0x3F)]:
        char = chr(code)
        if char.isspace() or char.isdecimal():
            continue  # int() strips or reads these
        with pytest.raises(ParseError) as exc:
            _parse_bulk(f"0,0,1\n{char},1,1\n")
        assert exc.value.line == 2


def test_load_csv_non_ascii_comment_keeps_the_c_reader(tmp_path, monkeypatch):
    # only the data lines decide whether numpy's reader may parse them
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    p = tmp_path / "m.csv"
    p.write_text("# caf\xe9 \x1f\n0,0,1\n1,2,2.5\n", encoding="utf-8")
    assert rows_of(load_csv(p)) == [(0, 0, 1.0), (1, 2, 2.5)]
    assert calls == [(["0,0,1", "1,2,2.5"],)]


def test_load_csv_wrong_field_count(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0,1.0\n1,2\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 2


def test_load_csv_header_pins_dimensions(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# users=5 events=7\n0,0,1.0\n")
    m = load_csv(p)
    assert (m.n_users, m.n_events) == (5, 7)


def test_load_csv_header_only_gives_empty_matrix(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# users=4 events=4\n")
    m = load_csv(p)
    assert len(m) == 0 and m.n_users == 4


def test_load_csv_comments_and_blanks_skipped(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# a comment\n\n0,1,2.5\n")
    m = load_csv(p)
    assert rows_of(m) == [(0, 1, 2.5)]


def test_csv_round_trip(tmp_path):
    rng = random.Random(3)
    for trial in range(10):
        m = random_matrix(rng)
        p = tmp_path / f"rt{trial}.csv"
        write_csv(m, p)
        back = load_csv(p)
        assert back == m


def test_csv_round_trip_empty_matrix(tmp_path):
    m = from_triplets([], 3, 3)
    p = tmp_path / "empty_rt.csv"
    write_csv(m, p)
    assert load_csv(p) == m


# --- holdout split ---


def test_split_fraction_zero_is_identity():
    m = from_triplets([(0, 0, 1.0), (1, 1, 2.0)], 2, 2)
    train, test = split_holdout(m, 0.0, seed=9)
    assert train == m
    assert len(test) == 0
    assert test.n_users == m.n_users


def test_split_deterministic():
    rng = random.Random(4)
    m = random_matrix(rng)
    a = split_holdout(m, 0.25, seed=17)
    b = split_holdout(m, 0.25, seed=17)
    assert a == b


def test_split_sizes_and_disjointness():
    trips = [(u, e, 1.0 + u + e) for u in range(10) for e in range(10)]
    m = from_triplets(trips, 10, 10)
    assert len(m) == 100
    train, test = split_holdout(m, 0.3, seed=0)
    assert len(test) == 30 and len(train) == 70
    train_set = set(rows_of(train))
    test_set = set(rows_of(test))
    assert train_set & test_set == set()
    assert train_set | test_set == set(rows_of(m))


def test_split_partitions_exhaustively():
    # every (matrix, seed, fraction) partitions the observation set
    rng = random.Random(8)
    for trial in range(20):
        m = random_matrix(rng, n_users=rng.randint(1, 10), n_events=rng.randint(1, 10))
        fraction = rng.choice([0.0, 0.1, 0.5, 0.9])
        train, test = split_holdout(m, fraction, seed=trial)
        assert set(rows_of(train)) | set(rows_of(test)) == set(rows_of(m))
        assert set(rows_of(train)) & set(rows_of(test)) == set()
        assert len(test) == round(fraction * len(m))


def test_split_rejects_bad_fraction():
    m = from_triplets([(0, 0, 1.0)], 1, 1)
    with pytest.raises(InvalidParameterError):
        split_holdout(m, 1.0, seed=0)
    with pytest.raises(InvalidParameterError):
        split_holdout(m, -0.1, seed=0)


# --- which error is reported ---


@pytest.mark.parametrize(
    "rows, n_users, error, message",
    [
        (
            [(0, 0, 1.0), (0, 0, 2.0), (0, "x", 1.0)], 2, DuplicateEntryError,
            "duplicate entry for user 0, event 0: 1.0 vs 2.0",
        ),
        ([(0, 5, 1.0), (0, "x", 1.0)], 2, IndexOutOfRangeError, "event index 5 outside [0, 2)"),
        ([(5, 1, "x")], 2, IndexOutOfRangeError, "user index 5 outside [0, 2)"),
        (
            [(2**70, 0, math.nan)], 2**71, InvalidValueError,
            "rating value must be finite and >= 0, got nan",
        ),
        (
            [(2**70, 0, 1.0), (0, 0, 1.0), (0, 0, 2.0)], 2**71, IndexOutOfRangeError,
            "index of triplet (1180591620717411303424, 0, 1.0) does not fit in int64",
        ),
        ([(0, 0, 1.0), (0, 0)], 2, ValueError, "not enough values to unpack (expected 3, got 2)"),
    ],
    ids=[
        "clash-before-unconvertible", "range-before-unconvertible", "range-before-value",
        "value-before-int64", "int64-before-clash", "unpack-after-valid",
    ],
)
def test_first_error_in_input_order(rows, n_users, error, message):
    with pytest.raises(error) as exc:
        from_triplets(rows, n_users, 2)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("0,99999999999999999999,1\n0,0\n", 2, "line 2: expected 3 comma-separated fields, got 2"),
        ("0,0,1\n0,0,2\n1,x,3\n", 3, "line 3: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["field-count-before-int64", "parse-before-clash"],
)
def test_load_csv_parse_error_wins(tmp_path, text, line, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == line
    assert str(exc.value) == message
