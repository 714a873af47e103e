"""Sparse user x event rating matrix: construction, CSV I/O, holdout splits.

A zero value means "never engaged", so zero-valued triplets are dropped at
construction and every stored observation carries a strictly positive value.
The matrix is columnar: three parallel read-only numpy arrays (users,
events, values) sorted by (user, event). Matrices are immutable once built;
all mutation-looking operations return a new matrix.
"""

from __future__ import annotations

import contextlib
import math
import random
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._atomic import atomic_write
from .errors import (
    DuplicateEntryError,
    EmptyInputError,
    IndexOutOfRangeError,
    InvalidParameterError,
    InvalidValueError,
    ParseError,
)

_HEADER_RE = re.compile(r"^#\s*users\s*=\s*(\d+)\s+events\s*=\s*(\d+)\s*$")
_ROW = np.dtype([("u", np.int64), ("e", np.int64), ("v", np.float64)])
_NUMPY_1 = np.lib.NumpyVersion(np.__version__) < "2.0.0"


@dataclass(frozen=True, eq=False)
class RatingMatrix:
    """Immutable sparse matrix of observations, sorted by (user, event).

    `users` and `events` (int64) and `values` (float64) are parallel
    read-only arrays holding one observation per position, with no
    repeated (user, event) pair and no zero value. Build instances through
    :func:`from_triplets` or :func:`load_csv`; the raw constructor skips
    validation and is reserved for internal callers that already hold
    sorted, deduplicated columns. Two matrices are equal when their
    dimensions match and their columns match bit for bit.
    """

    n_users: int
    n_events: int
    users: np.ndarray = field(repr=False)
    events: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for column in (self.users, self.events, self.values):
            column.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (
            self.n_users == other.n_users
            and self.n_events == other.n_events
            and self.users.tobytes() == other.users.tobytes()
            and self.events.tobytes() == other.events.tobytes()
            and self.values.tobytes() == other.values.tobytes()
        )

    def __len__(self) -> int:
        return len(self.values)


def check_index(kind: str, index: int, n: int) -> None:
    """Raise IndexOutOfRangeError unless 0 <= index < n; kind names the axis."""
    if not 0 <= index < n:
        raise IndexOutOfRangeError(f"{kind} index {index} outside [0, {n})")


def _first_fault(triplets, n_users, n_events) -> None:
    """Raise for the first triplet, in input order, that breaks a rule.

    Each triplet is checked in reporting order: unpacking, int() of the
    indices, index range, float() of the value, value finite and >= 0, index
    fits int64, and a (user, event) pair seen earlier with a different value.
    The vectorised checks of _build and from_triplets only detect a fault;
    this scan names it.
    """
    seen = {}
    for triplet in triplets:
        user, event, value = triplet
        user = int(user)
        event = int(event)
        check_index("user", user, n_users)
        check_index("event", event, n_events)
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise InvalidValueError(f"rating value must be finite and >= 0, got {value}")
        if max(user, event) >= 2**63:
            raise IndexOutOfRangeError(f"index of triplet {triplet} does not fit in int64")
        key = (user, event)
        if seen.get(key, value) != value:
            raise DuplicateEntryError(
                f"duplicate entry for user {user}, event {event}: {seen[key]} vs {value}"
            )
        seen[key] = value


def _build(users, events, values, n_users, n_events) -> RatingMatrix:
    """Matrix from parallel columns given in input order.

    The masks here only detect a bad index or value, or a (user, event) pair
    repeated with a different value; on any, _first_fault names the first
    offending triplet in input order.
    """
    ok = (users >= 0) & (users < n_users) & (events >= 0) & (events < n_events)
    ok &= np.isfinite(values) & (values >= 0)
    su, se, sv = users, events, values
    # columns already in (user, event) order, as write_csv writes them, are
    # what the stable sort would return, so it is skipped
    if not np.all((su[1:] > su[:-1]) | ((su[1:] == su[:-1]) & (se[1:] >= se[:-1]))):
        # stable, so each run of one (user, event) pair stays in input order
        order = np.lexsort((se, su))
        su, se, sv = su[order], se[order], sv[order]
    repeated = (su[1:] == su[:-1]) & (se[1:] == se[:-1])
    if not ok.all() or np.any(repeated & (sv[1:] != sv[:-1])):
        # raises: the scalar checks mirror the masks
        _first_fault(zip(users.tolist(), events.tolist(), values.tolist()), n_users, n_events)
    keep = np.concatenate(([True], ~repeated)) & (sv != 0.0)
    return RatingMatrix(n_users, n_events, su[keep], se[keep], sv[keep])


def from_triplets(
    triplets: Iterable[tuple[int, int, float]], n_users: int, n_events: int
) -> RatingMatrix:
    """Build a matrix from (user, event, value) triplets.

    Zero-valued triplets are dropped (unobserved). Exact duplicate triplets
    collapse to one observation; the same (user, event) with differing
    values is an error. Input order does not matter, except that the first
    offending triplet in input order is the one reported: a triplet that
    int(), float() or an int64 column refuses sends the whole input to
    _first_fault, which names it.
    """
    if n_users < 0 or n_events < 0:
        raise InvalidParameterError("matrix dimensions must be non-negative")
    rows = list(triplets)
    users, events, values = [], [], []
    try:
        for user, event, value in rows:
            users.append(int(user))
            events.append(int(event))
            values.append(float(value))
        columns = np.array(users, np.int64), np.array(events, np.int64), np.array(values)
    except (ValueError, TypeError, OverflowError):
        _first_fault(rows, n_users, n_events)  # raises, at this triplet or an earlier one
    return _build(*columns, n_users, n_events)


def _parse_bulk(text: str):
    """Whole-file parse: (header dimensions, users, events, values).

    numpy's C reader parses ASCII data lines, taking a subset of what int()
    and float() take, with the same values. Other data, or data it refuses,
    goes to a per-line int()/float() scan naming the first malformed line.
    """
    stripped = list(map(str.strip, text.splitlines()))
    data = [s for s in stripped if s and s[0] != "#"]
    header_dims = None
    for m in filter(None, map(_HEADER_RE.match, [s for s in stripped if s[:1] == "#"])):
        header_dims = (int(m.group(1)), int(m.group(2)))
    try:
        # the reader gets only ASCII data (numpy 2.4's read U+01FE as the digit
        # 462 and crashed above U+FFFF) without \x1f, which it strips around a
        # field but int() and float() refuse; on no data it would only warn
        if not data or not (text.isascii() or all(map(str.isascii, data))) or (
            "\x1f" in text and any("\x1f" in s for s in data)
        ):
            raise ValueError("data the reader may misread")
        with warnings.catch_warnings() if _NUMPY_1 else contextlib.nullcontext():
            if _NUMPY_1:
                # numpy 1.x reads "1.0" as an index with only a DeprecationWarning
                warnings.simplefilter("error")
            table = np.loadtxt(data, delimiter=",", comments=None, dtype=_ROW, ndmin=1)
        return header_dims, table["u"], table["e"], table["v"]
    except (ValueError, OverflowError, Warning):
        pass
    rows = []
    for lineno, line in enumerate(stripped, start=1):
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {len(parts)}", lineno)
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        table = np.array(rows, _ROW)
    except OverflowError:  # an index outside int64: Python ints, for from_triplets
        return (header_dims, *np.array(rows, object).reshape(-1, 3).T)
    return header_dims, table["u"], table["e"], table["v"]


def read_utf8(path: str | Path, context: str = "") -> str:
    """The file as UTF-8 text; a bad byte's ParseError counts lines as splitlines() does."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{context}not valid UTF-8 ({exc.reason})", line) from exc


def load_csv(path: str | Path) -> RatingMatrix:
    """Read a matrix from a `user,event,value` CSV file.

    Lines starting with `#` are comments; a `# users=N events=M` line pins
    the dimensions, which are otherwise inferred as max index + 1. A file
    with neither data rows nor a dimension header is rejected as empty.

    On numpy 1.x the parse changes the process-wide warning filters for its
    duration, so there load_csv is not safe to call from several threads.
    """
    path = Path(path)
    header_dims, users, events, values = _parse_bulk(read_utf8(path))
    dims = _dimensions(path, header_dims, users, events)
    if users.dtype == object:
        return from_triplets(zip(users, events, values), *dims)
    return _build(users, events, values, *dims)


def _dimensions(path, header_dims, users, events) -> tuple[int, int]:
    """The header's dimensions, else max index + 1 (at least 0)."""
    if header_dims is not None:
        return header_dims
    if not len(users):
        raise EmptyInputError(f"{path}: no observations and no dimension header")
    return max(int(np.max(users)), -1) + 1, max(int(np.max(events)), -1) + 1


def write_csv(matrix: RatingMatrix, path: str | Path) -> None:
    """Write the matrix in the format load_csv reads, dimensions included,
    replacing the file atomically."""
    lines = [f"# users={matrix.n_users} events={matrix.n_events}"]
    lines.extend(
        f"{u},{e},{v!r}"
        for u, e, v in zip(matrix.users.tolist(), matrix.events.tolist(), matrix.values.tolist())
    )
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _subset(matrix: RatingMatrix, mask: np.ndarray) -> RatingMatrix:
    return RatingMatrix(
        matrix.n_users, matrix.n_events,
        matrix.users[mask], matrix.events[mask], matrix.values[mask],
    )


def split_holdout(
    matrix: RatingMatrix, fraction: float, seed: int
) -> tuple[RatingMatrix, RatingMatrix]:
    """Split observations into disjoint (train, test) matrices.

    The test set holds round(fraction * |observations|) entries sampled
    without replacement; both halves keep the original dimensions. The
    split is deterministic given the seed.
    """
    if not 0 <= fraction < 1:
        raise InvalidParameterError(f"holdout fraction must be in [0, 1), got {fraction}")
    n = len(matrix)
    n_test = int(round(fraction * n))
    test = np.zeros(n, dtype=bool)
    test[random.Random(seed).sample(range(n), n_test)] = True
    return _subset(matrix, ~test), _subset(matrix, test)


def filter_users(matrix: RatingMatrix, keep: Sequence[int] | frozenset[int]) -> RatingMatrix:
    """Matrix restricted to observations of the given users, same shape."""
    return _subset(matrix, np.isin(matrix.users, list(frozenset(keep))))
