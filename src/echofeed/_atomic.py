"""Whole-file writes that land completely or not at all, and the one
JSON writer."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import NonFiniteScoreError


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """UTF-8 text handle whose contents replace `path` on a clean exit.

    The text goes to a temporary file in the same directory, which
    os.replace swaps in. If the block raises, the temporary file is removed
    and `path` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(doc, path: str | Path | None = None, **kwargs) -> str:
    """The one JSON writer: doc as JSON text with a final newline, written
    atomically to path when one is given; kwargs go to json.dumps.

    JSON (RFC 8259) has no NaN or Infinity, so a non-finite float raises
    NonFiniteScoreError before anything is written.
    """
    try:
        text = json.dumps(doc, allow_nan=False, **kwargs) + "\n"
    except ValueError as exc:
        raise NonFiniteScoreError(f"refusing to write non-finite JSON ({exc})") from exc
    if path is not None:
        with atomic_write(path) as fh:
            fh.write(text)
    return text
