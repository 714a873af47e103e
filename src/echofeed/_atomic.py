"""Whole-file writes that land completely or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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
