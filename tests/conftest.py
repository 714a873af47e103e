import itertools

import pytest


@pytest.fixture(scope="module")
def fresh_path(tmp_path_factory):
    """A function giving a new file path on each call, for hypothesis
    examples: truncating a file just written can cost a disk flush on some
    file systems (ext4 flushes delayed allocations on truncate)."""
    workdir = tmp_path_factory.mktemp("examples")
    names = itertools.count()
    return lambda suffix="": workdir / f"{next(names)}{suffix}"
