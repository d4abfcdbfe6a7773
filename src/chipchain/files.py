"""Atomic file output: the one way the package writes a file."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path) -> Iterator[IO[str]]:
    """A UTF-8 text file for ``<path>.tmp``, moved over ``path`` when the block ends.

    A reader of ``path`` sees the earlier file or the whole new one, never a
    partial one. If the block raises, ``path`` is left as it was and the
    temporary file is removed. Lines end in ``\\n`` on every platform. The move
    survives a crash of the process, not a loss of power: nothing is synced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
