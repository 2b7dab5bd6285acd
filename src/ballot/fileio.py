"""Atomic file replacement for every file the package writes."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open ``path`` for writing ("w" or "wb", with ``open``'s
    ``newline``) so that readers only ever see the old file or the
    complete new one.

    Writes go to a fresh temp file in the same directory, which replaces
    the target when the block exits normally; on any failure the temp
    file is removed and the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
