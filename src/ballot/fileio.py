"""The one place the package opens a file: an atomic writer and a
reader, each turning an I/O failure into one error with one message."""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path

from .errors import BallotError, PersistenceError


def _named(what: str, path) -> str:
    """``what`` and ``path`` as a message names them; the path alone
    when ``what`` is empty."""
    return f"{what} {path}" if what else str(path)


@contextmanager
def writing(path, what: str, mode: str = "w", newline: str | None = None):
    """Open ``path`` for writing ("w" or "wb", with ``open``'s
    ``newline``) so that readers only ever see the old file or the
    complete new one.

    Missing parent directories are made.  Writes go to a fresh temp
    file in the same directory, which replaces the target when the
    block exits normally; on any failure the temp file is removed and
    the error propagates, an ``OSError`` as ``PersistenceError("cannot
    write <what> <path>: ...")``.  Nothing is fsynced, so the rename
    guards against an interrupted process, not against a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, mode.replace("w", "x"), newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise PersistenceError(f"cannot write {_named(what, path)}: {exc}") from exc


@contextmanager
def reading(path, what: str, error: type[BallotError], mode: str = "r",
            newline: str | None = None):
    """Open ``path`` for reading; an ``OSError`` or ``UnicodeDecodeError``
    in the block raises ``error("cannot read <what> <path>: ...")``."""
    try:
        with open(path, mode, newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {_named(what, path)}: {exc}") from exc


def read_json(path, what: str, error: type[BallotError]):
    """The parsed JSON file ``path``, read by ``reading``; a parse error
    raises ``error("<what> <path> is not valid JSON: ...")``."""
    with reading(path, what, error) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{what} {path} is not valid JSON: {exc}") from exc
