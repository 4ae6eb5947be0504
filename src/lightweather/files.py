"""Files replaced whole: a reader of the path sees its old bytes or all of
its new ones, never a part. Every file the package writes goes through
write_atomically: the checkpoint, the parse cache and every CSV and text
output.

write_atomically makes the path's directory, writes to a new temp file
beside the path, named `.<name>.<12 hex digits>.tmp`, and renames it over
the path (os.replace) only when every byte is written. A write that raises
removes the temp file and leaves the path as it was; an OSError on the way
(a full disk, a directory in the path's place, no permission) becomes the
one-line ConfigError "cannot write <path>: <reason>". The rename is atomic
against a crash of the writing process; the temp file is not fsynced, so
after a power loss a file may be short, which the readers' size and
checksum checks catch.

Inside a written_together block, write_atomically keeps each whole temp
file and renames none: the block's end renames them all, in the order they
were written, and a block that raises removes them all. So a command whose
later output fails leaves every output with an earlier run's bytes, never
a new one beside an old one. A directory in an output's place fails before
its bytes are written, so it cannot stop the renames halfway.
"""

from __future__ import annotations

import csv
import errno
import io
import os
import secrets
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from pathlib import Path

from .errors import ConfigError

# the (temp file, path) pairs of the innermost written_together block
_together: ContextVar[list | None] = ContextVar("together", default=None)


def _open_temp(path: Path):
    """A new file beside `path` under a unique name, opened for binary
    writing with the permissions open() would give `path`, and its name."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    return os.fdopen(fd, "wb"), tmp


@contextmanager
def write_atomically(path, text: bool = False):
    """A file whose bytes replace `path` when the block ends: binary, or
    with `text` UTF-8 text written as open(path, "w", newline="") writes
    it. If the block raises, the temp file is removed and the error goes
    on, an OSError as the ConfigError "cannot write <path>: <reason>"."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():  # os.replace would refuse, after the write
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh, tmp = _open_temp(path)
        try:
            with io.TextIOWrapper(fh, encoding="utf-8", newline="") if text else fh as out:
                yield out
            pending = _together.get()
            if pending is None:
                os.replace(tmp, path)
            else:
                pending.append((tmp, path))
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


@contextmanager
def written_together():
    """A block whose write_atomically files replace their paths when it
    ends, in the order they were written; if it raises, none does and
    their temp files are removed."""
    pending: list = []
    token = _together.set(pending)
    try:
        yield
        while pending:
            tmp, path = pending[0]
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise _cannot_write(path, exc) from exc
            del pending[0]
    finally:
        _together.reset(token)
        for tmp, _ in pending:
            with suppress(OSError):
                os.unlink(tmp)


def _cannot_write(path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def write_csv(path, rows) -> None:
    """`rows` (the header first) as csv.writer writes them, CRLF line ends
    included, replacing `path` whole (write_atomically)."""
    with write_atomically(path, text=True) as fh:
        csv.writer(fh).writerows(rows)
