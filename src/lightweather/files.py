"""Files replaced whole: a reader of the path sees its old bytes or all of
its new ones, never a part.

write_atomically writes to a new temp file beside the path, named
`.<name>.<12 hex digits>.tmp`, and renames it over the path (os.replace)
only when every byte is written. A write that raises removes the temp
file and leaves the path as it was. The rename is atomic against a crash
of the writing process; the temp file is not fsynced, so after a power
loss a file may be short, which the readers' size and checksum checks
catch.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager, suppress
from pathlib import Path


def _open_temp(path: Path):
    """A new file beside `path` under a unique name, opened for binary
    writing with the permissions open() would give `path`, and its name."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    return os.fdopen(fd, "wb"), tmp


@contextmanager
def write_atomically(path):
    """A binary file whose bytes replace `path` when the block ends; if the
    block raises, the temp file is removed and the error goes on."""
    path = Path(path)
    fh, tmp = _open_temp(path)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
