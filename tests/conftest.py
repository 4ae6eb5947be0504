import errno
import math

import numpy as np
import pytest

from lightweather import files

ALLOCATORS = ("zeros", "empty", "zeros_like", "empty_like")


@pytest.fixture
def fail_allocation(monkeypatch):
    """fail_allocation(size, which): from then on numpy's zeros, empty and
    their _like forms raise MemoryError for the k-th array of `size`
    elements they are asked for (k from 0) when which(k) is true, as numpy
    does for an array it has no memory for. Returns the list of allocator
    names asked for an array of that size, in order."""
    real = {name: getattr(np, name) for name in ALLOCATORS}

    def install(size: int, which) -> list[str]:
        calls: list[str] = []

        def failing(name):
            def make(first, *args, **kwargs):
                n = np.size(first) if name.endswith("_like") else math.prod(np.atleast_1d(first))
                if n == size:
                    calls.append(name)
                    if which(len(calls) - 1):
                        raise MemoryError(f"no room for {size} elements")
                return real[name](first, *args, **kwargs)

            return make

        for name in ALLOCATORS:
            monkeypatch.setattr(np, name, failing(name))
        return calls

    return install


class _FailingFile:
    """A binary file whose write call number `after` (from 0) raises, as a
    full disk makes it; the calls before it are written."""

    def __init__(self, fh, after: int):
        self.fh, self.after, self.calls = fh, after, 0

    def write(self, b):
        if self.calls == self.after:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.calls += 1
        return self.fh.write(b)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def fail_write(monkeypatch):
    """fail_write(after): from then on files.write_atomically cannot create
    its temp file (OSError) when `after` is None, or else its file's write
    call number `after` (from 0) raises OSError. Returns the temp file
    names made."""
    real = files._open_temp

    def install(after) -> list:
        made = []

        def open_temp(path):
            if after is None:
                raise OSError(errno.EACCES, "Permission denied")
            fh, tmp = real(path)
            made.append(tmp)
            return _FailingFile(fh, after), tmp

        monkeypatch.setattr(files, "_open_temp", open_temp)
        return made

    return install
