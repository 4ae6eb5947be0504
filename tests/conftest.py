import errno
import math
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from lightweather import files, model

ALLOCATORS = ("zeros", "empty", "zeros_like", "empty_like")

# A test that asks for one of these records what worker threads do or makes
# them switch often; CI re-runs the tests marked thread_order under stress.
THREAD_ORDER_FIXTURES = {"chunk_calls", "switch_often"}


def pytest_collection_modifyitems(items):
    for item in items:
        if THREAD_ORDER_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.thread_order)


class ChunkCalls(dict):
    """{first window: window count} of each model.forward_rows call, in the
    order the calls reach it. `before`, when set, is called as
    before(first) on the call's thread before the call is recorded: a
    test's way to slow down or fail one chunk."""

    before = None


@pytest.fixture
def chunk_calls(monkeypatch) -> ChunkCalls:
    """Record each model.forward_rows call from now on under its chunk's
    first window: the offset of pos.calendar, the chunk's view, within the
    calendar of the Positions that the call's model.positions made. Workers
    may reach forward_rows in any order, so a test compares these dicts,
    which name each chunk, and reads their order only where one worker runs
    the chunks. A chunk recorded twice fails the call; a test clears the
    record between calls."""
    calls, made, lock = ChunkCalls(), [], threading.Lock()
    positions, forward_rows = model.positions, model.forward_rows

    def recording_positions(*args):
        pos = positions(*args)
        made[:] = [pos.calendar]
        return pos

    def recording(x_rows, pos, *args, **kwargs):
        whole = made[0]
        first = (pos.calendar.ctypes.data - whole.ctypes.data) // whole.strides[0]
        if calls.before is not None:
            calls.before(first)
        with lock:
            assert first not in calls, f"the chunk from window {first} ran twice"
            calls[first] = len(pos.calendar)
        return forward_rows(x_rows, pos, *args, **kwargs)

    monkeypatch.setattr(model, "positions", recording_positions)
    monkeypatch.setattr(model, "forward_rows", recording)
    return calls


@contextmanager
def _switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def switch_often():
    """`with switch_often():` runs its block with the interpreter switching
    threads every microsecond, so that a worker can be preempted almost
    anywhere."""
    return _switching_often


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
