import math

import numpy as np
import pytest

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
