"""In-memory spans around the public functions of the lightweather package.

`Tracer.install` wraps every public function defined in a `lightweather`
module, and the method `data.WindowSet.batch`, at every module attribute
that binds the same function object. A function is wrapped at the names its
callers look it up under: `model.py` does
`from .numerics import linear_forward`, so both
`lightweather.numerics.linear_forward` and `lightweather.model.linear_forward`
are replaced. `Tracer.uninstall` puts every original object back, so an
untraced run executes the package unmodified.

Spans are kept in memory as `Span(name, start, end, parent)`, `parent`
being the index of the enclosing span or -1, and written out by
`write_spans` when the run ends. Counters computed from call arguments
(linear-layer flop and bytes, window-gather bytes) accumulate beside them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "lightweather"

class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


def linear_forward_cost(args, kwargs, result) -> dict[str, float]:
    """Computed work of `y = x W^T + b`: 2 n d_in d_out flop, and bytes when
    every operand is read once and the result written once."""
    x, layer = args[0], args[1]
    d_out, d_in = layer.weight.shape
    n = x.size // d_in
    words = n * d_in + d_out * d_in + d_out + n * d_out
    return {
        "numerics.linear.flop": 2.0 * n * d_in * d_out,
        "numerics.linear.bytes": float(words * result.dtype.itemsize),
    }


def linear_backward_cost(args, kwargs, result) -> dict[str, float]:
    """Computed work of the linear backward rule: grad_W = g^T x and
    grad_x = g W are 2 n d_in d_out flop each; bytes read x, g and W and
    write grad_x, grad_W and grad_b once."""
    x, layer = args[0], args[1]
    d_out, d_in = layer.weight.shape
    n = x.size // d_in
    words = (n * d_in + n * d_out + d_out * d_in) + (n * d_in + d_out * d_in + d_out)
    return {
        "numerics.linear.flop": 4.0 * n * d_in * d_out,
        "numerics.linear.bytes": float(words * result[0].dtype.itemsize),
    }


def batch_gather_cost(args, kwargs, result) -> dict[str, float]:
    """Bytes of the arrays one `WindowSet.batch` call gathers."""
    return {"data.gather_bytes": float(sum(a.nbytes for a in result.values()))}


COSTS = {
    "numerics.linear_forward": linear_forward_cost,
    "numerics.linear_backward": linear_backward_cost,
    "data.WindowSet.batch": batch_gather_cost,
}


def package_modules() -> list:
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def traced_targets(modules) -> dict[int, tuple[str, object, object, str]]:
    """id(function) -> (span name, function, owner, attribute) of every
    function the tracer wraps, at the place it is defined."""
    targets = {}
    for mod in modules:
        short = mod.__name__[len(PACKAGE) + 1 :]
        for attr, obj in vars(mod).items():
            if (
                short
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                targets[id(obj)] = (f"{short}.{attr}", obj, mod, attr)
    window_set = sys.modules[f"{PACKAGE}.data"].WindowSet
    batch = vars(window_set)["batch"]
    targets[id(batch)] = ("data.WindowSet.batch", batch, window_set, "batch")
    return targets


class Tracer:
    """Records spans and counters while installed; owned by one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` recording one span per call, and its computed costs."""
        cost = COSTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserves the slot so children index after it
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent)
                stack.pop()
            if cost is not None:
                for key, amount in cost(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        targets = traced_targets(modules)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn, _, _) in targets.items()}
        self.names = sorted(name for name, _, _, _ in targets.values())
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for _, _, owner, attr in targets.values():
            if inspect.isclass(owner):
                self._patched.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrappers[id(vars(owner)[attr])])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span], names=()) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds. A span nested in a span of its own name adds to the
    self time but not again to the inclusive time. Every name in `names`
    appears, with zeros when it was never called."""
    selfs = self_times(spans)
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["s"] += s.end - s.start
    return out


def time_within(spans: list[Span], prefix: str, ancestor: str) -> float:
    """Inclusive seconds of the outermost spans named `prefix*` that run
    inside a span named `ancestor`."""
    total = 0.0
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p, inside = s.parent, False
        while p >= 0:
            if spans[p].name.startswith(prefix):
                break
            inside = inside or spans[p].name == ancestor
            p = spans[p].parent
        else:
            if inside:
                total += s.end - s.start
    return total


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": list(Span._fields), "spans": [list(s) for s in spans]}, fh)
