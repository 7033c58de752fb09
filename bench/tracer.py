"""In-memory span tracer that wraps a package's public functions from outside.

Modules of the package import each other's functions by name (``from
.network import travel_time``), so each wrapper replaces the name in every
module that holds the function, not only in the module that defines it.
A span is (name, parent span, start, end); spans stay in memory until
``drain`` hands them over.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# Called once per grid node inside Dijkstra; wrapping them would charge the
# tracer's own cost to travel_time's self time.
SKIP = frozenset({"network.cell_index", "network.cell_rowcol"})

# Foreign functions the package calls by a name in one of its modules.
FOREIGN = {"scenarios": ("linear_sum_assignment",)}


@dataclass
class Spans:
    names: list[str]      # span name per name id
    name: array           # name id per span
    parent: array         # parent span index, -1 at the root
    start: array
    end: array

    def labels(self) -> list[str]:
        """Span name per span."""
        return [self.names[n] for n in self.name]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].

        Self time is a span's duration minus the time its child spans cover.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return dict(out)


class Tracer:
    """Wraps the public functions of every module of `package` while installed.

    `observers` maps a span name to fn(args, result, seconds), called after
    the span closes, for counts that live in arguments or results.
    """

    def __init__(self, package: str, observers: dict | None = None) -> None:
        self.modules = {
            name.rpartition(".")[2]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith(package + ".") and mod is not None
        }
        self.consumers = [sys.modules[package], *self.modules.values()]
        self.observers = observers or {}
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def targets(self) -> dict[str, object]:
        """Span name -> function to wrap."""
        out = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if (own and not attr.startswith("_")) or attr in FOREIGN.get(short, ()):
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        out[name] = obj
        return out

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = self.observers.get(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result, ends[i] - starts[i])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every consumer namespace; restore the originals on exit."""
        patched = []
        try:
            for name, fn in self.targets().items():
                wrapper = self._wrap(name, fn)
                for mod in self.consumers:
                    for attr, obj in list(vars(mod).items()):
                        if obj is fn:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)
            self.names = []
            self.drain()

    def drain(self) -> Spans:
        """Hand over the spans recorded so far and empty the buffers.

        Call only between top-level calls, when no span is open.
        """
        spans = Spans(list(self.names), array("i", self._name),
                      array("i", self._parent), array("d", self._start),
                      array("d", self._end))
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        return spans
