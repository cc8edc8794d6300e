"""In-memory span tracer that wraps causalcap's public functions from outside.

Every public function defined in one of the six layer modules is wrapped,
and the wrapper is installed on every module attribute bound to that
function, so a function imported by name elsewhere (``bounds.trace_norm``,
``pdm.apply_on_second``) is traced at each call site. A span is named after
the function's defining module (``linalg.trace_norm``), whichever attribute
the call went through. Spans stay in flat integer arrays until the run ends.

Wrapper bookkeeping done between a parent's and a child's clock reads counts
as the parent's self time; the traced run reports the total cost of tracing
as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "channels", "pdm", "bounds", "verify", "cli")


class Tracer:
    """Records spans (name, parent, start ns, end ns) for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own unit of work (one request)."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        """Wrap the layers' public functions on every attribute that holds them."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"causalcap.{layer}") for layer in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {}
        for mod in [importlib.import_module("causalcap")] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(obj, targets[id(obj)][1])
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
        )


class Spans:
    """Closed spans as parallel arrays; a parent index always precedes its children."""

    def __init__(self, names, name, parent, start, end):
        self.names = list(names)
        self.name, self.parent, self.start, self.end = name, parent, start, end
        self.dur = end - start
        n = len(name)
        has = parent >= 0
        child = np.bincount(parent[has], weights=self.dur[has], minlength=n) if n else np.zeros(0)
        self.self_ns = self.dur - child.astype(np.int64)

    def nearest(self, mask: np.ndarray) -> np.ndarray:
        """Index of each span's nearest ancestor-or-self inside mask, else -1."""
        found = np.where(mask, np.arange(len(mask)), -1)
        cur = self.parent.copy()
        todo = (found < 0) & (cur >= 0)
        while todo.any():
            hit = todo.copy()
            hit[todo] = mask[cur[todo]]
            found[hit] = cur[hit]
            step = todo & ~hit
            cur[step] = self.parent[cur[step]]
            todo = step & (cur >= 0)
        return found

    def roots(self) -> np.ndarray:
        return self.nearest(self.parent < 0)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, parent=self.parent,
            start=self.start, end=self.end,
        )
