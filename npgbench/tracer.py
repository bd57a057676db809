"""In-memory span tracer that wraps functions at their call-site bindings.

A binding is the attribute a caller looks a function up through at call
time: a module global (``legwork.tasks.world_step``, used by the
environments) or a class attribute (``MlpPolicy.sample``). Wrapping the
binding, not the defining module, is what makes a call visible: once
``tasks.py`` has done ``from .world import world_step``, replacing
``legwork.world.world_step`` would change nothing it calls.

Spans live in flat arrays until the run ends; ``write`` saves them. A
binding that no longer exists (a later refactor removed or renamed it) is
recorded as absent and skipped, so the benchmark keeps running on code it
was not written against.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# The span every other span of a traced training call descends from.
ROOT = "bench.train"


def resolve_owner(path: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> class; None if either is gone."""
    mod_name, _, cls_name = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    if cls_name:
        owner = getattr(owner, cls_name, None)
    return owner


class Patches:
    """Replaces attributes and puts the originals back, in reverse order."""

    def __init__(self):
        self._undo = []
        self.absent = set()

    def wrap(self, owner_path: str, attr: str, make_wrapper) -> bool:
        """Replace owner.attr with make_wrapper(original); if it is gone,
        record "owner.attr" in ``absent`` and return False."""
        owner = resolve_owner(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.absent.add(f"{owner_path}.{attr}")
            return False
        own = attr in vars(owner)
        # A class attribute that is inherited must be removed again, not
        # overwritten, when the patch is undone.
        self._undo.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, make_wrapper(fn))
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """Records (name, parent, start, end) for every call through a wrapped
    binding."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapper(self, name: str):
        """Return a function that turns fn into a span-recording wrapper."""
        nid = self._id(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()

            traced.__wrapped__ = fn
            return traced

        return make

    def span_range(self) -> int:
        return len(self.start)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-name (calls, self seconds) over spans lo..hi, which must hold
        whole trees (every parent of a span in the range is in the range)."""
        names, par, dur = self.arrays(lo, hi)
        own = self_time(par, dur)
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name ids, parent index relative to lo or -1, durations)."""
        hi = len(self.start) if hi is None else hi
        # Slicing an array.array copies it, so no numpy view pins the buffer
        # that later appends must be free to reallocate.
        names = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int32).astype(np.int64)
        par = np.where(par >= 0, par - lo, -1)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        return names, par, dur

    def count_children(self, lo: int, hi: int, parent_name: str,
                       child_name: str) -> int:
        """Spans named child_name whose parent span is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        names, par, _ = self.arrays(lo, hi)
        is_child = (names == self._ids[child_name]) & (par >= 0)
        return int(np.sum(names[par[is_child]] == self._ids[parent_name]))

    def write(self, path) -> None:
        """Save every span: names, name ids, parents, start and end times."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64))


def self_time(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """A span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it, and the part they cover is the sum of their durations.
    """
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child
