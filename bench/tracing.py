"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code: the tracer replaces names
where the calling module binds them (``cli.mu``, ``strassen.solve_supported_overlap``,
``sdp.psd_project``, ``numpy.linalg.eigvalsh``, ...) and restores them after the
pass, so ``src/`` is never edited.

Two kinds of wrapper:

* span wrappers, around solver-level calls, record one span each: id, parent,
  thread, name, layer, start and end. A span opened on a pool worker thread
  with nothing open on that thread takes the operation's root span as parent.
* leaf wrappers, around the hot kernels (PSD projection, partial traces,
  ``eigh``/``eigvalsh``), only add to counters, because they run hundreds of
  thousands of times per pass. Their time is charged to the innermost open
  span on the same thread as leaf time, and per kernel name on that span.

A span's self time is its duration minus the union of its child spans'
intervals and minus its leaf time. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _Frame:
    """A span: an operation's root, or a wrapped call inside one."""

    __slots__ = ("sid", "parent", "name", "layer", "thread", "start", "end",
                 "leaf_s", "children", "counts", "times")
    leaf = False

    def __init__(self, sid, parent, name, layer):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.leaf_s = 0.0
        self.children = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)


class _LeafMark:
    """Stack marker for a running leaf call (much cheaper than a _Frame)."""

    __slots__ = ("layer",)
    leaf = True

    def __init__(self, layer):
        self.layer = layer


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[_Frame] = []
        self.counters: defaultdict = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root: _Frame | None = None
        self._patches: list = []

    # -- stacks -------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _owner(self, st: list) -> _Frame | None:
        """Innermost open span (not leaf) on this thread, else the op root."""
        for frame in reversed(st):
            if not frame.leaf:
                return frame
        return self._root

    # -- operations -----------------------------------------------------------

    def op(self, fn, *args):
        """Run one operation (a ``cli.main`` call) under a root span."""
        root = _Frame(next(self._ids), 0, "cli.main", "cli")
        self._root = root
        self._stack().append(root)
        root.start = _clock()
        try:
            return fn(*args)
        finally:
            root.end = _clock()
            self._stack().pop()
            self._root = None
            self.spans.append(root)

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, layer: str, on_return=None) -> None:
        """Record a span around ``owner.attr``; ``on_return(counters, result)`` adds counts."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            st = self._stack()
            parent = self._owner(st)
            if parent is None:
                return fn(*args, **kwargs)
            frame = _Frame(next(self._ids), parent.sid, name, layer)
            st.append(frame)
            frame.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                frame.end = _clock()
                st.pop()
                with self._lock:
                    parent.children.append((frame.start, frame.end))
                    self.spans.append(frame)
            if on_return is not None:
                with self._lock:
                    on_return(self.counters, result)
            return result

        self._patch(owner, attr, wrapper)

    def leaf(self, owner, attr: str, name: str, layer: str | None, n3=False) -> None:
        """Count calls and time of a kernel; ``layer=None`` charges the caller's layer."""
        fn = getattr(owner, attr)
        marks: dict = {}
        keys: dict = {}

        def wrapper(*args, **kwargs):
            st = self._stack()
            top = st[-1] if st else self._root
            if top is None:
                return fn(*args, **kwargs)
            owner_frame = top if not top.leaf else self._owner(st)
            where = layer or top.layer
            mark = marks.get(where) or marks.setdefault(where, _LeafMark(where))
            st.append(mark)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                st.pop()
                k = keys.get(where) or keys.setdefault(where, (
                    f"{name}.calls", f"{name}.s", f"{where}.{name}_calls", f"{where}.{name}_s"))
                with self._lock:
                    c = self.counters
                    c[k[0]] += 1
                    c[k[1]] += dt
                    c[k[2]] += 1
                    c[k[3]] += dt
                    if n3:
                        c["eig_n3"] += float(args[0].shape[-1]) ** 3
                    owner_frame.counts[name] += 1
                    owner_frame.times[name] += dt
                    if not st:
                        # A pool worker calling straight under the op root:
                        # it overlaps other threads, so it counts as an interval.
                        owner_frame.children.append((t0, t0 + dt))
                    elif not top.leaf:
                        owner_frame.leaf_s += dt

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(frame: _Frame) -> float:
    return (frame.end - frame.start) - union_length(frame.children) - frame.leaf_s


def span_records(spans) -> list:
    """Plain rows for writing the spans out."""
    return [
        [f.sid, f.parent, f.thread, f.name, f.layer, f.start, f.end, f.leaf_s, dict(f.counts)]
        for f in spans
    ]
