"""Span tracer over the public functions of the spinsens modules.

``Tracer.install()`` replaces every public function of each package module
with a wrapper that records one span per call: id, name, parent id, start
and end. The wrapper is bound in every package module that holds the
function under its own name (``spectral_decompose`` is imported by name in
``synthesis``, ``analytics``, ``verification`` and ``bloch``), so calls are
seen whichever module makes them. ``uninstall()`` restores the originals.

Spans stay in memory until the run ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover; children
on worker threads overlap, so the covered part is the union of their
intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("network", "bloch", "sensitivity", "geometry", "synthesis",
          "analytics", "verification", "cli")


class Tracer:
    """Records spans while installed; one instance per traced invocation."""

    def __init__(self, watchers: dict | None = None, cpu_timed: tuple[str, ...] = ()):
        self.names: list[str] = []
        # (id, name index, parent id, start, end); list.append and next() on
        # an itertools.count are single C calls, so worker threads can record
        # without a lock
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._watchers = watchers or {}
        # thread CPU seconds by span id, for the functions named in cpu_timed;
        # a thread waiting for the interpreter lock spends wall time, not CPU
        self.cpu: dict[int, float] = {}
        self._cpu_timed = frozenset(cpu_timed)
        self._watch_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        watcher = self._watchers.get(qualname)
        root_stack = self._root_stack
        clock = time.perf_counter
        cpu_clock = time.thread_time if qualname in self._cpu_timed else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's first span belongs to the span the
                # installing thread has open while it waits on the pool
                try:
                    parent = root_stack[-1] if stack is not root_stack else -1
                except IndexError:
                    parent = -1
            sid = next(self._ids)
            stack.append(sid)
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if cpu_clock:
                    self.cpu[sid] = cpu_clock() - c0
                stack.pop()
                self.spans.append((sid, index, parent, t0, t1))
            if watcher is not None:
                with self._watch_lock:
                    watcher(args, kwargs, result, sid)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._root_stack
        modules = [importlib.import_module(f"spinsens.{m}") for m in LAYERS]
        namespaces = modules + [importlib.import_module("spinsens")]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, name, obj))
                            setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> dict[str, dict]:
        """Per function: calls, total and self seconds, and span durations."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        out: dict[str, dict] = {}
        for sid, index, _, t0, t1 in self.spans:
            row = out.setdefault(self.names[index], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            row["durations"].append(t1 - t0)
        return out

    def write_csv(self, path, invocation: int) -> None:
        """Spans as CSV rows, times in seconds from the invocation's first span.

        Invocation 0 starts the file; later invocations append to it.
        """
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "a" if invocation else "w", encoding="utf-8", newline="\n") as fh:
            if not invocation:
                fh.write("invocation,id,name,parent,start_s,end_s\n")
            for sid, index, parent, t0, t1 in sorted(self.spans):
                fh.write(f"{invocation},{sid},{self.names[index]},{parent},"
                         f"{t0 - origin:.9f},{t1 - origin:.9f}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
