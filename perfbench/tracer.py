"""Span tracer that wraps conelab's public functions from outside the package.

Several modules import functions by name (`from .measure import
region_measure`), so wrapping `conelab.measure.region_measure` alone would
miss their calls. `install` therefore replaces the function in every
conelab module namespace that holds it, and wraps methods on their class.

A span is (id, parent id, name index, start, end). Each thread keeps its
own stack of open spans and its own buffers, so spans of `_parallel` worker
threads need no lock and still nest: the task wrapper gives each task the
enclosing `_parallel` span as parent. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
from array import array
from time import perf_counter

PACKAGE = "conelab"
TASK = "cli._parallel.task"


class _Buffer:
    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.results: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple] = []
        self.enabled = False

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name_idx: int, fn, args, kwargs, parent=None, sid=None):
        buf = self._buffer()
        if parent is None:
            parent = buf.stack[-1] if buf.stack else 0
        if sid is None:
            sid = next(self._ids)
        buf.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            buf.stack.pop()
            buf.ids.append(sid)
            buf.parents.append(parent)
            buf.names.append(name_idx)
            buf.starts.append(start)
            buf.ends.append(end)

    def wrap(self, name: str, fn, task_arg: int | None = None, keep_result=False):
        """Wrapper recording one span per call while the tracer is enabled.

        task_arg names the positional argument holding a callable that the
        function maps over tasks, possibly on worker threads; each task call
        becomes a child span named TASK. keep_result stores every return
        value in results[name].
        """
        idx = self._name_index(name)
        task_idx = self._name_index(TASK) if task_arg is not None else None
        kept = self.results.setdefault(name, []) if keep_result else None
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            if task_arg is not None:
                args = list(args)
                inner = args[task_arg]
                args[task_arg] = lambda *a, **k: tracer._span(
                    task_idx, inner, a, k, parent=sid)
            result = tracer._span(idx, fn, args, kwargs, sid=sid)
            if kept is not None:
                kept.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, targets):
        """Wrap each target everywhere it is bound inside PACKAGE.

        targets: iterable of (span name, owner, attribute, options) where
        owner is a module or class. Module functions are replaced in every
        package module that binds the same object.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, owner, attr, opts in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **opts)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def spans(self):
        """All closed spans as parallel lists (ids, parents, names, starts, ends)."""
        ids, parents, names, starts, ends = [], [], [], [], []
        with self._buffers_lock:
            buffers = list(self._buffers)
        for b in buffers:
            ids.extend(b.ids)
            parents.extend(b.parents)
            names.extend(self.names[i] for i in b.names)
            starts.extend(b.starts)
            ends.extend(b.ends)
        return ids, parents, names, starts, ends

    def dump(self, path: str):
        """Write every span as CSV (id,parent,name,start,end), gzip-compressed."""
        ids, parents, names, starts, ends = self.spans()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for row in zip(ids, parents, names, starts, ends):
                fh.write("%d,%d,%s,%.9f,%.9f\n" % row)
        return len(ids)


def self_times(ids, parents, starts, ends):
    """Self time per span: duration minus the part its child spans cover.

    Children on other threads can overlap each other, so the covered part is
    the union of the children's intervals, clipped to the parent's.
    """
    index = {sid: i for i, sid in enumerate(ids)}
    children: dict[int, list] = {}
    for i, p in enumerate(parents):
        if p in index:
            children.setdefault(index[p], []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for i, kids in children.items():
        lo_bound, hi_bound = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: starts[k]):
            lo, hi = max(starts[k], lo_bound), min(ends[k], hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] -= covered
    return out
