"""The traced run's machinery: wrappers, in-memory spans, self time.

A :class:`Tracer` replaces public callables of the program with
wrappers *from the benchmark's side* (``src/`` is never edited) and
restores them on :meth:`Tracer.uninstall`.  Three wrapper kinds:

- :meth:`Tracer.timed` — one frame per call on a per-thread stack.  On
  exit the call's duration is added to the layer's busy time and to
  its parent frame's child time; self time is the duration minus the
  time its (directly nested) child frames cover.  With ``span=True``
  the call is also kept as a span (name, start, end, id, parent, job)
  for the Chrome trace; high-rate calls (kernel events, ticks) only
  aggregate, so memory stays bounded.
- :meth:`Tracer.counted` — a call counter, no clock reads.
- :class:`CountingHeapq` — a ``heapq`` stand-in that counts pushes and
  pops, installed as a module's ``heapq`` global.

Per-thread state is registered once per thread and merged at the end,
so the hot path takes no lock.  Times come from ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so spans of the bench and of its server
subprocess share one timeline).
"""

from __future__ import annotations

import functools
import heapq as _heapq
import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_MISSING = object()


class _ThreadState:
    __slots__ = ("tid", "stack", "stats", "counts", "samples", "spans",
                 "span_id", "job")

    def __init__(self, tid: int):
        self.tid = tid
        #: open frames: [child_time, span_id]
        self.stack: List[List[Any]] = []
        #: name -> [calls, busy_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: name -> per-occurrence values (client-side latencies)
        self.samples: Dict[str, List[float]] = {}
        #: (name, start, end, span_id, parent_id, job)
        self.spans: List[tuple] = []
        self.span_id: Optional[int] = None
        self.job: Optional[str] = None


class Tracer:
    """Wrap callables, aggregate per-name busy/self time, keep spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def set_job(self, job: Optional[str]) -> None:
        """Tag the calling thread's following spans with ``job``."""
        self._state().job = job

    def count(self, name: str, n: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self._state().samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable, span: bool = False,
              after: Optional[Callable[["Tracer", tuple, Any], None]] = None
              ) -> Callable:
        """``fn`` wrapped in a timing frame; ``after(tracer, args,
        result)`` runs on each successful return (outside the frame)."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = st.span_id
            sid = next(tracer._ids) if span else None
            frame = [0.0, sid]
            stack.append(frame)
            if span:
                st.span_id = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if span:
                    st.span_id = parent
                    st.spans.append((name, t0, t1, sid, parent, st.job))
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Set ``owner.attr = wrapper``, remembering what was there."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Shorthand: patch ``owner.attr`` with a timed wrapper."""
        self.patch(owner, attr, self.timed(name, getattr(owner, attr),
                                           **kwargs))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Merged stats, counts, samples and spans of every thread
        (plain JSON-safe data: what the server launcher dumps)."""
        with self._lock:
            threads = list(self._threads)
        merged = merge_snapshots([
            {"stats": dict(st.stats), "counts": dict(st.counts),
             "samples": dict(st.samples)} for st in threads])
        merged["pid"] = os.getpid()
        merged["spans"] = [[*sp, st.tid] for st in threads
                           for sp in list(st.spans)]
        return merged


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the stats and counts (and pool the samples) of several
    processes' snapshots."""
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for snap in snapshots:
        for name, values in snap["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                agg[k] += values[k]
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, values in snap["samples"].items():
            samples.setdefault(name, []).extend(values)
    return {"stats": stats, "counts": counts, "samples": samples}


def chrome_trace(snapshots: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every kept span as a Chrome trace-event ``X`` event (one pid per
    process; loads in ``chrome://tracing`` and Perfetto)."""
    events = []
    for snap in snapshots:
        for name, t0, t1, sid, parent, job, tid in snap["spans"]:
            events.append({
                "name": name, "ph": "X", "pid": snap["pid"], "tid": tid,
                "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent, "job": job},
            })
    events.sort(key=lambda e: e["ts"])
    return events


class CountingHeapq:
    """A ``heapq`` stand-in counting ``heap_pushes`` and ``heap_pops``
    into a tracer."""

    def __init__(self, tracer: Tracer):
        self._count = tracer.count

    def heappush(self, heap: list, item: Any) -> None:
        self._count("heap_pushes")
        _heapq.heappush(heap, item)

    def heappop(self, heap: list) -> Any:
        self._count("heap_pops")
        return _heapq.heappop(heap)

    def __getattr__(self, name: str) -> Any:
        return getattr(_heapq, name)
