"""Job lifecycle for the sweep server.

A :class:`Job` is one submitted sweep: its specs, a *bounded* event log
(one ``lane`` event per landed scenario plus one terminal ``done``/
``failed`` event, buffered in an :class:`~repro.serve.sse.EventLog`),
and progress counters guarded by the job's own lock.  Events are never
mutated after append; a follower that connects while the whole log is
still retained replays exactly the sequence a live follower saw, and
one that connects after eviction gets an explicit ``truncated`` marker
first — never a silently clipped replay.

:class:`JobManager` owns the worker pool.  Each job runs
``session.sweep(..., on_result=...)`` on one pool thread; per-lane
concurrency inside a job is the session's own ``workers`` setting, and
cross-job dedupe of identical uncached configs is the session's
in-flight registry — the manager adds nothing to the concurrency story
beyond "jobs run in parallel against one shared session".

Job ``defaults`` are merged *below* each spec's overrides before
submission (the same layering :class:`~repro.session.Session` applies
to its own ``defaults``), so the enumerated configs — and therefore the
cache keys — match an inline ``Session(defaults=...)`` sweep.
"""

from __future__ import annotations

import secrets
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..scenarios.spec import ScenarioSpec
from ..session import Session
from .protocol import JobOptions
from .sse import DEFAULT_MAX_EVENTS, EventLog

#: job lifecycle states, in order
STATES = ("queued", "running", "done", "failed")

#: events that end an SSE stream (the job can produce nothing after them)
TERMINAL_EVENTS = ("done", "failed")

#: finished jobs a manager keeps (snapshot, event log, SSE replay); older
#: ones are forgotten in finishing order, so a long-running server's
#: memory does not grow with every job it has ever run
MAX_FINISHED_JOBS = 64


class Job:
    """One submitted sweep: bounded event log + locked progress state."""

    def __init__(self, specs: Sequence[ScenarioSpec], options: JobOptions,
                 max_events: int = DEFAULT_MAX_EVENTS):
        self.id = secrets.token_hex(8)
        self.specs = list(specs)
        self.options = options
        # wall-clock submission stamp, reporting only — never keyed on
        self.created = time.time()  # lint: ok(D02: job metadata, not results)
        self.log = EventLog(max_events=max_events)
        self._lock = threading.Lock()
        # lint: guarded_by(self._lock: set by the worker, read by snapshots)
        self.state = "queued"
        # lint: guarded_by(self._lock: written with state on failure)
        self.error: Optional[str] = None
        # lint: guarded_by(self._lock: bumped per lane from session workers)
        self.cached = 0
        # lint: guarded_by(self._lock: bumped per lane from session workers)
        self.computed = 0

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self.state in TERMINAL_EVENTS

    # ------------------------------------------------------------------
    # Event log (bounded append; readers replay + follow via self.log)
    # ------------------------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        self.log.append(event)
        if event.get("event") in TERMINAL_EVENTS:
            self.log.close()

    def land(self, index: int, point) -> None:
        """Record one landed lane: counters under the lock, then the
        event append (which takes the log's own condition) outside it —
        the two locks are never held together."""
        with self._lock:
            if point.cached:
                self.cached += 1
            else:
                self.computed += 1
        self.append({
            "event": "lane",
            "index": index,
            "spec": point.spec.name,
            "key": point.key,
            "cached": point.cached,
            "result": point.result.to_dict(),
        })

    def finish(self, receipt: Optional[Dict[str, Any]] = None) -> None:
        """Terminal success: flip the state, then emit ``done`` carrying
        the final counters (read under the lock, appended outside it)
        and, when observability is on, the sweep's receipt."""
        self.set_state("done")
        with self._lock:
            cached, computed = self.cached, self.computed
        event = {"event": "done", "cached": cached,
                 "computed": computed, "total": self.total}
        if receipt is not None:
            event["receipt"] = receipt
        self.append(event)

    def set_state(self, state: str, error: Optional[str] = None) -> None:
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            self.state = state
            self.error = error

    def snapshot(self) -> Dict[str, Any]:
        """The job's summary form (job listings and status polls)."""
        dropped = self.log.dropped
        with self._lock:
            return {
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "total": self.total,
                "landed": self.cached + self.computed,
                "cached": self.cached,
                "computed": self.computed,
                "created": self.created,
                "dropped_events": dropped,
            }


class JobManager:
    """Run jobs against one shared session on a bounded thread pool."""

    def __init__(self, session: Session, workers: int = 2,
                 max_events: int = DEFAULT_MAX_EVENTS):
        if workers < 1:
            raise ValueError("need at least one job worker")
        self.session = session
        self.workers = workers
        self.max_events = max_events
        self._lock = threading.Lock()
        # lint: guarded_by(self._lock: registered/listed from any thread)
        self._jobs: Dict[str, Job] = {}
        # lint: guarded_by(self._lock: appended by workers, oldest evicted)
        self._finished: Deque[str] = deque()
        # lint: guarded_by(self._lock: bumped when a job is forgotten)
        self._forgotten = 0
        # lint: guarded_by(self._lock: forgotten jobs' dropped SSE events)
        self._forgotten_dropped = 0
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="serve-job")

    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[ScenarioSpec],
               options: JobOptions) -> Job:
        """Queue one sweep; returns immediately with the :class:`Job`."""
        if options.defaults:
            specs = [ScenarioSpec(name=spec.name,
                                  overrides={**options.defaults,
                                             **spec.overrides},
                                  seed=spec.seed)
                     for spec in specs]
        job = Job(specs, options, max_events=self.max_events)
        with self._lock:
            self._jobs[job.id] = job
        obs.counter("repro_serve_jobs_total", state="queued").inc()
        self._pool.submit(self._run, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def history(self) -> Tuple[List[Job], int, int]:
        """``(retained jobs, forgotten job count, SSE events dropped by
        forgotten jobs)``: every job since start is either retained or
        forgotten (and forgotten jobs were all finished)."""
        with self._lock:
            return (list(self._jobs.values()), self._forgotten,
                    self._forgotten_dropped)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        job.set_state("running")
        obs.counter("repro_serve_jobs_total", state="running").inc()
        try:
            job.append({"event": "start", "job": job.id, "total": job.total})
            # each job records into its own trace, so the sweep attaches
            # its receipt here rather than to another job's timeline
            with obs.new_trace() as tr:
                self.session.sweep(job.specs, settle=job.options.settle,
                                   trace=job.options.trace,
                                   track_energy=job.options.track_energy,
                                   on_result=job.land)
                receipt = tr.receipt if tr is not None else None
        except Exception:
            err = traceback.format_exc(limit=20)
            job.set_state("failed", error=err)
            obs.counter("repro_serve_jobs_total", state="failed").inc()
            job.append({"event": "failed", "error": err})
        else:
            job.finish(receipt)
            obs.counter("repro_serve_jobs_total", state="done").inc()
        self._forget_old(job)

    def _forget_old(self, finished: Job) -> None:
        """Record ``finished`` and forget the oldest finished jobs past
        :data:`MAX_FINISHED_JOBS` (their followers already hold every
        event; a later lookup answers 404)."""
        with self._lock:
            self._finished.append(finished.id)
            gone = [self._jobs.pop(self._finished.popleft())
                    for _ in range(len(self._finished) - MAX_FINISHED_JOBS)]
            self._forgotten += len(gone)
        if gone:
            dropped = sum(job.log.dropped for job in gone)
            with self._lock:
                self._forgotten_dropped += dropped
