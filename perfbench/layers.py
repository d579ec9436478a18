"""Which public entry points the traced run wraps, and the per-layer
metrics computed from what the wrappers recorded.

:func:`install_program` instruments the layers that run wherever the
simulation runs (the bench process, or the ``serve-mixed`` server
subprocess through ``perfbench/serve_traced.py``);
:func:`install_client` instruments the HTTP client side.  Both go
through a :class:`~tracer.Tracer`, so :meth:`Tracer.uninstall` puts the
program back exactly as it was.

Timing names ending in ``_self_s`` and ``sim.core.run_until_s`` are self
time (busy time minus the wrapped calls nested inside); every other
``_s`` metric is busy time.  Leaves (``step``, ``sample``, cache I/O,
serialization) have no wrapped children, so for them the two agree.
"""

from __future__ import annotations

import statistics
import threading
from typing import Any, Dict, List, Optional, Tuple

from tracer import CountingHeapq, Tracer

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.core.run_until_s", "s", "lower"),
    ("sim.core.run_until_calls", "count", "lower"),
    ("sim.core.schedule_calls", "count", "lower"),
    ("sim.core.events_delivered", "count", "lower"),
    ("sim.core.us_per_event", "us", "lower"),
    ("control.clock_edges_simulated", "count", "lower"),
    ("control.clock_edges_skipped", "count", "higher"),
    ("scenarios.vector_solver.advance_to_self_s", "s", "lower"),
    ("scenarios.vector_solver.heap_pushes", "count", "lower"),
    ("scenarios.vector_solver.heap_pops", "count", "lower"),
    ("scenarios.vector_solver.heap_pops_per_event", "1", "lower"),
    ("scenarios.vector_solver.sample_s", "s", "lower"),
    ("scenarios.vector_solver.sample_calls", "count", "lower"),
    ("scenarios.vector_stage.step_s", "s", "lower"),
    ("scenarios.vector_stage.step_calls", "count", "lower"),
    ("scenarios.vector_stage.us_per_step", "us", "lower"),
    ("scenarios.vector_stage.solver_ticks", "count", "lower"),
    ("scenarios.engine.batch_build_s", "s", "lower"),
    ("scenarios.engine.batch_run_s", "s", "lower"),
    ("scenarios.engine.batches", "count", "lower"),
    ("scenarios.engine.lanes_per_batch", "count", "higher"),
    ("system.measure_s", "s", "lower"),
    ("analog.buck.step_s", "s", "lower"),
    ("analog.buck.step_calls", "count", "lower"),
    ("session.sweep_self_s", "s", "lower"),
    ("session.sweeps", "count", "lower"),
    ("session.cache.load_s", "s", "lower"),
    ("session.cache.load_calls", "count", "lower"),
    ("session.cache.hit_ratio", "1", "higher"),
    ("session.cache.store_s", "s", "lower"),
    ("session.cache.store_calls", "count", "lower"),
    ("session.cache.bytes_written", "B", "lower"),
    ("session.cache.key_s", "s", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.stream_ms", "ms", "lower"),
    ("serve.sse_events", "count", "lower"),
    ("serve.protocol.decode_job_s", "s", "lower"),
    ("serve.sse.format_event_s", "s", "lower"),
    ("trace.to_jsonable_s", "s", "lower"),
    ("trace.to_jsonable_calls", "count", "lower"),
    ("obs.span_calls", "count", "lower"),
    ("obs.write_receipt_s", "s", "lower"),
    ("tracing_overhead", "1", "higher"),
]


# ---------------------------------------------------------------------------
# Counts read off returned RunResults
# ---------------------------------------------------------------------------
def _fold_results(tracer: Tracer, results, path: str) -> None:
    for r in results:
        tracer.count("events_delivered", r.events_delivered)
        tracer.count(path + ".events_delivered", r.events_delivered)
        tracer.count(path + ".solver_ticks", r.solver_ticks)
        tracer.count("clock_edges_simulated", r.clock_edges_simulated)
        tracer.count("clock_edges_skipped", r.clock_edges_skipped)


def _after_batch_run(tracer: Tracer, args: tuple, results) -> None:
    tracer.count("lanes_in_batches", len(results))
    _fold_results(tracer, results, "vector")


def _after_measure(tracer: Tracer, args: tuple, result) -> None:
    _fold_results(tracer, [result], "scalar")


def _after_load(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:
        tracer.count("cache_hits")


def _after_store(tracer: Tracer, args: tuple, stored: bool) -> None:
    cache, key = args[0], args[1]
    if stored:
        tracer.count("cache_bytes_written",
                     sum(p.stat().st_size for p in cache._paths(key)))


# ---------------------------------------------------------------------------
def install_program(tracer: Tracer) -> None:
    """Wrap the simulation-side layers (kernel through serve server)."""
    from repro import obs, system
    from repro.analog import buck
    from repro.scenarios import engine, vector_solver, vector_stage
    from repro.serve import jobs, server
    from repro.session import cache, session
    from repro.sim import core
    from repro.trace import traceset

    tracer.wrap(core.Simulator, "run_until", "run_until")
    tracer.patch(core.Simulator, "schedule",
                 tracer.counted("schedule", core.Simulator.schedule))
    tracer.wrap(vector_solver.VectorizedSolver, "advance_to", "advance_to",
                span=True)
    tracer.wrap(vector_solver.VectorComparatorBank, "sample", "sample")
    tracer.patch(vector_solver, "heapq", CountingHeapq(tracer))
    tracer.wrap(vector_stage.VectorizedPowerStage, "step", "vector_step")
    tracer.wrap(engine.VectorBatch, "__init__", "batch_build", span=True)
    tracer.wrap(engine.VectorBatch, "run", "batch_run", span=True,
                after=_after_batch_run)
    tracer.wrap(system.BuckSystem, "measure", "measure", span=True,
                after=_after_measure)
    tracer.wrap(buck.MultiphasePowerStage, "step", "buck_step")
    tracer.wrap(session.Session, "sweep", "sweep", span=True)
    tracer.wrap(session, "cache_key", "cache_key")
    tracer.wrap(cache.ResultCache, "load", "cache_load", span=True,
                after=_after_load)
    tracer.wrap(cache.ResultCache, "store", "cache_store", span=True,
                after=_after_store)
    tracer.wrap(server, "decode_job", "decode_job", span=True)
    tracer.wrap(server, "format_event", "format_event")
    tracer.wrap(traceset.TraceSet, "to_jsonable", "to_jsonable", span=True)
    tracer.patch(obs, "span", tracer.counted("obs_span", obs.span))
    tracer.wrap(obs, "write_receipt", "write_receipt", span=True)

    timed_run = tracer.timed("serve_job", jobs.JobManager._run, span=True)

    def _run(manager, job):
        tracer.set_job(job.id)
        try:
            return timed_run(manager, job)
        finally:
            tracer.set_job(None)

    tracer.patch(jobs.JobManager, "_run", _run)


def install_client(tracer: Tracer) -> None:
    """Time each job's POST, its wait for ``start`` and its stream to
    ``done`` as the sweep client sees them."""
    from repro.serve.client import ServeClient

    clock = tracer.clock
    submitted = threading.local()
    submit, follow = ServeClient.submit, ServeClient.follow

    def _submit(client, *args, **kwargs):
        t0 = clock()
        snapshot = submit(client, *args, **kwargs)
        submitted.at = clock()
        tracer.sample("submit_ms", (submitted.at - t0) * 1e3)
        tracer.set_job(snapshot["id"])
        return snapshot

    def _follow(client, job_id):
        started = None
        for event in follow(client, job_id):
            now = clock()
            tracer.count("sse_events")
            kind = event.get("event")
            if kind == "start":
                started = now
                tracer.sample("queue_wait_ms", (now - submitted.at) * 1e3)
            elif kind in ("done", "failed") and started is not None:
                tracer.sample("stream_ms", (now - started) * 1e3)
            yield event

    tracer.patch(ServeClient, "submit", _submit)
    tracer.patch(ServeClient, "follow", _follow)
    tracer.wrap(ServeClient, "run_sweep", "client_job", span=True)


# ---------------------------------------------------------------------------
def layer_metrics(merged: Dict[str, Any], overhead: float
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged tracer snapshots.
    Layers a workload never reaches read 0."""
    stats, counts, samples = (merged["stats"], merged["counts"],
                              merged["samples"])

    def calls(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def busy(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def median(name: str) -> float:
        values = samples.get(name)
        return statistics.median(values) if values else 0.0

    events = counts.get("events_delivered", 0)
    vector_events = counts.get("vector.events_delivered", 0)
    return {
        "sim.core.run_until_s": self_s("run_until"),
        "sim.core.run_until_calls": calls("run_until"),
        "sim.core.schedule_calls": counts.get("schedule", 0),
        "sim.core.events_delivered": events,
        "sim.core.us_per_event": ratio(self_s("run_until") * 1e6, events),
        "control.clock_edges_simulated":
            counts.get("clock_edges_simulated", 0),
        "control.clock_edges_skipped": counts.get("clock_edges_skipped", 0),
        "scenarios.vector_solver.advance_to_self_s": self_s("advance_to"),
        "scenarios.vector_solver.heap_pushes": counts.get("heap_pushes", 0),
        "scenarios.vector_solver.heap_pops": counts.get("heap_pops", 0),
        "scenarios.vector_solver.heap_pops_per_event":
            ratio(counts.get("heap_pops", 0), vector_events),
        "scenarios.vector_solver.sample_s": busy("sample"),
        "scenarios.vector_solver.sample_calls": calls("sample"),
        "scenarios.vector_stage.step_s": busy("vector_step"),
        "scenarios.vector_stage.step_calls": calls("vector_step"),
        "scenarios.vector_stage.us_per_step":
            ratio(busy("vector_step") * 1e6, calls("vector_step")),
        "scenarios.vector_stage.solver_ticks":
            counts.get("vector.solver_ticks", 0),
        "scenarios.engine.batch_build_s": busy("batch_build"),
        "scenarios.engine.batch_run_s": busy("batch_run"),
        "scenarios.engine.batches": calls("batch_run"),
        "scenarios.engine.lanes_per_batch":
            ratio(counts.get("lanes_in_batches", 0), calls("batch_run")),
        "system.measure_s": busy("measure"),
        "analog.buck.step_s": busy("buck_step"),
        "analog.buck.step_calls": calls("buck_step"),
        "session.sweep_self_s": self_s("sweep"),
        "session.sweeps": calls("sweep"),
        "session.cache.load_s": busy("cache_load"),
        "session.cache.load_calls": calls("cache_load"),
        "session.cache.hit_ratio":
            ratio(counts.get("cache_hits", 0), calls("cache_load")),
        "session.cache.store_s": busy("cache_store"),
        "session.cache.store_calls": calls("cache_store"),
        "session.cache.bytes_written": counts.get("cache_bytes_written", 0),
        "session.cache.key_s": busy("cache_key"),
        "serve.submit_ms": median("submit_ms"),
        "serve.queue_wait_ms": median("queue_wait_ms"),
        "serve.stream_ms": median("stream_ms"),
        "serve.sse_events": counts.get("sse_events", 0),
        "serve.protocol.decode_job_s": busy("decode_job"),
        "serve.sse.format_event_s": busy("format_event"),
        "trace.to_jsonable_s": busy("to_jsonable"),
        "trace.to_jsonable_calls": calls("to_jsonable"),
        "obs.span_calls": counts.get("obs_span", 0),
        "obs.write_receipt_s": busy("write_receipt"),
        "tracing_overhead": overhead,
    }


def batch_run_coverage(merged: Dict[str, Any]) -> Optional[float]:
    """Share of ``VectorBatch.run`` busy time covered by the self times
    of ``advance_to``, ``run_until``, ``step`` and ``sample``; ``None``
    when the scalar path also ran (its ``run_until`` is not inside a
    batch)."""
    stats = merged["stats"]
    if "measure" in stats:
        return None
    covered = sum(stats.get(n, (0, 0.0, 0.0))[2]
                  for n in ("advance_to", "run_until", "vector_step",
                            "sample"))
    run = stats.get("batch_run", (0, 0.0, 0.0))[1]
    return covered / run if run else None
