"""The traced run's layer wrappers: complete, exact, removable."""

import heapq

from layers import PER_LAYER, batch_run_coverage, install_program, \
    layer_metrics
from repro import Session
from repro.scenarios import vector_solver
from repro.session.session import Session as SessionClass
from tracer import Tracer, merge_snapshots
from workloads import grid_specs


def _traced_sweep(specs):
    tracer = Tracer()
    install_program(tracer)
    try:
        Session(backend="vector", cache="off").sweep(specs)
    finally:
        tracer.uninstall()
    return merge_snapshots([tracer.snapshot()])


def test_uninstall_puts_the_program_back():
    sweep = SessionClass.__dict__["sweep"]
    tracer = Tracer()
    install_program(tracer)
    assert SessionClass.__dict__["sweep"] is not sweep
    tracer.uninstall()
    assert SessionClass.__dict__["sweep"] is sweep
    assert vector_solver.heapq is heapq


def test_work_counters_repeat_exactly_and_cover_every_metric():
    specs = grid_specs(3, 0)[::5]
    for spec in specs:
        spec.overrides["sim_time"] = 0.3e-6
    first, second = _traced_sweep(specs), _traced_sweep(specs)
    assert first["counts"] == second["counts"]
    assert first["counts"]["heap_pops"] > 0
    metrics = layer_metrics(first, overhead=1.0)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["scenarios.engine.lanes_per_batch"] == len(specs)
    assert batch_run_coverage(first) > 0.9
