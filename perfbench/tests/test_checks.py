"""The correctness checks reject doctored results, naming lane and
field."""

import dataclasses

import pytest

from checks import Mismatch, check_backends, check_identical
from common import Job
from repro import Session
from workloads import GridSweep, grid_specs


@pytest.fixture(scope="module")
def lane():
    spec = grid_specs(7, 0)[0]
    spec.overrides["sim_time"] = 0.5e-6
    return spec, Session(backend="vector", cache="off").run(spec)


def test_a_matching_result_passes(lane):
    spec, result = lane
    scalar = Session(backend="scalar", cache="off").run(spec)
    check_backends(spec.name, scalar, result)
    check_identical(spec.name, result.to_dict(), result.to_dict())


@pytest.mark.parametrize("field,value", [
    ("v_final", lambda r: r.v_final + 1e-6),
    ("coil_loss_w", lambda r: r.coil_loss_w * (1 + 1e-6)),
    ("cycles", lambda r: r.cycles[:-1] + [r.cycles[-1] + 1]),
    ("ov_events", lambda r: r.ov_events + 1),
])
def test_a_doctored_result_is_rejected(lane, field, value):
    spec, result = lane
    doctored = dataclasses.replace(result, **{field: value(result)})
    with pytest.raises(Mismatch) as err:
        check_backends(spec.name, result, doctored)
    assert (err.value.lane, err.value.field) == (spec.name, field)
    with pytest.raises(Mismatch) as err:
        check_identical(spec.name, result.to_dict(), doctored.to_dict())
    assert err.value.field == field


@pytest.mark.parametrize("field", [
    "solver_ticks", "clock_edges_simulated", "clock_edges_skipped"])
def test_kernel_counters_are_not_compared_across_backends(lane, field):
    spec, result = lane
    moved = dataclasses.replace(result, **{field: getattr(result, field) + 1})
    check_backends(spec.name, result, moved)


def test_noise_below_the_tolerance_passes(lane):
    spec, result = lane
    nudged = dataclasses.replace(result, v_final=result.v_final + 1e-12)
    check_backends(spec.name, result, nudged)


def test_grid_sweep_check_rejects_a_doctored_lane(lane):
    spec, result = lane
    doctored = dataclasses.replace(result, peak_coil_current=0.0)
    with pytest.raises(Mismatch) as err:
        GridSweep(7).check([(Job("sweep0", 1, None),
                             ([spec], [doctored]))])
    assert (err.value.lane, err.value.field) == (spec.name,
                                                 "peak_coil_current")
