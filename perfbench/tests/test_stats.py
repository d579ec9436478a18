"""The percentile rule and the run's job ledger."""

import pytest

from common import (FAILED_LATENCY_MS, Job, closed_loop, percentile,
                    tail_supported)


@pytest.mark.parametrize("n,q,supported", [
    (99, 90, False), (100, 90, True), (250, 90, True),
    (19, 50, False), (20, 50, True),
    (999, 99, False), (1000, 99, True),
])
def test_tail_needs_ten_samples_beyond_it(n, q, supported):
    assert tail_supported(n, q) is supported


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 101)]   # 1..100, shuffled below
    values = values[::2] + values[1::2]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([], 50) == 0.0


def test_closed_loop_stops_only_between_whole_groups():
    t = [0.0]

    def clock():
        return t[0]

    def work():
        t[0] += 1.0

    # groups of three jobs; the deadline passes inside the second group
    jobs = (Job(f"j{i}", 2, work, stop_before=i % 3 == 0)
            for i in range(30))
    ledger = closed_loop(jobs, deadline=4.5, clock=clock)
    assert ledger.attempted == 6
    assert ledger.lanes == 12
    assert ledger.latencies_ms == [1000.0] * 6
    assert ledger.lanes_per_s == pytest.approx(2.0)


def test_a_job_that_raises_is_failed_and_misses_every_limit():
    def boom():
        raise RuntimeError("no")

    jobs = [Job("ok", 1, lambda: None), Job("bad", 1, boom)]
    ledger = closed_loop(jobs)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_frac == 0.5
    assert ledger.lanes == 1
    assert max(ledger.latencies_ms) == FAILED_LATENCY_MS
