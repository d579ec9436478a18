"""Self time, spans, patching and heap counting of the traced run."""

import threading

import pytest

from tracer import CountingHeapq, Tracer, chrome_trace, merge_snapshots


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(d):
        clock.t += d

    leaf = tracer.timed("leaf", leaf)

    def mid():
        clock.t += 1
        leaf(2)            # nested child
        clock.t += 1

    mid = tracer.timed("mid", mid, span=True)

    def outer():
        clock.t += 1
        mid()              # sibling 1 (itself holding a nested child)
        clock.t += 3
        leaf(4)            # sibling 2
    outer = tracer.timed("outer", outer, span=True)
    return tracer, outer


def test_self_time_excludes_nested_and_sibling_children(traced):
    tracer, outer = traced
    tracer.set_job("job-1")
    outer()
    stats = tracer.snapshot()["stats"]
    assert stats["leaf"] == [2, 6.0, 6.0]
    assert stats["mid"] == [1, 4.0, 2.0]
    assert stats["outer"] == [1, 12.0, 4.0]


def test_spans_keep_parent_and_job(traced):
    tracer, outer = traced
    tracer.set_job("job-1")
    outer()
    spans = {s[0]: s for s in tracer.snapshot()["spans"]}
    assert set(spans) == {"outer", "mid"}    # leaf only aggregates
    name, t0, t1, sid, parent, job, tid = spans["mid"]
    assert (t0, t1, job) == (1.0, 5.0, "job-1")
    assert parent == spans["outer"][3]
    assert spans["outer"][4] is None
    events = chrome_trace([tracer.snapshot()])
    assert [e["name"] for e in events] == ["outer", "mid"]
    assert events[1]["dur"] == pytest.approx(4e6)


def test_threads_are_kept_apart_and_merged():
    tracer = Tracer()
    work = tracer.timed("work", lambda: None)
    threads = [threading.Thread(target=lambda: [work() for _ in range(50)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    snap = tracer.snapshot()
    assert snap["stats"]["work"][0] == 200
    merged = merge_snapshots([snap, snap])
    assert merged["stats"]["work"][0] == 400


def test_uninstall_restores_the_program():
    class Target:
        def run(self):
            return 1

    original = Target.__dict__["run"]
    tracer = Tracer()
    tracer.wrap(Target, "run", "run")
    assert Target().run() == 1
    assert Target.__dict__["run"] is not original
    tracer.uninstall()
    assert Target.__dict__["run"] is original
    assert tracer.snapshot()["stats"]["run"][0] == 1


def test_counting_heapq_counts_pushes_and_pops():
    tracer = Tracer()
    hq = CountingHeapq(tracer)
    heap = []
    for v in (3, 1, 2):
        hq.heappush(heap, v)
    assert hq.heappop(heap) == 1
    assert hq.nsmallest(1, heap) == [2]     # untouched functions pass through
    assert tracer.snapshot()["counts"] == {"heap_pushes": 3, "heap_pops": 1}
