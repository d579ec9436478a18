"""A long-running server forgets old finished jobs.

Every job keeps its specs and its whole event log (lane results, traced
waveforms, the receipt), so keeping all of them made the server's
memory grow with every job it ever ran.  Only the last
``MAX_FINISHED_JOBS`` finished jobs are kept; ``/v1/stats`` still
counts every job since start.
"""

import time

import pytest

from repro.scenarios import ScenarioSpec
from repro.serve import ServeClient, ServeError, SweepServer
from repro.serve import jobs as jobs_module
from repro.session import Session
from repro.sim import NS, US


def _spec(i):
    return ScenarioSpec(f"tiny{i}", {"n_phases": 1, "r_load": 6.0,
                                     "sim_time": 0.2 * US, "dt": 1 * NS,
                                     "seed": i})


def test_only_the_last_finished_jobs_are_kept(monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
    with SweepServer(session=Session(cache="off"), job_workers=1) as srv:
        client = ServeClient(srv.url)
        ids = []
        for i in range(5):
            snapshot = client.submit(specs=[_spec(i)])
            assert len(client.wait(snapshot["id"])) == 1
            ids.append(snapshot["id"])
        deadline = time.monotonic() + 10
        while len(srv.manager.jobs()) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [job["id"] for job in client.jobs()] == ids[-2:]
        with pytest.raises(ServeError) as err:
            client.job(ids[0])
        assert err.value.code == 404
        assert client.job(ids[-1])["state"] == "done"
        stats = client.stats()["jobs"]
        assert (stats["total"], stats["finished"]) == (5, 5)
        assert stats["dropped_events"] == 0
        assert client.health()["jobs"] == 5
