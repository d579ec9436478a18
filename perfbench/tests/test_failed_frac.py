"""failed_frac counts HTTP errors, ``failed`` frames and ``truncated``
frames against the jobs attempted, through the real client's
``run_sweep``."""

import urllib.error

from common import Job, closed_loop
from repro.serve.client import ServeClient, ServeError


class ScriptedClient(ServeClient):
    """A client whose server answers from a script, one step per job."""

    STREAMS = {
        "ok": [{"event": "start"}, {"event": "lane", "index": 0},
               {"event": "done"}],
        "failed": [{"event": "start"}, {"event": "failed", "error": "x"}],
        "truncated": [{"event": "truncated", "dropped": 3, "next": 3},
                      {"event": "lane", "index": 0}, {"event": "done"}],
    }

    def __init__(self, script):
        super().__init__("http://127.0.0.1:9", timeout=1.0)
        self.script = iter(script)

    def submit(self, sweep=None, specs=None, payload=None, **options):
        self.step = next(self.script)
        if self.step == "http":
            raise ServeError(503, "job queue full")
        if self.step == "timeout":
            raise urllib.error.URLError("timed out")
        return {"id": self.step}

    def follow(self, job_id):
        yield from (dict(e) for e in self.STREAMS[job_id])


def test_failed_frac_counts_every_kind_of_failure():
    script = ["ok", "http", "failed", "ok", "truncated", "timeout"]
    client = ScriptedClient(script)
    jobs = [Job(f"job{i}", 1, lambda: client.run_sweep(specs=[]))
            for i in range(len(script))]
    ledger = closed_loop(jobs)
    assert ledger.attempted == 6
    assert ledger.failed == 4
    assert ledger.failed_frac == 4 / 6
    assert ledger.lanes == 2
