"""serve-mixed: HTTP sweep jobs against a ``python -m repro.serve``
subprocess.

Two client threads each run their own closed loop of
:meth:`ServeClient.run_sweep` calls (submit, then wait for ``done``).
Each client works in rounds of :data:`HOT_PER_COLD` + 1 jobs: one cold
job at a seeded place in the round, the others hot.  A hot job
re-submits the prefilled 20-lane grid (a read: every lane is a cache
hit); a cold job is two lanes with fresh seeds (a write: compute, npz
store, results over SSE), and every other one asks for waveforms
(``trace=True``).  The clients are not coordinated, so a read may run
beside the other client's write and wait for it under the server's
interpreter lock.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from checks import Mismatch, check_identical
from common import (RUN_DIR, ROOT, Job, Ledger, child_env, closed_loop,
                    peak_rss_mb)
from repro import Session
from repro.serve.client import ServeClient
from workloads import cold_specs, grid_specs

#: client request timeout (a job past it fails)
TIMEOUT_S = 30.0
CLIENTS = 2
#: reads per write, per client
HOT_PER_COLD = 7


class ServerProcess:
    """One sweep-server subprocess on a fresh cache directory.

    ``trace_out`` starts it through ``perfbench/serve_traced.py``, which
    installs the benchmark's wrappers on :meth:`enable_tracing` and
    writes what they recorded to ``trace_out`` on shutdown."""

    def __init__(self, cache_dir: Path, trace_out: Optional[Path] = None):
        args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.serve", *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name(
                "serve_traced.py")), "--trace-out", str(trace_out), *args]
        self.log_path = cache_dir.with_suffix(".log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self.wait_line("listening on")
        except BaseException:
            self.stop()
            raise
        self.url = re.search(r"listening on (http://\S+)", line).group(1)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_line(self, needle: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(
                    f"server never printed {needle!r}; log: "
                    f"{self.log_path.read_text()[-2000:]}")
            if needle in line:
                return line

    def enable_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        self.wait_line("tracing on")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ctrl-C the server and wait for it (killed if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()


class ServeMixed:
    """Set-up is boot-to-healthy plus the grid prefill; the loop runs
    :data:`CLIENTS` closed-loop clients."""

    name = "serve-mixed"
    #: rough seconds per job of one client on a 2-core box
    job_estimate_s = 0.06
    #: one round of one client
    round_jobs = HOT_PER_COLD + 1
    #: cold lanes re-run in process by the correctness check
    checked_lanes = 2
    #: boots per run (``setup_s`` is their median)
    setup_runs = 6

    def __init__(self, seed: int, run_dir: Path = RUN_DIR):
        self.seed = seed
        self.run_dir = run_dir / f"serve-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.grid = grid_specs(seed, 0)
        self._boots = 0
        #: the first prefill's lane payloads, in spec order: every hot
        #: job, on whichever boot, must match them bit for bit
        self.prefill: List[Dict[str, Any]] = []

    def boot(self, trace_out: Optional[Path] = None
             ) -> Tuple[ServerProcess, ServeClient]:
        """Start a server on a fresh cache, wait until healthy, prefill
        the grid."""
        self._boots += 1
        server = ServerProcess(self.run_dir / f"cache{self._boots}",
                               trace_out=trace_out)
        try:
            client = ServeClient(server.url, timeout=TIMEOUT_S)
            client.health()
            lanes = client.run_sweep(specs=self.grid)
        except BaseException:
            server.stop()
            raise
        if any(lane["cached"] for lane in lanes):
            server.stop()
            raise RuntimeError("prefill on a fresh cache hit the cache")
        if not self.prefill:
            self.prefill = [lane["result"] for lane in lanes]
        return server, client

    def jobs(self, client: ServeClient, index: int) -> Iterator[Job]:
        """Client ``index``'s closed loop, in whole rounds (a run stops
        only between rounds, so every run has the same job mix)."""
        for k in itertools.count():
            cold_at = random.Random(
                f"mix:{self.seed}:{index}:{k}").randrange(self.round_jobs)
            for j in range(self.round_jobs):
                if j != cold_at:
                    yield Job(f"hot{index}.{k}.{j}", len(self.grid),
                              lambda: (self.grid, False,
                                       client.run_sweep(specs=self.grid)),
                              kind="hot", stop_before=j == 0)
                    continue
                specs = cold_specs(self.seed, index, k)
                traced = k % 2 == 1
                yield Job(f"cold{index}.{k}", len(specs),
                          lambda s=specs, t=traced: (
                              s, t, client.run_sweep(specs=s, trace=t)),
                          kind="cold", stop_before=j == 0)

    def drive(self, client: ServeClient, deadline: Optional[float] = None,
              count: Optional[int] = None) -> Ledger:
        """Run the clients' closed loops concurrently until ``deadline``
        (or ``count`` jobs each, whole rounds); returns the merged
        ledger."""
        ledgers = [Ledger() for _ in range(CLIENTS)]
        start = time.perf_counter()

        def one(index: int) -> None:
            jobs = self.jobs(client, index)
            if count is not None:
                jobs = itertools.islice(
                    jobs, count // self.round_jobs * self.round_jobs)
            ledgers[index] = closed_loop(jobs, deadline=deadline,
                                         start=start)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = Ledger()
        for ledger in ledgers:
            merged.merge(ledger)
        return merged

    def check(self, outputs: List[tuple]) -> None:
        """Hot jobs bit-identical to the prefill; a seeded sample of cold
        lanes bit-identical to an in-process uncached run."""
        cold: List[tuple] = []
        for job, (specs, traced, lanes) in outputs:
            if len(lanes) != len(specs):
                raise Mismatch(job.name, "lanes", len(specs), len(lanes))
            if job.kind == "hot":
                for spec, lane, ref in zip(specs, lanes, self.prefill):
                    if not lane["cached"]:
                        raise Mismatch(spec.name, "cached", True, False)
                    check_identical(spec.name, ref, lane["result"])
            else:
                cold += [(spec, traced, lane)
                         for spec, lane in zip(specs, lanes)]
        session = Session(backend="vector", cache="off")
        rng = random.Random(f"check:{self.seed}")
        for spec, traced, lane in rng.sample(
                cold, min(self.checked_lanes, len(cold))):
            local = session.run(spec, trace=traced).to_dict()
            check_identical(spec.name, json.loads(json.dumps(local)),
                            lane["result"])

    def __enter__(self) -> "ServeMixed":
        return self

    def __exit__(self, *exc) -> None:
        """Remove the run's server caches and logs."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
