"""Shared pieces of the workloads: closed-loop runner, job ledger,
percentiles, set-up timing and the run record's machine fingerprint."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working space inside the repository (server caches, traces, records)
RUN_DIR = ROOT / ".bench_run"

#: latency charged to a failed job: it missed every latency limit
FAILED_LATENCY_MS = 30_000.0


@dataclass
class Job:
    """One closed-loop operation: ``fn()`` runs it and returns what the
    correctness checks need; ``lanes`` is how many lanes it lands."""

    name: str
    lanes: int
    fn: Callable[[], Any]
    kind: str = "job"
    #: whether the loop may stop before this job (False keeps a group
    #: of jobs whole, so every run has the same job mix)
    stop_before: bool = True


@dataclass
class Ledger:
    """What a closed loop did: per-job latency, lanes, failures."""

    latencies_ms: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    lanes: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: (job, output) of every job that returned
    outputs: List[tuple] = field(default_factory=list)

    def merge(self, other: "Ledger") -> None:
        self.latencies_ms += other.latencies_ms
        self.kinds += other.kinds
        self.lanes += other.lanes
        self.attempted += other.attempted
        self.failed += other.failed
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)
        self.outputs += other.outputs

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def lanes_per_s(self) -> float:
        return self.lanes / self.elapsed_s if self.elapsed_s else 0.0


def closed_loop(jobs: Iterable[Job], deadline: Optional[float] = None,
                clock: Callable[[], float] = time.perf_counter,
                start: Optional[float] = None) -> Ledger:
    """Run ``jobs`` one after another — each only after the previous
    one returned — until ``deadline`` (a ``clock`` reading) has passed
    or the jobs run out.  A job that raises is counted as failed and
    charged :data:`FAILED_LATENCY_MS`; the loop goes on."""
    ledger = Ledger()
    t_start = clock() if start is None else start
    for job in jobs:
        if (job.stop_before and deadline is not None
                and clock() >= deadline):
            break
        ledger.attempted += 1
        t0 = clock()
        try:
            out = job.fn()
        except Exception:  # keep the loop alive; the failure is counted
            ledger.failed += 1
            ledger.latencies_ms.append(FAILED_LATENCY_MS)
            ledger.kinds.append(job.kind)
            if ledger.failed <= 3:
                print(f"job {job.name} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            continue
        ledger.latencies_ms.append((clock() - t0) * 1e3)
        ledger.kinds.append(job.kind)
        ledger.lanes += job.lanes
        ledger.outputs.append((job, out))
    ledger.elapsed_s = clock() - t_start
    return ledger


def child_env() -> Dict[str, str]:
    """The environment users run the program in: its defaults (no
    ``REPRO_*`` overrides, so obs stays on), ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_supported(n: int, q: int) -> bool:
    """Whether ``n`` samples leave at least ten beyond the ``q``-th
    percentile (integer ``q``): p90 needs 100 samples, p99 1000."""
    return n * (100 - q) >= 1000


def setup_samples(argv: List[str], count: int,
                  env: Optional[Dict[str, str]] = None) -> List[float]:
    """Start ``argv`` ``count`` times; each time measure from process
    start until it prints ``ready``, then wait for it to exit."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, env=env)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {argv} exited {code}")
        times.append(elapsed)
    return times


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def fingerprint() -> Dict[str, Any]:
    """Machine fingerprint stored with every run record."""
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "loadavg_start": list(os.getloadavg()),
    }
