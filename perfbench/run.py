"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program at its
defaults; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``perfbench/NOTES.md``).  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable table and the run
record (machine fingerprint, seed, sample counts), which is also
appended to ``.bench_run/records.jsonl``.  Exit code 1 means a
correctness check failed (it names the lane and field), 2 that the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

from checks import Mismatch
from common import (RUN_DIR, SRC, child_env, closed_loop, fingerprint,
                    peak_rss_mb, percentile, setup_samples, tail_supported)
from layers import (PER_LAYER, batch_run_coverage, install_client,
                    install_program, layer_metrics)
from tracer import Tracer, chrome_trace, merge_snapshots

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = [("setup_s", "s"), ("lanes_per_s", "1/s"),
              ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("peak_rss_mb", "MB")]


def _workload(name: str, seed: int):
    # imported here: both need the program, found only once main() has
    # checked for src/ and put it on the path
    from serve_mixed import ServeMixed
    from workloads import GridSweep, SoloLanes

    return {"grid-sweep": GridSweep, "solo-lanes": SoloLanes,
            "serve-mixed": ServeMixed}[name](seed)


def _probe_argv(args) -> list:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"]


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics
# ---------------------------------------------------------------------------
def _split(runs: int) -> tuple:
    """Set-ups before and after the timed window.  Half of them come
    after it, so a run's set-up samples are tens of seconds apart and
    their median does not follow one slow spell of the machine."""
    return (runs + 1) // 2, runs // 2


def measure_inprocess(args) -> tuple:
    wl = _workload(args.workload, args.seed)
    before, after = _split(wl.setup_runs)
    setups = setup_samples(_probe_argv(args), before, env=child_env())
    wl.warm_up()
    t0 = time.perf_counter()
    ledger = closed_loop(wl.jobs(), deadline=t0 + args.seconds, start=t0)
    rss = peak_rss_mb()
    setups += setup_samples(_probe_argv(args), after, env=child_env())
    return wl, setups, ledger, rss


def measure_serve(args) -> tuple:
    setups, server = [], None

    def boot():
        nonlocal server
        if server is not None:
            server.stop()
            server = None
        t0 = time.perf_counter()
        server, client = wl.boot()
        setups.append(time.perf_counter() - t0)
        return client

    with _workload(args.workload, args.seed) as wl:
        before, after = _split(wl.setup_runs)
        try:
            for _ in range(before):
                client = boot()
            t0 = time.perf_counter()
            ledger = wl.drive(client, deadline=t0 + args.seconds)
            rss = server.peak_rss_mb()
            for _ in range(after):
                boot()
        finally:
            if server is not None:
                server.stop()
    return wl, setups, ledger, rss


# ---------------------------------------------------------------------------
# traced: per-layer metrics
# ---------------------------------------------------------------------------
def _job_count(wl, seconds: float) -> int:
    """Jobs per pass of the traced run: a fixed count (whole rounds),
    so its work counters repeat exactly for a seed; sized so the
    untraced and traced passes together take about ``seconds``."""
    rounds = max(1, round(seconds / 3 / wl.job_estimate_s / wl.round_jobs))
    return rounds * wl.round_jobs


def trace_inprocess(args) -> tuple:
    wl = _workload(args.workload, args.seed)
    wl.warm_up()
    n = _job_count(wl, args.seconds)
    plain = closed_loop(itertools.islice(wl.jobs(), n))
    tracer = Tracer()
    install_program(tracer)
    try:
        traced = closed_loop(itertools.islice(wl.jobs(), n))
    finally:
        tracer.uninstall()
    return wl, plain, traced, [tracer.snapshot()]


def trace_serve(args) -> tuple:
    with _workload(args.workload, args.seed) as wl:
        n = _job_count(wl, args.seconds)
        server, client = wl.boot()
        try:
            plain = wl.drive(client, count=n)
        finally:
            server.stop()
        dump = wl.run_dir / "server-trace.json"
        server, client = wl.boot(trace_out=dump)
        tracer = Tracer()
        try:
            server.enable_tracing()
            install_client(tracer)
            try:
                traced = wl.drive(client, count=n)
            finally:
                tracer.uninstall()
        finally:
            server.stop()
        server_snapshot = json.loads(dump.read_text())
    return wl, plain, traced, [server_snapshot, tracer.snapshot()]


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-sweep", "solo-lanes", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # the program at its defaults: no REPRO_* overrides (obs stays on)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _workload(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0

    machine = fingerprint()

    RUN_DIR.mkdir(exist_ok=True)
    serve = args.workload == "serve-mixed"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine}
    if args.trace:
        wl, plain, ledger, snaps = (trace_serve if serve
                                    else trace_inprocess)(args)
        merged = merge_snapshots(snaps)
        values = layer_metrics(merged, ledger.lanes_per_s
                               / plain.lanes_per_s if plain.lanes else 0.0)
        units = {name: unit for name, unit, _ in PER_LAYER}
        trace_path = RUN_DIR / (f"trace-{args.workload}-seed{args.seed}"
                                f"-{os.getpid()}.json")
        trace_path.write_text(json.dumps(
            {"traceEvents": chrome_trace(snaps)}))
        record["chrome_trace"] = str(trace_path.relative_to(RUN_DIR.parent))
        record["batch_run_coverage"] = batch_run_coverage(merged)
        record["untraced_lanes_per_s"] = plain.lanes_per_s
    else:
        wl, setups, ledger, rss = (measure_serve if serve
                                   else measure_inprocess)(args)
        lat = ledger.latencies_ms
        values = {"setup_s": statistics.median(setups),
                  "lanes_per_s": ledger.lanes_per_s,
                  "job_p50_ms": percentile(lat, 50),
                  "job_p90_ms": percentile(lat, 90),
                  "peak_rss_mb": rss}
        units = dict(END_TO_END)
        record["setup_samples_s"] = setups
        record["p90_supported"] = tail_supported(len(lat), 90)
    record["samples"] = {"jobs": ledger.attempted,
                         "per_kind": {k: ledger.kinds.count(k)
                                      for k in sorted(set(ledger.kinds))},
                         "lanes": ledger.lanes}
    record["failed_frac"] = ledger.failed_frac

    correct = True
    try:
        wl.check(ledger.outputs)
    except Mismatch as exc:
        correct = False
        print(f"correctness mismatch: {exc}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={ledger.attempted} lanes={ledger.lanes}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<44} {ledger.failed_frac:>14.6g} 1")
    record["metrics"] = values
    print("record: " + json.dumps(record, sort_keys=True))
    with open(RUN_DIR / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
