"""``python -m repro.serve`` with the benchmark's layer wrappers.

    python perfbench/serve_traced.py --trace-out PATH [repro.serve args]

Runs the stock server entry point unchanged.  On SIGUSR1 it installs
the wrappers of :func:`layers.install_program` and prints ``tracing
on``; when the server shuts down (SIGINT) it writes the recorded stats,
counts and spans to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import install_program  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True, type=Path)
    args, serve_args = parser.parse_known_args()

    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()

    def _enable(signum, frame) -> None:
        install_program(tracer)
        print("tracing on", flush=True)

    signal.signal(signal.SIGUSR1, _enable)
    try:
        return serve_main(serve_args)
    finally:
        tracer.uninstall()
        args.trace_out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
