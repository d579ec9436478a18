"""The sweep server: ``Session`` behind a small stdlib HTTP API.

Routes (all JSON; every route except ``/v1/health`` requires an API key
when keys are configured — see :mod:`repro.serve.auth`):

========================  ===================================================
``GET  /v1/health``       liveness probe (unauthenticated)
``POST /v1/jobs``         submit a sweep (:mod:`repro.serve.protocol` forms);
                          ``202`` with the job snapshot
``GET  /v1/jobs``         list job snapshots (running jobs and the last
                          ``MAX_FINISHED_JOBS`` finished ones)
``GET  /v1/jobs/<id>``    one job snapshot (404 once forgotten)
``GET  /v1/jobs/<id>/events``  SSE stream: event replay (prefixed by an
                          explicit ``truncated`` marker when the bounded
                          log already evicted early events), then live
                          per-lane events until the terminal ``done`` /
                          ``failed`` frame
``GET  /v1/results/<key>``     any cached result by content key, zero
                          recompute (``?trace=1`` to require waveforms);
                          ``404`` when absent
``GET  /v1/stats``        session cache/sweep aggregates + job totals
``GET  /v1/metrics``      Prometheus text exposition of the obs registry
========================  ===================================================

Concurrency model: :class:`~http.server.ThreadingHTTPServer` gives every
request its own thread; submissions enqueue onto the
:class:`~repro.serve.jobs.JobManager` pool; all jobs share ONE
:class:`~repro.session.Session`, whose concurrent-safe cache and
in-flight registry guarantee each unique uncached config is simulated
exactly once across overlapping jobs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..session import Session
from .auth import ApiKeyAuth
from .jobs import TERMINAL_EVENTS, JobManager
from .protocol import ProtocolError, decode_job
from .sse import format_event


#: largest ``POST /v1/jobs`` body the server reads (413 above it, before
#: reading anything)
MAX_BODY_BYTES = 8 * 1024 * 1024


def _route_family(path: str) -> str:
    """Collapse per-job/per-key paths into bounded label values, so the
    request counter cannot grow a series per job id."""
    if path.startswith("/v1/jobs/"):
        return ("/v1/jobs/<id>/events" if path.endswith("/events")
                else "/v1/jobs/<id>")
    if path.startswith("/v1/results/"):
        return "/v1/results/<key>"
    if path in ("/v1/health", "/v1/jobs", "/v1/stats", "/v1/metrics"):
        return path
    return "other"


class _Handler(BaseHTTPRequestHandler):
    """One request; state lives on ``self.server`` (:class:`_HTTPServer`)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _json(self, code: int, payload: Any, close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # also sets close_connection: the server hangs up after this
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, close: bool = False) -> None:
        self._json(code, {"error": message}, close=close)

    def _authorized(self) -> bool:
        if self.server.auth.authorize(self.headers):  # type: ignore
            return True
        self._error(401, "missing or invalid API key")
        return False

    def _route(self) -> Tuple[str, dict]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", parse_qs(parts.query)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path, query = self._route()
        manager: JobManager = self.server.manager  # type: ignore
        obs.counter("repro_serve_requests_total",
                    route=_route_family(path)).inc()
        if path == "/v1/health":
            jobs, forgotten, _ = manager.history()
            self._json(200, {"ok": True,
                             "open": self.server.auth.open,  # type: ignore
                             "jobs": len(jobs) + forgotten})
            return
        if not self._authorized():
            return
        if path == "/v1/metrics":
            body = obs.prometheus_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/v1/stats":
            stats = manager.session.cache_stats()
            jobs, forgotten, forgotten_dropped = manager.history()
            stats["jobs"] = {
                "total": len(jobs) + forgotten,
                "finished": sum(1 for j in jobs if j.finished) + forgotten,
                "dropped_events": (sum(j.log.dropped for j in jobs)
                                   + forgotten_dropped),
            }
            self._json(200, stats)
            return
        if path == "/v1/jobs":
            self._json(200, {"jobs": [job.snapshot()
                                      for job in manager.jobs()]})
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                self._stream_events(rest[:-len("/events")].rstrip("/"))
                return
            job = manager.get(rest)
            if job is None:
                self._error(404, f"no such job {rest!r}")
                return
            self._json(200, job.snapshot())
            return
        if path.startswith("/v1/results/"):
            self._fetch_result(path[len("/v1/results/"):], query)
            return
        self._error(404, f"no such route {path!r}")

    def do_POST(self) -> None:  # noqa: N802
        path, _ = self._route()
        obs.counter("repro_serve_requests_total",
                    route=_route_family(path)).inc()
        if not self._authorized():
            return
        if path != "/v1/jobs":
            self._error(404, f"no such route {path!r}")
            return
        length = self._body_length()
        if length is None:
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError):
            self._error(400, "request body is not valid JSON")
            return
        try:
            specs, options = decode_job(payload)
        except ProtocolError as exc:
            self._error(400, str(exc))
            return
        job = self.server.manager.submit(specs, options)  # type: ignore
        self._json(202, job.snapshot())

    def _body_length(self) -> Optional[int]:
        """The declared body length, or None after answering 400 (not a
        non-negative integer) or 413 (over :data:`MAX_BODY_BYTES`).  A
        rejected body is never read, so the connection closes after the
        error instead of parsing the body as the next request."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, f"invalid Content-Length {raw!r}", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body of {length} bytes exceeds "
                             f"the {MAX_BODY_BYTES}-byte limit", close=True)
            return None
        return length

    # ------------------------------------------------------------------
    def _fetch_result(self, key: str, query: dict) -> None:
        session: Session = self.server.manager.session  # type: ignore
        if session.cache is None:
            self._error(404, "server is running without a cache")
            return
        want_trace = query.get("trace", ["0"])[-1] not in ("0", "", "false")
        result = session.cache.load(key, want_trace=want_trace)
        if result is None:
            self._error(404, f"no cached result for key {key!r}")
            return
        self._json(200, {"key": key, "result": result.to_dict()})

    def _stream_events(self, job_id: str) -> None:
        job = self.server.manager.get(job_id)  # type: ignore
        if job is None:
            self._error(404, f"no such job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE has no length; signal end-of-stream by closing
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        try:
            while True:
                cursor, batch = job.log.events_since(cursor, timeout=15.0)
                if not batch:
                    if job.log.closed:
                        return
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                for event in batch:
                    payload = dict(event)
                    kind = payload.pop("event", "message")
                    self.wfile.write(format_event(kind, payload))
                    self.wfile.flush()
                    if kind in TERMINAL_EVENTS:
                        return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, manager: JobManager, auth: ApiKeyAuth,
                 verbose: bool = False):
        self.manager = manager
        self.auth = auth
        self.verbose = verbose
        super().__init__(address, _Handler)


class SweepServer:
    """Owns the session, job pool, and HTTP listener.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  Designed to run in-process for tests (``start`` /
    ``stop``) and as the long-running process behind
    ``python -m repro.serve``.
    """

    def __init__(self, session: Optional[Session] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 job_workers: int = 2, auth: Optional[ApiKeyAuth] = None,
                 verbose: bool = False):
        self.session = session if session is not None \
            else Session(cache="readwrite")
        self.auth = auth if auth is not None else ApiKeyAuth()
        self.manager = JobManager(self.session, workers=job_workers)
        self._httpd = _HTTPServer((host, port), self.manager, self.auth,
                                  verbose=verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SweepServer":
        """Serve on a background thread; returns self (chainable)."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="serve-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the launcher's main loop)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.manager.shutdown()

    def __enter__(self) -> "SweepServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
