"""The job-submission front door is bounded against bad ``Content-Length``.

A negative length used to read the socket to EOF (hanging the handler
thread until the client gave up) and a huge one was read into memory.
Both are now refused from the header alone, before any body byte is
read, and the connection is closed rather than left holding an unread
body.
"""

import http.client
import json

import pytest

from repro.serve import SweepServer
from repro.serve.server import MAX_BODY_BYTES
from repro.session import Session


@pytest.fixture()
def server():
    with SweepServer(session=Session(cache="off"), job_workers=1) as srv:
        yield srv


def _post_headers_only(server, length):
    """POST /v1/jobs declaring ``length`` but sending no body at all: a
    server that tried to read the body would block here."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        return (resp.status, resp.getheader("Connection"),
                json.loads(resp.read()))
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["-1", "-4096", "abc", "1.5", ""])
def test_invalid_length_is_400(server, length):
    status, connection, body = _post_headers_only(server, length)
    assert status == 400
    assert "Content-Length" in body["error"]
    assert connection == "close"


@pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 10 ** 15])
def test_oversized_length_is_413_before_reading(server, length):
    status, connection, body = _post_headers_only(server, str(length))
    assert status == 413
    assert str(MAX_BODY_BYTES) in body["error"]
    assert connection == "close"


def test_body_at_the_limit_is_read(server):
    """A body within the limit is still read and decoded (here it is
    valid JSON but not a job, so the protocol layer answers 400)."""
    body = b" " * (MAX_BODY_BYTES - 2) + b"{}"
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
    finally:
        conn.close()
    assert resp.status == 400
    assert "Content-Length" not in payload["error"]


def test_server_keeps_serving_after_rejections(server):
    _post_headers_only(server, "-1")
    _post_headers_only(server, str(MAX_BODY_BYTES + 1))
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", "/v1/health")
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["ok"]
    finally:
        conn.close()
