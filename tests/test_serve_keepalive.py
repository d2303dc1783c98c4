"""One write per HTTP response, on both front doors.

A response sent as two writes (the head, then the body) leaves the body
waiting under Nagle for the client's delayed ACK: ~40 ms per request for
a client that reuses its connection back to back.  These tests pin the
single-write rule against a live worker and a router over a
:class:`StaticTopology` of that worker: back-to-back keep-alive reads stay
fast, every kind of response leaves in exactly one ``wfile.write``, and
HEAD / OPTIONS get typed answers that leave the connection usable.
"""

import json
import time
from http.client import HTTPConnection

import pytest

from repro.io import save_vfl_training_log
from repro.serve import (
    ClusterRouter,
    EvaluationHTTPServer,
    EvaluationService,
    StaticTopology,
)
from repro.serve.http import normalize_route

pytestmark = pytest.mark.timeout(120)

RUN_ID = "keepalive"
LEADERBOARD = f"/runs/{RUN_ID}/leaderboard"


class _WriteSpy:
    """A handler's ``wfile`` that logs every write before passing it on."""

    def __init__(self, wfile, writes: list) -> None:
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


def _spy_on(server) -> list:
    """Route ``server``'s responses through a :class:`_WriteSpy`."""
    writes: list = []

    class Spied(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            self.wfile = _WriteSpy(self.wfile, writes)

    server.RequestHandlerClass = Spied
    return writes


@pytest.fixture(scope="module")
def vfl_log_path(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_keepalive") / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return str(path)


@pytest.fixture()
def doors(vfl_log_path):
    """``{"worker": (server, writes), "router": (server, writes)}``."""
    worker = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
    worker_writes = _spy_on(worker)
    worker.serve_background()
    router = ClusterRouter(
        ("127.0.0.1", 0), StaticTopology({0: ("127.0.0.1", worker.port)})
    )
    router_writes = _spy_on(router)
    router.serve_background()
    status, _ = _exchange(
        router,
        "POST",
        "/runs",
        json.dumps({"kind": "vfl", "log_path": vfl_log_path, "run_id": RUN_ID}),
    )
    assert status == 201
    yield {"worker": (worker, worker_writes), "router": (router, router_writes)}
    router.shutdown()
    router.server_close()
    worker.shutdown()
    worker.server_close()
    worker.service.close()


def _exchange(server, method, path, body=None):
    """One request on a fresh connection: ``(status, body bytes)``."""
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize("door", ["worker", "router"])
def test_back_to_back_keepalive_reads_do_not_stall(doors, door):
    # With the head and the body in two sends, each of these reads waits
    # ~40 ms for a delayed ACK: 50 of them cost two seconds or more.
    server, _ = doors[door]
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", LEADERBOARD)
        conn.getresponse().read()
        started = time.perf_counter()
        for _ in range(50):
            conn.request("GET", LEADERBOARD)
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        elapsed = time.perf_counter() - started
    finally:
        conn.close()
    assert elapsed < 1.0, f"50 keep-alive reads took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "door, method, path, status, header",
    [
        ("worker", "GET", LEADERBOARD, 200, "Content-Type"),
        ("worker", "GET", "/metricz?format=prometheus", 200, "Content-Type"),
        ("worker", "PUT", "/runs", 405, "Allow"),
        ("worker", "HEAD", "/healthz", 405, "Allow"),
        ("router", "GET", f"/runs/{RUN_ID}/contributions", 200, "Content-Type"),
        ("router", "DELETE", "/cluster", 405, "Allow"),
        ("router", "OPTIONS", LEADERBOARD, 405, "Allow"),
    ],
)
def test_each_response_is_one_write(doors, door, method, path, status, header):
    server, writes = doors[door]
    writes.clear()
    got_status, body = _exchange(server, method, path)
    assert got_status == status
    assert len(writes) == 1, [w[:40] for w in writes]
    head, _, sent = writes[0].partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert f"\r\n{header}: ".encode() in head
    assert sent == body


def test_retry_after_refusal_is_one_write(doors):
    router, writes = doors["router"]
    router.begin_drain()
    writes.clear()
    status, body = _exchange(router, "GET", LEADERBOARD)
    assert status == 503
    assert len(writes) == 1
    head, _, sent = writes[0].partition(b"\r\n\r\n")
    assert b"\r\nRetry-After: " in head
    assert sent == body and "draining" in json.loads(body)["error"]


@pytest.mark.parametrize("door", ["worker", "router"])
def test_head_then_get_on_one_connection(doors, door):
    server, _ = doors[door]
    _, want = _exchange(server, "GET", LEADERBOARD)
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("HEAD", LEADERBOARD)
        head = conn.getresponse()
        assert head.read() == b""
        assert head.status == 405
        assert head.headers["Allow"] == "GET"
        assert head.headers["Content-Type"] == "application/json"
        assert int(head.headers["Content-Length"]) > 0
        conn.request("GET", LEADERBOARD)
        response = conn.getresponse()
        assert response.status == 200
        assert response.read() == want
    finally:
        conn.close()


@pytest.mark.parametrize("door", ["worker", "router"])
def test_head_and_options_are_typed(doors, door):
    server, _ = doors[door]
    conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("OPTIONS", "/runs")
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 405
        assert response.headers["Allow"] == "GET, POST"
        assert "OPTIONS" in body["error"]
        for method in ("HEAD", "OPTIONS"):
            conn.request(method, "/bogus")
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 404
            assert response.headers["Content-Type"] == "application/json"
            if method == "OPTIONS":
                assert "no such endpoint" in json.loads(payload)["error"]
    finally:
        conn.close()
    requests = server.telemetry.registry.counter(
        "repro_http_requests_total",
        labels={"endpoint": normalize_route("/runs"), "code": "405"},
    )
    assert requests.value == 1
