"""The wire contract of both front doors: one write, one method matrix.

A response sent as two writes (the head, then the body) leaves the body
waiting under Nagle for the client's delayed ACK: ~40 ms per request for
a client that reuses its connection back to back.  These tests pin the
single-write rule against a live worker and a router over a
:class:`StaticTopology` of that worker: back-to-back keep-alive reads stay
fast, every (door, route template, method) answers in exactly one
``wfile.write`` with the status, ``Allow`` header and RED endpoint label
its route table implies, and HEAD / OPTIONS get typed answers that leave
the connection usable.
"""

import contextlib
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
    WalApplier,
    WorkerController,
    WriteAheadLog,
)
from repro.serve.http import ROUTER_ROUTES, WORKER_ROUTES, normalize_route

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


@contextlib.contextmanager
def _booted_doors(vfl_log_path, tmp_dir):
    """``{"worker": (server, writes), "router": (server, writes)}``.

    The worker carries a WAL and a controller, and both doors a
    robustness file, so every route either door holds can answer.
    """
    matrix = tmp_dir / "BENCH_scenarios.json"
    matrix.write_text(json.dumps({"ok": True}))
    service = EvaluationService()
    wal = WriteAheadLog(tmp_dir / "wal")
    service.attach_wal(wal)
    worker = EvaluationHTTPServer(
        ("127.0.0.1", 0), service, robustness_file=str(matrix)
    )
    worker.controller = WorkerController(worker, service, WalApplier(service))
    worker_writes = _spy_on(worker)
    worker.serve_background()
    router = ClusterRouter(
        ("127.0.0.1", 0),
        StaticTopology({0: ("127.0.0.1", worker.port)}),
        robustness_file=str(matrix),
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
    try:
        yield {"worker": (worker, worker_writes), "router": (router, router_writes)}
    finally:
        router.shutdown()
        router.server_close()
        worker.shutdown()
        worker.server_close()
        service.close()


@pytest.fixture()
def doors(vfl_log_path, tmp_path):
    with _booted_doors(vfl_log_path, tmp_path) as booted:
        yield booted


@pytest.fixture(scope="module")
def matrix_doors(vfl_log_path, tmp_path_factory):
    """One pair of doors for the whole method matrix."""
    with _booted_doors(vfl_log_path, tmp_path_factory.mktemp("matrix")) as booted:
        yield booted


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


DOORS = {"worker": WORKER_ROUTES, "router": ROUTER_ROUTES}
METHODS = ("GET", "POST", "PUT", "PATCH", "DELETE", "HEAD", "OPTIONS")
# Every template either door holds (a door answers 404 on the other's),
# plus the root and unknown paths, with the RED label each must carry.
LABELS = {
    **{template: template for table in DOORS.values() for template in table},
    "/": "/",
    "/bogus": "/other",
    "/runs/{id}/bogus": "/other",
}
# The routed POSTs: a body each answers, and its status on these doors.
POSTS = {
    "/runs": (None, 201),  # a fresh VFL registration (body built per test)
    "/control/status": ({}, 200),
    "/control/epoch": ({"ring_epoch": 0}, 200),
    "/control/promote": ({}, 409),  # a primary has nothing to promote
    "/control/adopt": ({"frames": []}, 200),
    "/cluster/resize": ({"shards": 1}, 400),  # a static topology is fixed
}


def _matrix():
    for door, table in DOORS.items():
        for template in LABELS:
            path = template.replace("{id}", RUN_ID)
            methods = table.get(template)
            for method in METHODS:
                if methods is None:
                    status, header = 404, "Content-Type"
                elif method not in methods:
                    status, header = 405, "Allow"
                elif method == "GET":
                    status, header = 200, "Content-Type"
                else:
                    status, header = POSTS[template][1], "Content-Type"
                yield door, method, path, status, header
    # A non-JSON body leaves in one write too.
    yield "worker", "GET", "/metricz?format=prometheus", 200, "Content-Type"


def _requests_total(server, endpoint: str, status: int) -> int:
    return server.telemetry.registry.counter(
        "repro_http_requests_total",
        labels={"endpoint": endpoint, "code": str(status)},
    ).value


@pytest.mark.parametrize("door, method, path, status, header", list(_matrix()))
def test_each_response_is_one_write(
    matrix_doors, vfl_log_path, door, method, path, status, header
):
    server, writes = matrix_doors[door]
    template = normalize_route(path)
    routed = DOORS[door].get(template, {})
    body = None
    if method == "POST" and method in routed:
        spec = POSTS[template][0]
        if spec is None:
            spec = {"kind": "vfl", "log_path": vfl_log_path}
        body = json.dumps(spec)
    before = _requests_total(server, template, status)
    writes.clear()
    got_status, sent_body = _exchange(server, method, path, body)
    assert got_status == status, sent_body
    assert len(writes) == 1, [w[:40] for w in writes]
    head, _, sent = writes[0].partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert f"\r\n{header}: ".encode() in head
    assert sent == sent_body
    if status == 405:
        allow = ", ".join(sorted(routed))
        assert f"\r\nAllow: {allow}\r\n".encode() in head + b"\r\n"
    else:
        assert b"\r\nAllow: " not in head
    if method != "HEAD" and status in (404, 405):
        error = json.loads(sent_body)["error"]
        assert method in error
        if status == 404:
            assert "no such endpoint" in error
    # The RED series books the answer under the path's template; the
    # door records it just after the write, so give it a moment.
    assert template == LABELS[path.replace(RUN_ID, "{id}").split("?")[0]]
    deadline = time.monotonic() + 5
    while _requests_total(server, template, status) == before:
        assert time.monotonic() < deadline, "request never reached the RED series"
        time.sleep(0.005)
    assert _requests_total(server, template, status) == before + 1


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
