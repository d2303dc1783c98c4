"""Router hardening: typed failures, passthrough, aggregation, tracing.

Drives a :class:`ClusterRouter` over a :class:`StaticTopology` of
in-process :class:`EvaluationHTTPServer` workers (real sockets, no child
processes — the supervisor's process management is covered by
``tests/test_cluster_chaos.py``).  The regression surface here is the
failure ladder: a downed shard must answer 503 with ``Retry-After``, a
wedged one 504, worker-side refusals must relay verbatim, and *no*
routing failure may ever surface as a bare 500.
"""

import http.client
import itertools
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io import save_vfl_training_log
from repro.obs import Observability
from repro.serve import (
    ClusterRouter,
    EvaluationHTTPServer,
    EvaluationService,
    StaticTopology,
)
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.resilience import CircuitBreaker
from tests.test_obs_registry import parse_prometheus

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def vfl_log_path(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster_router") / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return str(path)


@pytest.fixture()
def workers():
    servers = [
        EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
        for _ in range(2)
    ]
    for server in servers:
        server.serve_background()
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()
        server.service.close()


@pytest.fixture()
def cluster(workers):
    topology = StaticTopology(
        {index: ("127.0.0.1", server.port) for index, server in enumerate(workers)}
    )
    router = ClusterRouter(("127.0.0.1", 0), topology)
    router.serve_background()
    yield router, topology, workers
    router.shutdown()
    router.server_close()


def _get(router, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{router.port}{path}", timeout=30
        ) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _post(router, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{router.port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _key_for_shard(topology, shard, prefix="probe"):
    """A key the ring assigns to ``shard`` (exists for any shard: brute force)."""
    for i in range(10000):
        key = f"{prefix}-{i}"
        if topology.ring.shard_for(key) == shard:
            return key
    raise AssertionError(f"no key found for shard {shard}")


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]  # released on close: refuses connections


# ------------------------------------------------------------------ routing


class TestRouting:
    def test_register_lands_on_the_ring_assigned_worker(
        self, cluster, vfl_log_path
    ):
        router, topology, workers = cluster
        run_id = "vfl-routing-test"
        status, body, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path,
                              "run_id": run_id}
        )
        assert status == 201 and body["run_id"] == run_id
        owner = topology.ring.shard_for(run_id)
        owner_runs = [r["run_id"] for r in workers[owner].service.runs()]
        other_runs = [r["run_id"] for r in workers[1 - owner].service.runs()]
        assert run_id in owner_runs and run_id not in other_runs

    def test_router_mints_run_ids_when_absent(self, cluster, vfl_log_path):
        router, topology, workers = cluster
        status, body, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 201
        run_id = body["run_id"]
        assert run_id.startswith("vfl-c")
        owner = topology.ring.shard_for(run_id)
        assert run_id in [r["run_id"] for r in workers[owner].service.runs()]

    def test_queries_proxy_to_the_owner_and_aggregate_listing(
        self, cluster, vfl_log_path
    ):
        router, topology, workers = cluster
        ids = ["vfl-q-a", "vfl-q-b", "vfl-q-c"]
        for run_id in ids:
            _post(router, "/runs", {"kind": "vfl", "log_path": vfl_log_path,
                                    "run_id": run_id})
        for run_id in ids:
            status, body, _ = _get(router, f"/runs/{run_id}/contributions")
            assert status == 200
            assert len(body["totals"]) == len(body["participant_ids"])
            status, body, _ = _get(router, f"/runs/{run_id}/leaderboard?top=2")
            assert status == 200 and len(body["leaderboard"]) == 2
        status, body, _ = _get(router, "/runs")
        assert status == 200 and body["unavailable"] == []
        listed = {run["run_id"]: run["shard"] for run in body["runs"]}
        for run_id in ids:
            assert listed[run_id] == str(topology.ring.shard_for(run_id))

    def test_worker_404_relays_verbatim(self, cluster):
        router, _, _ = cluster
        status, body, _ = _get(router, "/runs/nonexistent/contributions")
        assert status == 404 and "error" in body

    def test_cluster_endpoint_maps_keys_to_shards(self, cluster):
        router, topology, _ = cluster
        status, body, _ = _get(router, "/cluster?key=vfl-xyz")
        assert status == 200
        assert body["shard"] == str(topology.ring.shard_for("vfl-xyz"))
        assert set(body["shards"]) == {"0", "1"}
        assert body["supervised"] is False


# ------------------------------------------------------------- body ladder


class TestPostBodyLadder:
    def test_missing_content_length_is_411(self, cluster):
        router, _, _ = cluster
        conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10)
        conn.putrequest("POST", "/runs", skip_accept_encoding=True)
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 411
        conn.close()

    def test_oversized_body_is_413_before_reading(self, cluster):
        router, _, _ = cluster
        conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10)
        conn.putrequest("POST", "/runs")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 413
        conn.close()

    def test_malformed_json_is_400(self, cluster):
        router, _, _ = cluster
        request = urllib.request.Request(
            f"http://127.0.0.1:{router.port}/runs",
            data=b"not json at all",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unroutable_spec_is_400(self, cluster):
        router, _, _ = cluster
        status, body, _ = _post(router, "/runs", {"log_path": "x.npz"})
        assert status == 400 and "kind" in body["error"]


# --------------------------------------------------------------- the ladder


class TestFailureLadder:
    def test_downed_shard_answers_503_with_retry_after(self, workers):
        """One live worker, one dead port: keys on the dead shard get the
        typed 503 (+Retry-After), keys on the live shard keep working."""
        topology = StaticTopology(
            {
                0: ("127.0.0.1", workers[0].port),
                1: ("127.0.0.1", _dead_port()),
            },
            retry_after_hint_s=7.0,
        )
        router = ClusterRouter(("127.0.0.1", 0), topology)
        router.serve_background()
        try:
            dead_key = _key_for_shard(topology, 1)
            status, body, headers = _get(
                router, f"/runs/{dead_key}/contributions"
            )
            assert status == 503
            assert headers["Retry-After"] == "7"
            assert "unavailable" in body["error"]
            assert body["retry_after_s"] == 7.0
            live_key = _key_for_shard(topology, 0)
            status, _, _ = _get(router, f"/runs/{live_key}/contributions")
            assert status == 404  # reached the live worker: not registered
        finally:
            router.shutdown()
            router.server_close()

    def test_breaker_opens_and_refuses_without_connecting(self, workers):
        topology = StaticTopology(
            {0: ("127.0.0.1", workers[0].port), 1: ("127.0.0.1", _dead_port())},
            breaker_failures=2,
            breaker_reset_s=60.0,
        )
        router = ClusterRouter(("127.0.0.1", 0), topology)
        router.serve_background()
        try:
            dead_key = _key_for_shard(topology, 1)
            for _ in range(2):
                status, _, _ = _get(router, f"/runs/{dead_key}/contributions")
                assert status == 503
            assert topology.breaker(1).state == CircuitBreaker.OPEN
            # Open breaker: still the typed 503, now without a dial.
            status, body, headers = _get(
                router, f"/runs/{dead_key}/contributions"
            )
            assert status == 503
            assert "circuit breaker open" in body["error"]
            assert "Retry-After" in headers
        finally:
            router.shutdown()
            router.server_close()

    def test_wedged_shard_answers_504(self, workers):
        """A socket that accepts but never answers: the proxy read runs
        out of budget and the router answers 504, not a hang or a 500."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        topology = StaticTopology(
            {
                0: ("127.0.0.1", workers[0].port),
                1: ("127.0.0.1", silent.getsockname()[1]),
            }
        )
        router = ClusterRouter(
            ("127.0.0.1", 0), topology, proxy_timeout_s=0.3
        )
        router.serve_background()
        try:
            wedged_key = _key_for_shard(topology, 1)
            status, body, _ = _get(router, f"/runs/{wedged_key}/contributions")
            assert status == 504
            assert body["timeout_s"] == 0.3
        finally:
            router.shutdown()
            router.server_close()
            silent.close()

    def test_no_routing_failure_is_ever_a_bare_500(self, workers):
        """Sweep every router-side failure mode; 500 never escapes."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        topology = StaticTopology(
            {
                0: ("127.0.0.1", _dead_port()),
                1: ("127.0.0.1", silent.getsockname()[1]),
            },
            breaker_failures=2,
            breaker_reset_s=60.0,
        )
        router = ClusterRouter(
            ("127.0.0.1", 0), topology, proxy_timeout_s=0.3
        )
        router.serve_background()
        try:
            seen = set()
            for shard in (0, 1):
                key = _key_for_shard(topology, shard)
                for _ in range(4):
                    status, _, _ = _get(router, f"/runs/{key}/contributions")
                    seen.add(status)
            # Fan-out endpoints degrade, never error.
            status, health, _ = _get(router, "/healthz")
            assert status == 200 and health["status"] == "degraded"
            assert set(health["down"]) <= {"0", "1"}
            status, _, _ = _get(router, "/runs")
            assert status == 200
            status, _, _ = _get(router, "/metricz")
            assert status == 200
            assert seen <= {503, 504}
        finally:
            router.shutdown()
            router.server_close()
            silent.close()


# ------------------------------------------------------------- aggregation


class TestAggregation:
    def test_healthz_merges_worker_reports(self, cluster):
        router, _, workers = cluster
        status, body, _ = _get(router, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2 and body["down"] == []
        assert all(
            body["shards"][str(i)]["status"] == "ok" for i in range(2)
        )
        workers[1].shutdown()
        workers[1].server_close()
        status, body, _ = _get(router, "/healthz")
        assert status == 200
        assert body["status"] == "degraded"
        assert body["down"] == ["1"]
        assert body["shards"]["1"]["status"] == "down"

    def test_metricz_json_carries_router_and_worker_sections(self, cluster):
        router, _, _ = cluster
        _get(router, "/healthz")  # ensure some router latency exists
        status, body, _ = _get(router, "/metricz")
        assert status == 200
        assert set(body["workers"]) == {"0", "1"}
        assert body["router"]["latency"]["http"]["count"] >= 1
        assert "cache" in body["workers"]["0"]

    def test_merged_prometheus_passes_the_round_trip_parser(
        self, cluster, vfl_log_path
    ):
        router, _, _ = cluster
        _post(router, "/runs", {"kind": "vfl", "log_path": vfl_log_path,
                                "run_id": "vfl-prom"})
        _get(router, "/runs/vfl-prom/contributions")
        with urllib.request.urlopen(
            f"http://127.0.0.1:{router.port}/metricz?format=prometheus",
            timeout=30,
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        parsed = parse_prometheus(text)
        latency = parsed["repro_http_request_latency_seconds"]["samples"]
        workers_seen = {
            dict(labels).get("worker")
            for (name, labels) in latency
            if name == "repro_http_request_latency_seconds_count"
        }
        assert workers_seen == {"0", "1"}  # per-worker series, merged
        router_latency = parsed["repro_router_request_latency_seconds"]["samples"]
        assert any(
            dict(labels).get("worker") == "router"
            for _, labels in router_latency
        )
        assert parsed["repro_cluster_shards"]["samples"][
            ("repro_cluster_shards", ())
        ] == 2.0
        assert parsed["repro_cluster_shards_down"]["samples"][
            ("repro_cluster_shards_down", ())
        ] == 0.0

    def test_bad_metricz_format_is_400(self, cluster):
        router, _, _ = cluster
        status, body, _ = _get(router, "/metricz?format=yaml")
        assert status == 400 and "format" in body["error"]


# ----------------------------------------------------- collision-safe minting


class TestAutoIdSeeding:
    def test_minting_resumes_past_ids_already_on_the_shards(
        self, cluster, vfl_log_path
    ):
        """A restarted router must not re-mint ids a previous router
        handed out: the first mint seeds from the shards' registries."""
        router, topology, workers = cluster
        owner = topology.ring.shard_for("vfl-c7")
        conn = http.client.HTTPConnection(
            "127.0.0.1", workers[owner].port, timeout=30
        )
        conn.request(
            "POST",
            "/runs",
            body=json.dumps(
                {"kind": "vfl", "log_path": vfl_log_path, "run_id": "vfl-c7"}
            ),
            headers={"Content-Type": "application/json"},
        )
        assert conn.getresponse().status == 201
        conn.close()

        status, body, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 201
        assert body["run_id"] == "vfl-c8"

    def test_collision_with_an_unseen_id_remints_instead_of_400(
        self, cluster, vfl_log_path
    ):
        """A run registered behind the router's back after seeding: the
        mint collides, the worker answers 'already registered', and the
        router retries with the next id rather than relaying the 400."""
        router, topology, workers = cluster
        # Pretend seeding already happened on an empty cluster...
        router._auto_seeded = True
        router._auto_ids = itertools.count(1)
        # ...then an out-of-band registration takes vfl-c1.
        owner = topology.ring.shard_for("vfl-c1")
        conn = http.client.HTTPConnection(
            "127.0.0.1", workers[owner].port, timeout=30
        )
        conn.request(
            "POST",
            "/runs",
            body=json.dumps(
                {"kind": "vfl", "log_path": vfl_log_path, "run_id": "vfl-c1"}
            ),
            headers={"Content-Type": "application/json"},
        )
        assert conn.getresponse().status == 201
        conn.close()

        status, body, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 201
        assert body["run_id"] == "vfl-c2"

    def test_explicit_duplicate_run_id_still_relays_the_400(
        self, cluster, vfl_log_path
    ):
        router, _, _ = cluster
        spec = {"kind": "vfl", "log_path": vfl_log_path, "run_id": "vfl-dup"}
        status, _, _ = _post(router, "/runs", spec)
        assert status == 201
        status, body, _ = _post(router, "/runs", spec)
        assert status == 400
        assert "already registered" in body["error"]


# ------------------------------------------------------------ graceful drain


class TestGracefulDrain:
    def test_drain_sheds_new_work_and_finishes_in_flight(
        self, cluster, vfl_log_path, monkeypatch
    ):
        router, topology, workers = cluster
        run_id = "vfl-drain"
        status, _, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path,
                              "run_id": run_id}
        )
        assert status == 201
        owner = workers[topology.ring.shard_for(run_id)]

        # Hold the owner's query open until released, so one request is
        # reliably in flight when the drain begins.
        release = threading.Event()
        real_query = owner.service.query

        def slow_query(method, *args, **kwargs):
            release.wait(30)
            return real_query(method, *args, **kwargs)

        monkeypatch.setattr(owner.service, "query", slow_query)
        results = {}

        def fetch():
            results["status"], results["body"], _ = _get(
                router, f"/runs/{run_id}/contributions"
            )

        in_flight = threading.Thread(target=fetch, daemon=True)
        in_flight.start()
        deadline = time.monotonic() + 10
        while router.in_flight.value < 1:
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)

        router.begin_drain()
        assert router.draining
        # New work: typed 503 with the drain's Retry-After hint.
        status, body, headers = _get(router, f"/runs/{run_id}/contributions")
        assert status == 503
        assert "draining" in body["error"]
        assert headers["Retry-After"] == "5"
        status, _, _ = _post(
            router, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 503
        # Health checks still answer: orchestrators see a drain, not an
        # outage.
        status, _, _ = _get(router, "/healthz")
        assert status == 200
        # The slow request is still running, so the drain isn't done...
        assert not router.await_drained(0.2)
        # ...until it finishes, successfully, despite the drain.
        release.set()
        in_flight.join(timeout=30)
        assert not in_flight.is_alive()
        assert results["status"] == 200
        assert "totals" in results["body"]
        assert router.await_drained(10)
        assert router.in_flight.value == 0


# ------------------------------------------------------------------ tracing


class TestTracePropagation:
    def test_one_request_is_one_trace_across_the_hop(self, vfl_log_path):
        """Router and worker are separate tracers; the propagated headers
        must stitch the worker's request span under the router's."""
        worker = EvaluationHTTPServer(
            ("127.0.0.1", 0),
            EvaluationService(obs=Observability(trace=True)),
        )
        worker.serve_background()
        topology = StaticTopology({0: ("127.0.0.1", worker.port)})
        router = ClusterRouter(
            ("127.0.0.1", 0), topology, obs=Observability(trace=True)
        )
        router.serve_background()
        try:
            _post(router, "/runs", {"kind": "vfl", "log_path": vfl_log_path,
                                    "run_id": "vfl-trace"})
            status, _, _ = _get(router, "/runs/vfl-trace/contributions")
            assert status == 200
            router_span = next(
                span
                for span in router.obs.tracer.spans()
                if span.name == "router.request"
                and span.attributes.get("path") == "/runs/vfl-trace/contributions"
            )
            worker_span = next(
                span
                for span in worker.service.obs.tracer.spans()
                if span.name == "http.request"
                and span.attributes.get("path") == "/runs/vfl-trace/contributions"
            )
            assert worker_span.trace_id == router_span.trace_id
            assert worker_span.parent_id == router_span.span_id
        finally:
            router.shutdown()
            router.server_close()
            worker.shutdown()
            worker.server_close()
            worker.service.close()
