"""The fleet status surface: /statusz, /robustness, RED series, exemplars.

End-to-end over real sockets, like ``tests/test_serve_http.py``: a
worker's ``/statusz`` serves SLO verdicts fed by its own traffic, the
route normalizer keeps RED-series cardinality bounded no matter how many
run ids a load test mints, duration-bucket exemplars round-trip from the
Prometheus exposition back to a real recorded span tree, and the cluster
router merges every worker's verdicts (and exemplar-bearing series)
under one scrape that still satisfies the strict exposition parser.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.io import save_vfl_training_log
from repro.obs import MetricsRegistry, Observability
from repro.serve import (
    ClusterRouter,
    EvaluationHTTPServer,
    EvaluationService,
    StaticTopology,
)
from repro.serve.http import RequestTelemetry, normalize_route
from tests.test_obs_registry import parse_prometheus

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def vfl_log_path(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_statusz") / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return str(path)


@pytest.fixture()
def server():
    httpd = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
    httpd.serve_background()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    httpd.service.close()


def _get(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            body = response.read()
            return response.status, body, response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), exc.headers


def _get_json(port, path):
    status, body, _ = _get(port, path)
    return status, json.loads(body)


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ------------------------------------------------------------ route templates


class TestRouteNormalizer:
    @pytest.mark.parametrize(
        ("path", "template"),
        [
            ("/healthz", "/healthz"),
            ("/statusz", "/statusz"),
            ("/robustness", "/robustness"),
            ("/metricz?format=prometheus", "/metricz"),
            ("/runs", "/runs"),
            ("/runs/hfl-123/leaderboard?top=3", "/runs/{id}/leaderboard"),
            ("/runs/anything%20at%20all/weights", "/runs/{id}/weights"),
            ("/wal/stream?from=7", "/wal/stream"),
            ("/cluster/resize", "/cluster/resize"),
            ("/control/promote", "/control/promote"),
            ("/", "/"),
            ("/bogus", "/other"),
            ("/runs/x/bogus", "/other"),
            ("/runs/x/y/z/deep", "/other"),
        ],
    )
    def test_templates(self, path, template):
        assert normalize_route(path) == template

    def test_thousand_run_ids_cost_one_series(self):
        """The cardinality bound: 1000 distinct run ids, one histogram."""
        registry = MetricsRegistry()
        telemetry = RequestTelemetry(registry)
        for i in range(1000):
            telemetry.observe(f"/runs/run-{i}/leaderboard", 200, 0.001)
        snapshot = registry.snapshot()
        duration = snapshot["repro_http_request_duration_seconds"]["series"]
        assert len(duration) == 1
        assert duration[0]["labels"] == {"endpoint": "/runs/{id}/leaderboard"}
        requests = snapshot["repro_http_requests_total"]["series"]
        assert len(requests) == 1
        assert telemetry.endpoints()["/runs/{id}/leaderboard"]["count"] == 1000


# ------------------------------------------------------------------ /statusz


class TestStatusz:
    def test_statusz_shape_and_clean_verdict(self, server, vfl_log_path):
        status, created = _post(
            server.port, "/runs",
            {"kind": "vfl", "log_path": vfl_log_path, "run_id": "sz"},
        )
        assert status == 201
        assert _get_json(server.port, "/runs/sz/leaderboard")[0] == 200
        status, payload = _get_json(server.port, "/statusz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["health"] == "ok"
        assert payload["replication"] is None  # not a standby
        assert not payload["slo"]["burning"]
        names = {entry["name"] for entry in payload["slo"]["slos"]}
        assert names == {"availability", "latency", "shed"}
        for entry in payload["slo"]["slos"]:
            for window in entry["windows"]:
                assert window["short_burn"] >= 0.0
                assert isinstance(window["firing"], bool)
        # The leaderboard traffic above is already classified.
        assert payload["slo"]["counts"]["requests"] >= 2
        assert "/runs/{id}/leaderboard" in payload["endpoints"]

    def test_statusz_stable_under_concurrent_scrapes(
        self, server, vfl_log_path
    ):
        status, _ = _post(
            server.port, "/runs",
            {"kind": "vfl", "log_path": vfl_log_path, "run_id": "hammer"},
        )
        assert status == 201
        errors: list = []

        def scraper():
            for _ in range(20):
                try:
                    code, payload = _get_json(server.port, "/statusz")
                    assert code == 200
                    assert payload["status"] in ("ok", "burning")
                except Exception as exc:  # noqa: BLE001 - collected for report
                    errors.append(exc)

        def traffic():
            for _ in range(20):
                _get_json(server.port, "/runs/hammer/leaderboard")

        threads = [threading.Thread(target=scraper) for _ in range(4)]
        threads.append(threading.Thread(target=traffic))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_post_statusz_is_405(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/statusz",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET"


# --------------------------------------------------------------- /robustness


class TestRobustness:
    def test_missing_matrix_is_typed_404(self, tmp_path):
        httpd = EvaluationHTTPServer(
            ("127.0.0.1", 0),
            EvaluationService(),
            robustness_file=str(tmp_path / "nope.json"),
        )
        httpd.serve_background()
        try:
            status, payload = _get_json(httpd.port, "/robustness")
            assert status == 404
            assert "robustness matrix" in payload["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            httpd.service.close()

    def test_serves_the_saved_matrix_fresh(self, tmp_path):
        matrix = tmp_path / "BENCH_scenarios.json"
        matrix.write_text(json.dumps({"ok": True, "cells": []}))
        httpd = EvaluationHTTPServer(
            ("127.0.0.1", 0), EvaluationService(),
            robustness_file=str(matrix),
        )
        httpd.serve_background()
        try:
            status, payload = _get_json(httpd.port, "/robustness")
            assert status == 200
            assert payload["ok"] is True
            assert payload["file"] == str(matrix)
            # Fresh per request: a re-run is visible immediately.
            matrix.write_text(json.dumps({"ok": False, "cells": [1]}))
            status, payload = _get_json(httpd.port, "/robustness")
            assert status == 200
            assert payload["ok"] is False
        finally:
            httpd.shutdown()
            httpd.server_close()
            httpd.service.close()

    def test_default_file_is_fixed_at_start_up(self, tmp_path, monkeypatch):
        """Both doors resolve the default file once: a later chdir does not
        swap the matrix they serve, and /statusz names the file."""
        started_in = tmp_path / "start"
        started_in.mkdir()
        matrix = started_in / "BENCH_scenarios.json"
        matrix.write_text(json.dumps({"ok": True}))
        monkeypatch.chdir(started_in)
        worker = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
        worker.serve_background()
        router = ClusterRouter(
            ("127.0.0.1", 0), StaticTopology({0: ("127.0.0.1", worker.port)})
        )
        router.serve_background()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "BENCH_scenarios.json").write_text(json.dumps({"ok": False}))
        monkeypatch.chdir(elsewhere)
        try:
            for door in (worker, router):
                status, robustness = _get_json(door.port, "/robustness")
                assert status == 200
                assert robustness["ok"] is True
                assert Path(robustness["file"]).resolve() == matrix.resolve()
                status, statusz = _get_json(door.port, "/statusz")
                assert status == 200
                assert statusz["robustness_file"] == robustness["file"]
        finally:
            router.shutdown()
            router.server_close()
            worker.shutdown()
            worker.server_close()
            worker.service.close()


# ------------------------------------------------------------- estimator auto


class TestEstimatorAuto:
    def test_auto_resolves_to_a_concrete_backend(self, server, vfl_log_path):
        status, created = _post(
            server.port, "/runs",
            {
                "kind": "vfl",
                "log_path": vfl_log_path,
                "run_id": "auto-vfl",
                "estimator": "auto",
            },
        )
        assert status == 201
        # The paper's DIG-FL is the only VFL-capable backend, so auto
        # must land there — and the response names the concrete choice.
        assert created["estimator"] == "digfl"
        assert created["estimator_requested"] == "auto"

    def test_explicit_estimator_does_not_echo_requested(
        self, server, vfl_log_path
    ):
        status, created = _post(
            server.port, "/runs",
            {"kind": "vfl", "log_path": vfl_log_path, "run_id": "explicit"},
        )
        assert status == 201
        assert "estimator_requested" not in created

    def test_auto_with_bad_options_is_typed_400(self, server, vfl_log_path):
        status, payload = _post(
            server.port, "/runs",
            {
                "kind": "vfl",
                "log_path": vfl_log_path,
                "run_id": "auto-bad",
                "estimator": "auto",
                "estimator_options": {"banana": 1},
            },
        )
        assert status == 400
        assert "auto-selected estimator" in payload["error"]


# ------------------------------------------- exemplar → span tree round-trip


class TestExemplarRoundTrip:
    def test_prometheus_exemplar_resolves_to_a_recorded_span_tree(
        self, vfl_log_path
    ):
        """The observability loop closes: a tail latency seen on
        ``/metricz`` carries a trace id that pulls up the exact request's
        span tree from the armed tracer."""
        obs = Observability(trace=True)
        httpd = EvaluationHTTPServer(
            ("127.0.0.1", 0), EvaluationService(obs=obs)
        )
        httpd.serve_background()
        try:
            status, _ = _post(
                httpd.port, "/runs",
                {"kind": "vfl", "log_path": vfl_log_path, "run_id": "traced"},
            )
            assert status == 201
            for _ in range(3):
                assert _get_json(httpd.port, "/runs/traced/leaderboard")[0] == 200
            status, body, _ = _get(httpd.port, "/metricz?format=prometheus")
            assert status == 200
            metrics = parse_prometheus(body.decode())
            histogram = metrics["repro_http_request_duration_seconds"]
            exemplars = {
                labels: exemplar
                for (name, labels), exemplar in histogram["exemplars"].items()
            }
            leaderboard = [
                exemplar
                for labels, exemplar in exemplars.items()
                if ("endpoint", "/runs/{id}/leaderboard") in labels
            ]
            assert leaderboard, "no exemplar on the leaderboard duration series"
            trace_id = dict(leaderboard[0]["labels"])["trace_id"]
            spans = obs.tracer.spans(trace_id=trace_id)
            assert spans, f"exemplar trace {trace_id} has no recorded spans"
            roots = [span for span in spans if span.name == "http.request"]
            assert roots
            assert roots[0].attributes["path"].startswith("/runs/traced/")
        finally:
            httpd.shutdown()
            httpd.server_close()
            httpd.service.close()


# ------------------------------------------------------------ repro slo check


class TestSloCheckCli:
    def test_healthy_server_exits_zero_and_prints_the_table(
        self, server, capsys
    ):
        from repro.cli import main

        assert _get_json(server.port, "/healthz")[0] == 200
        assert main(["slo", "check", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "BURNING" not in out

    def test_burning_server_exits_one(self, server):
        from repro.cli import main
        from repro.obs.slo import SloTracker

        # Swap in a deterministic-clock tracker and burn an hour of 5%
        # errors through it — the served verdict flips without a single
        # real failure or sleep.
        clock_t = [1000.0]
        tracker = SloTracker(clock=lambda: clock_t[0])
        server.telemetry.slo_tracker = tracker
        for i in range(3600):
            clock_t[0] += 1.0
            status = 500 if i % 20 == 19 else 200
            tracker.observe(status=status, latency_s=0.001)
        assert main(["slo", "check", "--port", str(server.port)]) == 1

    def test_unreachable_server_exits_two(self, capsys):
        from repro.cli import main

        code = main(
            ["slo", "check", "--port", "1", "--timeout-s", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_mode_prints_the_raw_payload(self, server, capsys):
        from repro.cli import main

        assert main(["slo", "check", "--port", str(server.port), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("ok", "burning")
        assert "slo" in payload


# -------------------------------------------------------------------- router


class TestRouterStatusSurface:
    @pytest.fixture()
    def workers(self, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"ok": True, "cells": []}))
        servers = [
            EvaluationHTTPServer(
                ("127.0.0.1", 0), EvaluationService(),
                robustness_file=str(matrix),
            )
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
    def cluster(self, workers, tmp_path):
        matrix = tmp_path / "router-matrix.json"
        matrix.write_text(json.dumps({"ok": True, "router": True}))
        topology = StaticTopology(
            {
                index: ("127.0.0.1", server.port)
                for index, server in enumerate(workers)
            }
        )
        router = ClusterRouter(
            ("127.0.0.1", 0), topology, robustness_file=str(matrix)
        )
        router.serve_background()
        yield router, workers
        router.shutdown()
        router.server_close()

    def test_merged_statusz_carries_every_worker(
        self, cluster, vfl_log_path
    ):
        router, workers = cluster
        status, created = _post(
            router.port, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 201
        run_id = created["run_id"]
        assert _get_json(router.port, f"/runs/{run_id}/leaderboard")[0] == 200
        # The router books a request *after* its response bytes go out,
        # so its handler thread can still be about to record when the
        # client moves on: poll instead of asserting the first scrape.
        deadline = time.monotonic() + 5.0
        while True:
            status, payload = _get_json(router.port, "/statusz")
            assert status == 200
            if (
                payload["slo"]["counts"]["requests"] >= 2
                or time.monotonic() > deadline
            ):
                break
            time.sleep(0.02)
        assert payload["status"] == "ok"
        assert sorted(payload["workers"]) == ["0", "1"]
        assert payload["shards_down"] == []
        for worker in payload["workers"].values():
            assert worker["status"] in ("ok", "burning")
            assert {"availability", "latency", "shed"} == {
                entry["name"] for entry in worker["slo"]["slos"]
            }
        # The router's own SLO engine judged the proxied traffic.
        assert payload["slo"]["counts"]["requests"] >= 2

    def test_merged_statusz_reports_down_shards(self, cluster):
        router, workers = cluster
        workers[1].shutdown()
        workers[1].server_close()
        status, payload = _get_json(router.port, "/statusz")
        assert status == 200
        assert payload["shards_down"] == ["1"]
        assert payload["workers"]["1"]["status"] == "down"

    def test_router_serves_its_own_robustness_file(self, cluster):
        router, _ = cluster
        status, payload = _get_json(router.port, "/robustness")
        assert status == 200
        assert payload["router"] is True

    def test_merged_prometheus_with_red_and_exemplars_parses_strictly(
        self, cluster, vfl_log_path
    ):
        router, workers = cluster
        status, created = _post(
            router.port, "/runs", {"kind": "vfl", "log_path": vfl_log_path}
        )
        assert status == 201
        run_id = created["run_id"]
        for _ in range(3):
            assert _get_json(
                router.port, f"/runs/{run_id}/leaderboard"
            )[0] == 200
        assert _get_json(router.port, "/statusz")[0] == 200
        status, body, headers = _get(
            router.port, "/metricz?format=prometheus"
        )
        assert status == 200
        metrics = parse_prometheus(body.decode())
        red = metrics["repro_http_requests_total"]
        worker_labels = {
            dict(labels).get("worker")
            for _name, labels in red["samples"]
        }
        # RED series from the router's own telemetry and each worker's.
        assert "router" in worker_labels
        assert worker_labels & {"0", "1"}
        duration = metrics["repro_http_request_duration_seconds"]
        assert duration["samples"], "merged duration histogram is empty"
