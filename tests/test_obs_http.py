"""The observability HTTP surface: Prometheus scrapes and profiles.

Boots a real :class:`EvaluationHTTPServer` and drives
``/metricz?format=prometheus`` (content type, ``# TYPE`` lines, a strict
parser round-trip, monotone counters across scrapes — exactly what the
CI smoke job validates) and ``/runs/{id}/profile``, while pinning the
default JSON ``/metricz`` payload to its pre-observability key set.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.io import save_vfl_training_log
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.serve import EvaluationHTTPServer, EvaluationService
from tests.test_obs_registry import parse_prometheus

pytestmark = pytest.mark.timeout(120)


@pytest.fixture()
def server(vfl_result, tmp_path):
    log_path = tmp_path / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, log_path)
    httpd = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
    httpd.serve_background()
    payload = json.dumps(
        {"kind": "vfl", "log_path": str(log_path), "run_id": "r"}
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{httpd.port}/runs",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30):
        pass
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    httpd.service.close()


def _get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=30
    ) as response:
        return response.status, response.headers, response.read()


class TestPrometheusEndpoint:
    def test_content_type_and_type_lines(self, server):
        status, headers, body = _get(server, "/metricz?format=prometheus")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE ")]
        assert type_lines, "no # TYPE lines in exposition output"
        for name in (
            "repro_serve_query_latency_seconds",
            "repro_serve_ingest_latency_seconds",
            "repro_http_request_latency_seconds",
            "repro_serve_runs",
            "repro_serve_uptime_seconds",
        ):
            assert any(line.endswith(f"{name} histogram")
                       or line.endswith(f"{name} gauge")
                       or line.endswith(f"{name} counter")
                       for line in type_lines), f"missing # TYPE for {name}"

    def test_round_trips_a_strict_parser(self, server):
        _get(server, "/runs/r/leaderboard")
        _, _, body = _get(server, "/metricz?format=prometheus")
        parsed = parse_prometheus(body.decode())
        samples = parsed["repro_serve_query_latency_seconds"]["samples"]
        count = samples[("repro_serve_query_latency_seconds_count", ())]
        assert count >= 1.0
        assert parsed["repro_serve_runs"]["samples"][("repro_serve_runs", ())] == 1.0

    def test_counters_are_monotone_across_scrapes(self, server):
        def scrape():
            _, _, body = _get(server, "/metricz?format=prometheus")
            return parse_prometheus(body.decode())

        first = scrape()
        _get(server, "/runs/r/leaderboard")
        _get(server, "/runs/r/contributions")
        second = scrape()
        for name, family in first.items():
            if family["type"] != "counter":
                continue
            for key, value in family["samples"].items():
                assert second[name]["samples"][key] >= value, (
                    f"counter {key} went backwards"
                )
        http_count = ("repro_http_request_latency_seconds_count", ())
        assert (
            second["repro_http_request_latency_seconds"]["samples"][http_count]
            > first["repro_http_request_latency_seconds"]["samples"][http_count]
        )

    def test_unknown_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/metricz?format=yaml")
        assert excinfo.value.code == 400


class TestJsonMetricz:
    def test_default_payload_keeps_its_key_set(self, server):
        """The JSON ``/metricz`` surface existing dashboards scrape."""
        status, headers, body = _get(server, "/metricz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        metrics = json.loads(body)
        assert set(metrics) == {
            "uptime_seconds",
            "runs",
            "closed",
            "cache",
            "admission",
            "latency",
            "obs",
        }
        assert set(metrics["latency"]) == {"ingest", "query", "http"}
        for summary in metrics["latency"].values():
            assert set(summary) == {"count", "mean_ms", "p50_ms", "p95_ms", "max_ms"}
        assert metrics["obs"]["tracing"]["enabled"] is False
        assert metrics["obs"]["profiling"] is True


class TestProfileEndpoint:
    def test_profile_reports_estimator_phases(self, server):
        _get(server, "/runs/r/contributions")
        status, _, body = _get(server, "/runs/r/profile")
        assert status == 200
        profile = json.loads(body)
        assert profile["run_id"] == "r"
        assert profile["enabled"] is True
        assert profile["epochs"] > 0
        phases = {row["phase"] for row in profile["phases"]}
        # Registration ingested the whole log, so the streaming phases ran.
        assert "estimator.dot_products" in phases
        assert "cache.digest" in phases
        for row in profile["phases"]:
            assert row["calls"] >= 1
            assert row["total_s"] >= 0.0

    def test_profile_of_unknown_run_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/runs/ghost/profile")
        assert excinfo.value.code == 404
