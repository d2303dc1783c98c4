"""The HTTP JSON API end to end, over a real socket.

Boots :class:`EvaluationHTTPServer` on an ephemeral port, registers runs
by POSTing saved ``.npz`` logs (the HFL one re-deriving its validation
set and model from the dataset spec, exactly as the CLI workload builder
does), and exercises every endpoint plus the error paths — all with
stdlib ``urllib`` clients, matching how the CI smoke job drives it.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import estimate_hfl_resource_saving
from repro.experiments.workloads import build_hfl_workload
from repro.io import save_training_log, save_vfl_training_log
from repro.serve import EvaluationHTTPServer, EvaluationService
from repro.serve.http import hfl_validation_and_model

# Inert without the pytest-timeout plugin (CI installs it); a hung socket
# test then fails instead of wedging the suite.
pytestmark = pytest.mark.timeout(120)

EPOCHS = 3
SEED = 0
N_SAMPLES = 300


@pytest.fixture(scope="module")
def workload():
    return build_hfl_workload(
        "mnist", n_parties=3, epochs=EPOCHS, n_samples=N_SAMPLES, seed=SEED
    )


@pytest.fixture(scope="module")
def log_paths(workload, vfl_result, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_http")
    hfl_path = root / "hfl_run.npz"
    vfl_path = root / "vfl_run.npz"
    save_training_log(workload.result.log, hfl_path)
    save_vfl_training_log(vfl_result.log, vfl_path)
    return {"hfl": str(hfl_path), "vfl": str(vfl_path)}


@pytest.fixture()
def server():
    httpd = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
    httpd.serve_background()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    httpd.service.close()


def _get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=30
    ) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _register_hfl(server, log_paths, **extra):
    spec = {
        "kind": "hfl",
        "log_path": log_paths["hfl"],
        "dataset": "mnist",
        "seed": SEED,
        "n_samples": N_SAMPLES,
        **extra,
    }
    return _post(server, "/runs", spec)


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "runs": 0}

    def test_register_and_query_hfl_run(self, server, log_paths, workload):
        status, created = _register_hfl(server, log_paths, run_id="audit")
        assert status == 201
        assert created == {
            "run_id": "audit",
            "kind": "hfl",
            "estimator": "digfl",
            "epochs": EPOCHS,
        }

        status, contributions = _get(server, "/runs/audit/contributions")
        assert status == 200
        batch = estimate_hfl_resource_saving(
            workload.result.log,
            workload.federation.validation,
            workload.model_factory,
        )
        # The server re-derived validation + model from (dataset, seed):
        # its totals are bit-for-bit the local batch estimate.
        assert contributions["totals"] == [float(v) for v in batch.totals]
        assert contributions["epochs"] == EPOCHS

        status, leaderboard = _get(server, "/runs/audit/leaderboard?top=2")
        assert status == 200
        rows = leaderboard["leaderboard"]
        assert [row["rank"] for row in rows] == [1, 2]
        assert rows[0]["contribution"] >= rows[1]["contribution"]

        status, weights = _get(server, "/runs/audit/weights")
        assert status == 200
        assert weights["scheme"] == "rectified"
        assert sum(weights["weights"]) == pytest.approx(1.0)

        status, runs = _get(server, "/runs")
        assert status == 200
        assert [run["run_id"] for run in runs["runs"]] == ["audit"]

    def test_register_and_query_vfl_run(self, server, log_paths, vfl_result):
        status, created = _post(
            server, "/runs", {"kind": "vfl", "log_path": log_paths["vfl"]}
        )
        assert status == 201
        assert created["kind"] == "vfl"
        run_id = created["run_id"]
        status, contributions = _get(server, f"/runs/{run_id}/contributions")
        assert status == 200
        assert contributions["method"] == "digfl-vfl"
        assert len(contributions["totals"]) == len(vfl_result.log.active_parties)

    def test_metricz_counts_requests(self, server, log_paths):
        _register_hfl(server, log_paths)
        _get(server, "/runs/hfl-1/leaderboard")
        _get(server, "/runs/hfl-1/leaderboard")
        # The request latency is recorded *after* the response bytes go
        # out (the measurement includes the write), so the handler thread
        # can still be about to record when the client moves on — poll
        # instead of asserting the first scrape.
        deadline = time.monotonic() + 5.0
        while True:
            status, metrics = _get(server, "/metricz")
            assert status == 200
            if (
                metrics["latency"]["http"]["count"] >= 3
                or time.monotonic() > deadline
            ):
                break
            time.sleep(0.02)
        cache = metrics["cache"]
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        assert metrics["latency"]["http"]["count"] >= 3
        assert metrics["latency"]["query"]["count"] >= 2


class TestErrorPaths:
    def _status(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_unknown_run_is_404(self, server):
        code, body = self._status(lambda: _get(server, "/runs/ghost/leaderboard"))
        assert code == 404
        assert "ghost" in body["error"]

    def test_unknown_path_is_404(self, server):
        code, _ = self._status(lambda: _get(server, "/bogus"))
        assert code == 404

    def test_missing_log_path_is_400(self, server):
        code, body = self._status(lambda: _post(server, "/runs", {"kind": "hfl"}))
        assert code == 400
        assert "log_path" in body["error"]

    def test_bad_kind_is_400(self, server):
        code, body = self._status(
            lambda: _post(server, "/runs", {"kind": "diagonal", "log_path": "x"})
        )
        assert code == 400
        assert "kind" in body["error"]

    def test_nonexistent_log_file_is_400(self, server):
        code, body = self._status(
            lambda: _post(
                server, "/runs", {"kind": "vfl", "log_path": "/no/such.npz"}
            )
        )
        assert code == 400
        assert "/no/such.npz" in body["error"]

    def test_malformed_json_is_400(self, server):
        def call():
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/runs",
                data=b"{not json",
                method="POST",
            )
            urllib.request.urlopen(request, timeout=30)

        code, body = self._status(call)
        assert code == 400
        assert "not JSON" in body["error"]

    def test_bad_weight_scheme_is_400(self, server, log_paths):
        _register_hfl(server, log_paths)
        code, body = self._status(
            lambda: _get(server, "/runs/hfl-1/weights?scheme=banana")
        )
        assert code == 400
        assert "scheme" in body["error"]

    def test_bad_dataset_is_400(self, server, log_paths):
        code, body = self._status(
            lambda: _register_hfl(server, log_paths, dataset="imagenet")
        )
        assert code == 400
        assert "imagenet" in body["error"]

    def _raw(self, server, method, path, *, headers=(), body=None):
        """A request urllib refuses to make (bad lengths, odd methods)."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest(method, path, skip_accept_encoding=True)
            for name, value in headers:
                conn.putheader(name, value)
            conn.endheaders(body)
            response = conn.getresponse()
            return response, json.loads(response.read())
        finally:
            conn.close()

    def test_post_without_content_length_is_411(self, server):
        response, body = self._raw(server, "POST", "/runs")
        assert response.status == 411
        assert "Content-Length" in body["error"]

    def test_oversized_content_length_is_413(self, server):
        response, body = self._raw(
            server, "POST", "/runs",
            headers=[("Content-Length", str(32 * 1024 * 1024))],
        )
        assert response.status == 413
        assert "exceeds" in body["error"]

    def test_garbled_content_length_is_400(self, server):
        response, body = self._raw(
            server, "POST", "/runs", headers=[("Content-Length", "banana")],
        )
        assert response.status == 400
        assert "Content-Length" in body["error"]


class TestResilienceStatuses:
    """The typed-error HTTP mappings: 503 on closed, 429 + Retry-After."""

    def _status(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value

    def test_closed_service_is_503(self, server):
        server.service.close()
        error = self._status(lambda: _get(server, "/runs"))
        assert error.code == 503
        assert "closed" in json.loads(error.read())["error"]

    def test_shed_request_is_429_with_retry_after(self, log_paths, vfl_result):
        service = EvaluationService(admission_limit=1)
        httpd = EvaluationHTTPServer(("127.0.0.1", 0), service)
        httpd.serve_background()
        try:
            run_id = service.register_vfl(
                vfl_result.log.feature_blocks, vfl_result.log.active_parties
            )
            service.ingest(run_id, vfl_result.log.records[0])
            assert service.admission.try_acquire()  # the one slot, held
            try:
                error = self._status(
                    lambda: _get(httpd, f"/runs/{run_id}/leaderboard")
                )
                assert error.code == 429
                assert int(error.headers["Retry-After"]) >= 1
                assert service.admission.shed >= 1
            finally:
                service.admission.release()
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()


class TestValidationReconstruction:
    def test_spec_rederives_the_workload_validation_and_model(self, workload):
        """(dataset, seed, n_samples) alone reproduce the exact arrays."""
        validation, model_factory = hfl_validation_and_model(
            "mnist", SEED, N_SAMPLES
        )
        assert np.array_equal(validation.X, workload.federation.validation.X)
        assert np.array_equal(validation.y, workload.federation.validation.y)
        assert np.array_equal(
            model_factory().get_flat(), workload.model_factory().get_flat()
        )
