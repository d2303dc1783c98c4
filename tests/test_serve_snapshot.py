"""Published answer snapshots: readers never wait, and only durable
epochs are served; an epoch with a non-finite row is refused at ingest.

Each durable epoch swaps in an immutable per-run answer; every query
reads it without the run lock.  The contracts pinned here:

* the snapshot's totals are the bytes of ``np.vstack(rows).sum(axis=0)``
  (Hypothesis, including n = 1 and ``-0.0`` columns);
* a read while an ingest is stuck inside the estimator, or while the
  WAL's fsync is blocked, answers at once with the previous epoch count;
* a NaN/±inf row is refused (``NonFiniteRow``) and changes nothing —
  rows, counters, ``report().extra``, digest, WAL — for every backend;
  over HTTP it is a 400 naming the run and the epoch; a publisher
  dead-letters it on the first attempt; a WAL already holding one fails
  ``recover()`` with ``RecoveryError`` naming the record;
* the 200 bodies are the bytes of the previous release minus
  ``"stale"`` (``tests/golden_query_bodies.json``).
"""

import dataclasses
import json
import os
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import estimate_vfl_first_order
from repro.core.streaming import NonFiniteRow, _StreamingBase
from repro.io import save_vfl_training_log
from repro.serve import (
    ChaosPolicy,
    ContributionPublisher,
    EvaluationHTTPServer,
    EvaluationService,
    RunDigest,
    WriteAheadLog,
    inject_chaos,
    recover,
)
from repro.serve.wal import INGEST, RecoveryError, encode_row
from repro.vfl.log import VFLTrainingLog
from tests.conftest import small_model_factory

pytestmark = pytest.mark.timeout(180)

GOLDEN = Path(__file__).with_name("golden_query_bodies.json")
QUERIES = [
    ("contributions", {}),
    ("leaderboard", {}),
    ("leaderboard", {"top": 2}),
    ("weights", {"scheme": "rectified"}),
    ("weights", {"scheme": "softmax"}),
]


def _vfl_prefix(log, k):
    return VFLTrainingLog(log.feature_blocks, log.active_parties, log.records[:k])


def _poisoned_vfl(log, t):
    """Record ``t`` with an ``inf`` in the first active party's block."""
    record = log.records[t]
    gradient = record.train_gradient.copy()
    gradient[log.feature_blocks[log.active_parties[0]][0]] = np.inf
    return dataclasses.replace(record, train_gradient=gradient)


def _poisoned_hfl(record):
    updates = record.local_updates.copy()
    updates[0] = np.inf
    return dataclasses.replace(record, local_updates=updates)


def _answers(svc, run_id):
    return [svc.query(method, run_id, **kwargs) for method, kwargs in QUERIES]


class _Server:
    def __init__(self, service):
        self.httpd = EvaluationHTTPServer(("127.0.0.1", 0), service)
        self.httpd.serve_background()

    def get(self, path, timeout=10.0):
        conn = HTTPConnection("127.0.0.1", self.httpd.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, path, body):
        conn = HTTPConnection("127.0.0.1", self.httpd.port, timeout=30)
        try:
            conn.request("POST", path, body=json.dumps(body).encode())
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class _Rows(_StreamingBase):
    method = "rows"


class TestBufferSum:
    @given(
        t=st.integers(1, 3000),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        negative_zero_column=st.booleans(),
    )
    @example(t=2876, n=1, seed=0, negative_zero_column=False)
    @example(t=7, n=3, seed=1, negative_zero_column=True)
    def test_totals_are_the_bytes_of_the_stacked_sum(
        self, t, n, seed, negative_zero_column
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 7, size=(t, 1))
        rows = list(rng.standard_normal((t, n)) * scale)
        if negative_zero_column:
            for row in rows:
                row[0] = -0.0
        estimator = _Rows(range(n))
        for row in rows:
            estimator.restore(row, {})
        want = np.vstack(rows).sum(axis=0)
        assert estimator.totals().tobytes() == want.tobytes()
        assert estimator.per_epoch().tobytes() == np.vstack(rows).tobytes()


class TestNonFiniteRows:
    def test_probe_serves_every_clean_epoch_fresh_and_recovers_equal(
        self, vfl_result, tmp_path
    ):
        """3 clean epochs, 1 with ``inf``, 2 clean: 5 epochs served."""
        log = vfl_result.log
        svc = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
        for record in log.records[:3]:
            svc.ingest(run_id, record)
        with pytest.raises(NonFiniteRow, match=f"run {run_id!r}: epoch 4 "):
            svc.ingest(run_id, _poisoned_vfl(log, 3))
        for record in log.records[3:5]:
            svc.ingest(run_id, record)
        live = _answers(svc, run_id)
        assert [answer["epochs"] for answer in live] == [5] * len(QUERIES)
        assert all("stale" not in answer for answer in live)
        batch = estimate_vfl_first_order(_vfl_prefix(log, 5))
        assert np.array_equal(live[0]["totals"], batch.totals)
        assert svc.health() == {"status": "ok", "runs": 1}
        svc.close()

        after = EvaluationService()
        with WriteAheadLog(tmp_path / "wal") as wal:
            report = recover(after, wal)
        assert report.epochs_replayed == 5
        assert _answers(after, run_id) == live
        after.close()

    @pytest.mark.parametrize("estimator", ["digfl", "gtg_shapley", "dpvs"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_refused_epoch_changes_nothing(
        self, hfl_result, hfl_federation, tmp_path, estimator
    ):
        log = hfl_result.log
        svc = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = svc.register_hfl(
            log.participant_ids,
            hfl_federation.validation,
            small_model_factory,
            estimator=estimator,
        )
        for record in log.records[:3]:
            svc.ingest(run_id, record)
        run = svc._run(run_id)

        def state():
            return (
                run.estimator.n_epochs,
                run.estimator.totals().tobytes(),
                run.estimator.counter_values(),
                svc.report(run_id).extra,
                svc.run_digest(run_id),
                svc.wal.path.read_bytes(),
                svc.contributions(run_id),
            )

        before = state()
        with pytest.raises(NonFiniteRow, match="epoch 4"):
            svc.ingest(run_id, _poisoned_hfl(log.records[3]))
        assert state() == before
        # The run goes on: the clean record lands as epoch 4.
        assert svc.ingest(run_id, log.records[3]) == 4
        svc.close()

    def test_publisher_dead_letters_a_refused_epoch_on_the_first_attempt(
        self, vfl_result
    ):
        log = vfl_result.log
        with EvaluationService() as svc:
            run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
            sleeps = []
            publisher = ContributionPublisher(
                svc, run_id, max_retries=4, sleep=sleeps.append
            )
            assert publisher.publish(log.records[0])["epochs"] == 1
            detail = publisher.publish(_poisoned_vfl(log, 1))
            assert detail["dead_letter"] is True
            assert detail["attempts"] == 1
            assert "NonFiniteRow" in detail["error"]
            assert sleeps == []  # a refusal is permanent: no backoff
            assert svc.contributions(run_id)["epochs"] == 1

    def test_post_of_a_log_with_a_non_finite_epoch_is_400(
        self, vfl_result, tmp_path
    ):
        log = vfl_result.log
        records = list(log.records[:4])
        records[1] = _poisoned_vfl(log, 1)
        path = tmp_path / "poisoned.npz"
        save_vfl_training_log(
            VFLTrainingLog(log.feature_blocks, log.active_parties, records), path
        )
        svc = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        server = _Server(svc)
        try:
            status, body = server.post(
                "/runs", {"kind": "vfl", "log_path": str(path), "run_id": "bad"}
            )
            assert status == 400
            assert "run 'bad'" in body["error"] and "epoch 2" in body["error"]
            status, health = server.get("/healthz")
            assert status == 200 and json.loads(health)["status"] == "ok"
            # The durable prefix stays: epoch 1 is served.
            status, runs = server.get("/runs")
            assert [run["epochs"] for run in json.loads(runs)["runs"]] == [1]
        finally:
            server.close()
            svc.close()

    def test_recover_refuses_a_logged_non_finite_row(self, vfl_result, tmp_path):
        log = vfl_result.log
        svc = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
        for record in log.records[:2]:
            svc.ingest(run_id, record)
        # A record a writer without the ingest check could have logged:
        # a valid chain link carrying a non-finite row.
        link = RunDigest.resume(svc.run_digest(run_id), 2).update_vfl(
            log.records[2]
        )
        row = np.full(len(log.active_parties), np.inf)
        seq = svc.wal.append(
            INGEST,
            {
                "run_id": run_id,
                "epoch": 3,
                "row": encode_row(row),
                "counters": {},
                "hash": link.record_hash,
                "digest": link.hexdigest(),
            },
        )
        svc.close()
        with WriteAheadLog(tmp_path / "wal") as wal:
            with pytest.raises(RecoveryError, match=f"seq {seq} .*NonFiniteRow"):
                recover(EvaluationService(), wal)


class TestReadersNeverWait:
    def test_runs_and_reads_answer_while_an_ingest_is_stuck(self, vfl_result):
        log = vfl_result.log
        svc = EvaluationService()
        server = _Server(svc)
        release = threading.Event()
        try:
            run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
            svc.ingest(run_id, log.records[0])
            entered = threading.Event()

            def block(_s):
                entered.set()
                release.wait(timeout=60)

            inject_chaos(
                svc, run_id,
                ChaosPolicy(latency_prob=1.0, latency_ms=1.0, sleep=block),
            )
            ingest = threading.Thread(
                target=svc.ingest, args=(run_id, log.records[1])
            )
            ingest.start()
            assert entered.wait(timeout=30)
            status, runs = server.get("/runs", timeout=1.0)
            assert status == 200
            assert json.loads(runs)["runs"][0]["epochs"] == 1
            status, board = server.get(f"/runs/{run_id}/leaderboard", timeout=1.0)
            assert status == 200 and json.loads(board)["epochs"] == 1
            status, profile = server.get(f"/runs/{run_id}/profile", timeout=1.0)
            assert status == 200 and json.loads(profile)["epochs"] == 1
            release.set()
            ingest.join(timeout=60)
            status, board = server.get(f"/runs/{run_id}/leaderboard")
            assert json.loads(board)["epochs"] == 2
        finally:
            release.set()
            server.close()
            svc.close()

    def test_concurrent_reads_see_whole_prefixes(self, vfl_result):
        """More readers than cores, a tiny switch interval: every answer
        is the batch estimate of exactly the epochs it reports."""
        log = vfl_result.log
        want = {
            k: estimate_vfl_first_order(_vfl_prefix(log, k)).totals.tolist()
            for k in range(1, log.n_epochs + 1)
        }
        svc = EvaluationService()
        run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
        svc.ingest(run_id, log.records[0])
        torn, done = [], threading.Event()

        def read():
            while not done.is_set():
                answer = svc.query("contributions", run_id)
                if answer["totals"] != want[answer["epochs"]]:
                    torn.append(answer)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for record in log.records[1:]:
                svc.ingest(run_id, record)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=60)
        assert not any(reader.is_alive() for reader in readers)
        assert torn == []
        assert svc.contributions(run_id)["epochs"] == log.n_epochs
        svc.close()

    def test_a_read_during_a_blocked_fsync_shows_only_durable_epochs(
        self, vfl_result, tmp_path, monkeypatch
    ):
        log = vfl_result.log
        svc = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
        svc.ingest_log(run_id, _vfl_prefix(log, 2))
        syncing, release = threading.Event(), threading.Event()
        real = os.fsync

        def blocked(fd):
            syncing.set()
            release.wait(timeout=60)
            real(fd)

        monkeypatch.setattr(os, "fsync", blocked)
        writer = threading.Thread(target=svc.ingest_log, args=(run_id, log))
        writer.start()
        try:
            assert syncing.wait(timeout=30)
            # Every record is written and flushed, none is durable yet.
            assert svc._run(run_id).estimator.n_epochs == log.n_epochs
            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(svc.contributions(run_id))
            )
            reader.start()
            reader.join(timeout=1.0)
            assert [answer["epochs"] for answer in answers] == [2]
        finally:
            release.set()
            writer.join(timeout=60)
        assert svc.contributions(run_id)["epochs"] == log.n_epochs
        svc.close()


class TestGoldenBodies:
    def test_bodies_are_the_previous_bytes_minus_stale(
        self, vfl_result, hfl_result, hfl_federation
    ):
        golden = json.loads(GOLDEN.read_text())
        svc = EvaluationService()
        svc.register_vfl_log(vfl_result.log, run_id="vfl-digfl")
        svc.register_hfl_log(
            hfl_result.log,
            hfl_federation.validation,
            small_model_factory,
            run_id="hfl-gtg",
            estimator="gtg_shapley",
        )
        server = _Server(svc)
        try:
            for run_id in ("vfl-digfl", "hfl-gtg"):
                for method, kwargs in QUERIES:
                    query = "&".join(f"{k}={v}" for k, v in kwargs.items())
                    path = f"/runs/{run_id}/{method}" + (f"?{query}" if query else "")
                    status, body = server.get(path)
                    key = f"{run_id} {method} {json.dumps(kwargs, sort_keys=True)}"
                    want = golden[key].replace('"stale": false, ', "")
                    assert status == 200
                    assert body == want.encode(), key
        finally:
            server.close()
            svc.close()
