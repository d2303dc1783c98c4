"""Warm standby replication: WAL shipping, promotion, and failover chaos.

Two layers of coverage.  The in-process tests drive the replication
machinery directly — :class:`WalApplier` idempotence, a real
:class:`WalFollower` tailing a real ``/wal/stream`` over sockets, the
``/control/*`` plane, and ring-epoch fencing — with no child processes.
The chaos test then runs the full thing twice (one shard with a warm
standby, one without), SIGKILLs the primary in both, and holds the
cluster to the tentpole claims: the promoted standby serves
contributions ``np.array_equal`` to the batch estimate of everything
acknowledged, the router never answers a bare 500 throughout, and the
warm failover gap is strictly below cold respawn-plus-full-replay.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import estimate_vfl_first_order
from repro.io import save_vfl_training_log
from repro.serve import (
    ClusterRouter,
    ClusterSupervisor,
    EvaluationHTTPServer,
    EvaluationService,
    ReplicationError,
    WalApplier,
    WalFollower,
    WorkerController,
    WriteAheadLog,
    recover,
)
from repro.serve.replication import APPLIED_GAUGE, LAG_GAUGE
from repro.serve.wal import RecoveryError

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def vfl_log(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster_repl") / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return {"path": str(path), "log": vfl_result.log}


def _get(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read())


def _post(port, path, payload, timeout=120, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def _spec(vfl_log, run_id):
    return {"kind": "vfl", "log_path": vfl_log["path"], "run_id": run_id}


# ------------------------------------------------------------- WalApplier


class TestWalApplier:
    def _primary_entries(self, vfl_log, tmp_path, run_id="vfl-src"):
        from repro.serve.http import register_from_spec

        wal = WriteAheadLog(tmp_path / "primary-wal")
        service = EvaluationService(wal=wal)
        register_from_spec(service, _spec(vfl_log, run_id))
        want = service.report(run_id).totals
        entries = wal.replay()
        service.close()
        return entries, want

    def test_applies_a_whole_stream_bit_identically(self, vfl_log, tmp_path):
        entries, want = self._primary_entries(vfl_log, tmp_path)
        replica = EvaluationService()
        applier = WalApplier(replica)
        for entry in entries:
            applier.apply(entry)
        assert applier.runs_restored == 1
        assert applier.epochs_replayed == vfl_log["log"].n_epochs
        assert np.array_equal(replica.report("vfl-src").totals, want)
        replica.close()

    def test_redelivery_is_free(self, vfl_log, tmp_path):
        """Every frame applied twice: same registry, same numbers — this
        is what makes refetch-after-restart and adopt-after-dual-write
        safe without any dedup bookkeeping."""
        entries, want = self._primary_entries(vfl_log, tmp_path)
        replica = EvaluationService()
        applier = WalApplier(replica)
        for entry in entries:
            applier.apply(entry)
        for entry in entries:
            applier.apply(entry)
        (summary,) = replica.runs()
        assert summary["epochs"] == vfl_log["log"].n_epochs
        assert np.array_equal(replica.report("vfl-src").totals, want)
        replica.close()

    def test_digest_divergence_refuses(self, vfl_log, tmp_path):
        from repro.serve.wal import WalEntry

        entries, _ = self._primary_entries(vfl_log, tmp_path)
        replica = EvaluationService()
        applier = WalApplier(replica)
        applier.apply(entries[0])
        first_ingest = entries[1]
        tampered = WalEntry(
            first_ingest.seq,
            first_ingest.kind,
            dict(first_ingest.payload, digest="0" * 64),
        )
        with pytest.raises(RecoveryError, match="digest"):
            applier.apply(tampered)
        replica.close()


# ----------------------------------------------------- follower over HTTP


class _Primary:
    """An in-process primary: WAL-attached service behind a real server."""

    def __init__(self, tmp_path):
        self.wal_dir = tmp_path / "primary-wal"
        self.wal = WriteAheadLog(self.wal_dir)
        self.service = EvaluationService(wal=self.wal)
        self.server = EvaluationHTTPServer(("127.0.0.1", 0), self.service)
        self.server.serve_background()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


@pytest.fixture()
def primary(tmp_path):
    node = _Primary(tmp_path)
    yield node
    node.close()


def _standby(tmp_path, primary, start=True):
    service = EvaluationService()
    wal = WriteAheadLog(tmp_path / "standby-wal")
    applier = WalApplier(service)
    recover(service, wal, applier=applier)
    service.attach_wal(wal)
    follower = WalFollower(
        applier,
        "127.0.0.1",
        primary.server.port,
        primary_wal_dir=primary.wal_dir,
        start_seq=wal.next_seq,
        poll_s=0.02,
        registry=service.obs.registry,
    )
    if start:
        follower.start()
    return service, follower


def _wait(predicate, deadline_s=60, message="condition never held"):
    deadline = time.monotonic() + deadline_s
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


class TestWalFollower:
    def test_tails_the_stream_to_zero_lag_and_exports_gauges(
        self, primary, vfl_log, tmp_path
    ):
        from repro.serve.http import register_from_spec

        register_from_spec(primary.service, _spec(vfl_log, "vfl-repl"))
        end_seq = primary.wal.next_seq - 1
        standby, follower = _standby(tmp_path, primary)
        try:
            _wait(
                lambda: follower.next_seq - 1 == end_seq,
                message="follower never caught up",
            )
            assert follower.lag == 0
            assert follower.stats()["applied_seq"] == end_seq
            assert np.array_equal(
                standby.report("vfl-repl").totals,
                primary.service.report("vfl-repl").totals,
            )
            snapshot = standby.obs.registry.snapshot()
            (lag_series,) = snapshot[LAG_GAUGE]["series"]
            assert lag_series["value"] == 0.0
            (applied_series,) = snapshot[APPLIED_GAUGE]["series"]
            assert applied_series["value"] == float(end_seq)
        finally:
            follower.stop()
            standby.close()

    def test_standby_relogs_locally_and_resumes_after_restart(
        self, primary, vfl_log, tmp_path
    ):
        from repro.serve.http import register_from_spec

        register_from_spec(primary.service, _spec(vfl_log, "vfl-resume"))
        end_seq = primary.wal.next_seq - 1
        standby, follower = _standby(tmp_path, primary)
        _wait(lambda: follower.next_seq - 1 == end_seq)
        follower.stop()
        standby.close()
        # "Restart" the standby over its own WAL: recovery rebuilds the
        # registry and the new follower resumes at the primary seq its
        # local WAL length implies — caught up, nothing refetched.
        standby2, follower2 = _standby(tmp_path, primary, start=False)
        try:
            assert follower2.next_seq == end_seq + 1
            assert np.array_equal(
                standby2.report("vfl-resume").totals,
                primary.service.report("vfl-resume").totals,
            )
        finally:
            standby2.close()

    def test_promote_drains_the_unshipped_tail_from_the_wal_file(
        self, primary, vfl_log, tmp_path
    ):
        """A follower that never streamed a byte still promotes whole:
        the catch-up drain reads the dead primary's fsync'd file."""
        from repro.serve.http import register_from_spec

        register_from_spec(primary.service, _spec(vfl_log, "vfl-drain"))
        total = primary.wal.next_seq - 1
        standby, follower = _standby(tmp_path, primary, start=False)
        try:
            primary.close()  # the primary is dead; only its file remains
            stats = follower.promote()
            assert stats["promoted"] is True
            assert stats["drained"] == total
            assert follower.lag == 0
            assert np.array_equal(
                standby.report("vfl-drain").totals,
                estimate_vfl_first_order(vfl_log["log"]).totals,
            )
            # Promotion dropped the standby gauges; a frozen lag would
            # read as live replication delay on a primary.
            snapshot = standby.obs.registry.snapshot()
            assert LAG_GAUGE not in snapshot
            assert APPLIED_GAUGE not in snapshot
            # Idempotent: a second promote is a no-op report.
            assert follower.promote()["drained"] == 0
        finally:
            follower.stop()
            standby.close()

    def test_promote_refuses_a_diverged_follower(self, primary, tmp_path):
        standby, follower = _standby(tmp_path, primary, start=False)
        try:
            follower.error = RecoveryError("digest mismatch")
            with pytest.raises(ReplicationError, match="diverged"):
                follower.promote()
        finally:
            standby.close()


# ------------------------------------------------------- /control plane


@pytest.fixture()
def controlled_worker(tmp_path):
    wal = WriteAheadLog(tmp_path / "worker-wal")
    service = EvaluationService(wal=wal)
    server = EvaluationHTTPServer(("127.0.0.1", 0), service)
    server.ring_epoch = 0
    applier = WalApplier(service)
    server.controller = WorkerController(server, service, applier)
    server.serve_background()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


class TestControlPlane:
    def test_status_reports_role_and_epoch(self, controlled_worker):
        status, body, _ = _post(controlled_worker.port, "/control/status", {})
        assert status == 200
        assert body == {"role": "primary", "ring_epoch": 0, "replication": None}

    def test_epoch_is_monotonic(self, controlled_worker):
        status, body, _ = _post(
            controlled_worker.port, "/control/epoch", {"ring_epoch": 3}
        )
        assert status == 200 and body["ring_epoch"] == 3
        # A lagging retry must not un-fence the worker.
        status, body, _ = _post(
            controlled_worker.port, "/control/epoch", {"ring_epoch": 1}
        )
        assert status == 200 and body["ring_epoch"] == 3
        status, body, _ = _post(
            controlled_worker.port, "/control/epoch", {"ring_epoch": "x"}
        )
        assert status == 400

    def test_stale_epoch_write_answers_typed_409_with_fence(
        self, controlled_worker, vfl_log
    ):
        _post(controlled_worker.port, "/control/epoch", {"ring_epoch": 2})
        status, body, headers = _post(
            controlled_worker.port,
            "/runs",
            _spec(vfl_log, "vfl-fenced"),
            headers={"X-Repro-Ring-Epoch": "1"},
        )
        assert status == 409
        assert "stale ring epoch" in body["error"]
        assert headers["X-Repro-Ring-Epoch"] == "2"
        # Current-epoch and unstamped writes pass.
        status, _, _ = _post(
            controlled_worker.port,
            "/runs",
            _spec(vfl_log, "vfl-fresh"),
            headers={"X-Repro-Ring-Epoch": "2"},
        )
        assert status == 201
        status, _, _ = _post(
            controlled_worker.port, "/runs", _spec(vfl_log, "vfl-unstamped")
        )
        assert status == 201

    def test_promote_on_a_primary_is_409(self, controlled_worker):
        status, body, _ = _post(controlled_worker.port, "/control/promote", {})
        assert status == 409 and "primary" in body["error"]

    def test_unknown_verb_is_404_and_no_controller_is_404(self, tmp_path):
        service = EvaluationService()
        bare = EvaluationHTTPServer(("127.0.0.1", 0), service)
        bare.serve_background()
        try:
            status, body, _ = _post(bare.port, "/control/status", {})
            assert status == 404 and "no cluster controller" in body["error"]
        finally:
            bare.shutdown()
            bare.server_close()
            service.close()

    def test_adopt_applies_frames_and_rejects_tampering(
        self, controlled_worker, vfl_log, tmp_path
    ):
        from repro.serve.http import register_from_spec

        source_wal = WriteAheadLog(tmp_path / "source-wal")
        source = EvaluationService(wal=source_wal)
        register_from_spec(source, _spec(vfl_log, "vfl-moved"))
        want = source.report("vfl-moved").totals
        frames = [entry.frame() for entry in source_wal.replay()]
        source.close()

        status, body, _ = _post(
            controlled_worker.port, "/control/adopt", {"frames": frames}
        )
        assert status == 200
        assert body == {"adopted": len(frames), "runs": ["vfl-moved"]}
        assert np.array_equal(
            controlled_worker.service.report("vfl-moved").totals, want
        )
        # Adoption is idempotent (dual-writes may have landed already).
        status, body, _ = _post(
            controlled_worker.port, "/control/adopt", {"frames": frames}
        )
        assert status == 200 and body["adopted"] == len(frames)

        bad = dict(frames[0], payload=dict(frames[0]["payload"], run_id="evil"))
        status, body, _ = _post(
            controlled_worker.port, "/control/adopt", {"frames": [bad]}
        )
        assert status == 400 and "checksum" in body["error"]
        status, body, _ = _post(
            controlled_worker.port, "/control/adopt", {"frames": "nope"}
        )
        assert status == 400


class TestWalStreamEndpoint:
    def test_stream_serves_validated_frames(self, controlled_worker, vfl_log):
        _post(controlled_worker.port, "/runs", _spec(vfl_log, "vfl-stream"))
        page = _get(
            controlled_worker.port, "/wal/stream?from_seq=1&limit=3"
        )
        assert [f["seq"] for f in page["frames"]] == [1, 2, 3]
        assert page["end_seq"] == vfl_log["log"].n_epochs + 1
        from repro.serve.wal import validate_wal_record

        for frame in page["frames"]:
            assert validate_wal_record(frame) is not None

    def test_stream_without_wal_is_404_and_bad_params_400(self, tmp_path):
        service = EvaluationService()
        bare = EvaluationHTTPServer(("127.0.0.1", 0), service)
        bare.serve_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(bare.port, "/wal/stream")
            assert excinfo.value.code == 404
        finally:
            bare.shutdown()
            bare.server_close()
            service.close()
        # Bad query params on a WAL-attached worker: typed 400.

    def test_bad_stream_params_are_400(self, controlled_worker):
        for query in ("from_seq=0", "limit=0", "from_seq=x"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(controlled_worker.port, f"/wal/stream?{query}")
            assert excinfo.value.code == 400


# ------------------------------------------------------------ chaos: failover


class _StatusPoller(threading.Thread):
    """Hammers one URL, recording (monotonic time, status) pairs."""

    def __init__(self, url):
        super().__init__(daemon=True)
        self.url = url
        self.samples = []
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                with urllib.request.urlopen(self.url, timeout=5) as response:
                    self.samples.append((time.monotonic(), response.status))
                    response.read()
            except urllib.error.HTTPError as exc:
                self.samples.append((time.monotonic(), exc.code))
                exc.read()
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError):
                # Connection-level failure at the *router* would be a
                # harness bug; the router itself stays up throughout.
                self.samples.append((time.monotonic(), -1))
            time.sleep(0.05)

    def stop(self):
        self._halt.set()
        self.join(timeout=10)


def _failover_gap_s(tmp_path, vfl_log, *, standby_replicas):
    """Kill shard 0's primary; return (gap seconds, served totals, info)."""
    supervisor = ClusterSupervisor(
        1,
        wal_root=tmp_path / f"wals-standby{standby_replicas}",
        standby_replicas=standby_replicas,
        probe_interval_s=0.2,
        probe_reset_s=1.0,
        # Slows every ingest — including cold-respawn WAL replay, which
        # is exactly the window warm promotion exists to close.
        chaos_ingest_ms=80.0,
    )
    supervisor.start()
    router = ClusterRouter(("127.0.0.1", 0), supervisor)
    router.serve_background()
    run_id = "vfl-failover"
    try:
        status, _, _ = _post(
            router.port, "/runs", _spec(vfl_log, run_id), timeout=180
        )
        assert status == 201
        end_seq = vfl_log["log"].n_epochs + 1  # register + every epoch
        if standby_replicas:
            info = _get(router.port, "/cluster")["shards"]["0"]
            host, port = info["standby"]["address"]
            _wait(
                lambda: (
                    _post(port, "/control/status", {})[1]["replication"] or {}
                ).get("applied_seq") == end_seq,
                deadline_s=120,
                message="standby never caught up",
            )
        victim_pid = _get(router.port, "/cluster")["shards"]["0"]["pid"]
        poller = _StatusPoller(
            f"http://127.0.0.1:{router.port}/runs/{run_id}/contributions"
        )
        poller.start()
        killed_at = time.monotonic()
        os.kill(victim_pid, signal.SIGKILL)
        _wait(
            lambda: any(
                at > killed_at and code == 200 for at, code in poller.samples
            ),
            deadline_s=120,
            message="shard never came back",
        )
        poller.stop()
        recovered_at = next(
            at
            for at, code in poller.samples
            if at > killed_at and code == 200
        )
        statuses = {code for _, code in poller.samples}
        assert statuses <= {200, 503, 504}, f"bare failure seen: {statuses}"
        served = _get(router.port, f"/runs/{run_id}/contributions")
        info = _get(router.port, "/cluster")
        return recovered_at - killed_at, np.asarray(served["totals"]), info
    finally:
        router.shutdown()
        router.server_close()
        supervisor.stop()


def test_warm_failover_beats_cold_replay_and_stays_bit_identical(
    vfl_log, tmp_path
):
    want = estimate_vfl_first_order(vfl_log["log"]).totals

    warm_gap, warm_totals, warm_info = _failover_gap_s(
        tmp_path, vfl_log, standby_replicas=1
    )
    shard = warm_info["shards"]["0"]
    assert shard["promotions"] >= 1
    assert shard["respawns"] == 0, "warm path must promote, not respawn"
    assert np.array_equal(warm_totals, want)
    # The promoted primary got a fresh standby behind it.
    assert warm_info["standby_replicas"] == 1
    assert "standby" in shard

    cold_gap, cold_totals, cold_info = _failover_gap_s(
        tmp_path, vfl_log, standby_replicas=0
    )
    assert cold_info["shards"]["0"]["respawns"] >= 1
    assert np.array_equal(cold_totals, want)

    # The tentpole number: catching up the lag beats replaying the world.
    assert warm_gap < cold_gap, (
        f"warm failover ({warm_gap:.2f}s) not faster than cold replay "
        f"({cold_gap:.2f}s)"
    )


def test_cluster_shard_entries_keep_their_keys(tmp_path):
    # loadbench reads shards.*.address and shards.*.pid, the cluster
    # example reads respawns: the /cluster entry keys are a contract.
    supervisor = ClusterSupervisor(
        1,
        wal_root=tmp_path / "wals",
        standby_replicas=1,
        probe_interval_s=0.2,
        probe_reset_s=1.0,
    )
    with supervisor:
        router = ClusterRouter(("127.0.0.1", 0), supervisor)
        router.serve_background()
        try:
            info = _get(router.port, "/cluster")
        finally:
            router.shutdown()
            router.server_close()
    assert set(info) == {
        "replicas", "supervised", "ring_epoch", "standby_replicas",
        "rebalance", "shards",
    }
    entry = info["shards"]["0"]
    assert set(entry) == {
        "address", "wal_dir", "pid", "alive", "breaker", "respawns",
        "respawn_backoff_s", "promotions", "standby",
    }
    assert set(entry["standby"]) == {
        "address", "wal_dir", "pid", "alive", "generation",
    }
    assert entry["alive"] and entry["standby"]["alive"]
    assert entry["address"] != entry["standby"]["address"]
    assert entry["standby"]["generation"] == 1
    # stop() took down the primary and its standby alike.
    stopped = supervisor.describe()["shards"]["0"]
    assert not stopped["alive"] and not stopped["standby"]["alive"]
