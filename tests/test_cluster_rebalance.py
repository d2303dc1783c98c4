"""Zero-downtime shard rebalancing: online grow/shrink and mid-move chaos.

The first test holds ``POST /cluster/resize`` to the full protocol on a
live cluster: the move set is exactly ``HashRing.plan_resize``'s, every
read during the resize answers 200 (no downtime, not even a 503), the
ring epoch bumps and fences stale-stamped writes with a typed 409, the
aggregated ``/runs`` view never shows a migrated run twice, and every
run's contributions stay ``np.array_equal`` to the batch estimate
through a grow *and* the shrink back.

The SIGKILL test kills the destination worker mid-migration and
expects the resize to complete anyway: ``_migrate_run`` re-scans the
source WAL file and re-ships through ``/control/adopt`` (idempotent, so
a partially-adopted run is free to re-deliver) while the monitor thread
respawns the victim.

The last two tests fail a grow before its flip — an added shard that
cannot start, then a new owner holding a diverged copy of a moving run.
Each resize answers a typed error naming the phase (503 + Retry-After,
409), undoes its spawns, and leaves ``/cluster`` listing exactly the
ring's shards.
"""

import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import estimate_vfl_first_order
from repro.io import save_vfl_training_log
from repro.serve import ClusterRouter, ClusterSupervisor, HashRing
from repro.serve import EvaluationService, WriteAheadLog
from repro.serve import cluster as cluster_module
from repro.serve.http import register_from_spec
from repro.vfl.log import VFLTrainingLog

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def vfl_log(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster_rebalance") / "vfl_run.npz"
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


class _ReadPoller(threading.Thread):
    """Round-robins contribution reads across runs, recording statuses."""

    def __init__(self, port, run_ids):
        super().__init__(daemon=True)
        self.port = port
        self.run_ids = run_ids
        self.statuses = []
        self._halt = threading.Event()

    def run(self):
        index = 0
        while not self._halt.is_set():
            run_id = self.run_ids[index % len(self.run_ids)]
            index += 1
            url = (
                f"http://127.0.0.1:{self.port}/runs/{run_id}/contributions"
            )
            try:
                with urllib.request.urlopen(url, timeout=10) as response:
                    self.statuses.append(response.status)
                    response.read()
            except urllib.error.HTTPError as exc:
                self.statuses.append(exc.code)
                exc.read()
            except (urllib.error.URLError, ConnectionError, OSError):
                self.statuses.append(-1)
            time.sleep(0.03)

    def stop(self):
        self._halt.set()
        self.join(timeout=10)


def _cluster(tmp_path, n_shards, **kwargs):
    supervisor = ClusterSupervisor(
        n_shards,
        wal_root=tmp_path / "wals",
        probe_interval_s=0.2,
        probe_reset_s=1.0,
        **kwargs,
    )
    supervisor.start()
    router = ClusterRouter(("127.0.0.1", 0), supervisor)
    router.serve_background()
    return supervisor, router


def _teardown(supervisor, router):
    router.shutdown()
    router.server_close()
    supervisor.stop()


def test_online_grow_and_shrink_is_zero_downtime_and_bit_identical(
    vfl_log, tmp_path
):
    supervisor, router = _cluster(tmp_path, 2)
    run_ids = [f"vfl-mv-{i}" for i in range(6)]
    want = estimate_vfl_first_order(vfl_log["log"]).totals
    try:
        for run_id in run_ids:
            status, _, _ = _post(
                router.port,
                "/runs",
                {"kind": "vfl", "log_path": vfl_log["path"], "run_id": run_id},
            )
            assert status == 201
        grow_plan = HashRing(range(2)).plan_resize(range(3), run_ids)

        poller = _ReadPoller(router.port, run_ids)
        poller.start()

        status, body, _ = _post(
            router.port, "/cluster/resize", {"shards": 3}, timeout=180
        )
        assert status == 200
        assert body["from"] == 2 and body["to"] == 3
        assert body["ring_epoch"] == 1
        assert body["moved"] == len(grow_plan.moves)
        assert body["runs_moved"] == sorted(grow_plan.moves)

        info = _get(router.port, "/cluster")
        assert info["ring_epoch"] == 1
        assert sorted(info["shards"]) == ["0", "1", "2"]

        # A write stamped with the pre-resize epoch is fenced with a
        # typed 409 naming the worker's current fence.
        spec = supervisor.specs[0]
        status, body, headers = _post(
            spec.port,
            "/runs",
            {"kind": "vfl", "log_path": vfl_log["path"], "run_id": "vfl-late"},
            headers={"X-Repro-Ring-Epoch": "0"},
        )
        assert status == 409
        assert "stale ring epoch" in body["error"]
        assert headers["X-Repro-Ring-Epoch"] == "1"

        # The aggregated registry shows each migrated run exactly once
        # (the stale copy in its old owner's registry is shadowed).
        listed = [run["run_id"] for run in _get(router.port, "/runs")["runs"]]
        assert sorted(listed) == run_ids

        for run_id in run_ids:
            served = _get(router.port, f"/runs/{run_id}/contributions")
            assert np.array_equal(np.asarray(served["totals"]), want)

        # And back down: the shrink path (retiring shards) holds the
        # same properties, at the next epoch.
        status, body, _ = _post(
            router.port, "/cluster/resize", {"shards": 2}, timeout=180
        )
        assert status == 200
        assert body["ring_epoch"] == 2
        shrink_plan = HashRing(range(3)).plan_resize(range(2), run_ids)
        assert body["moved"] == len(shrink_plan.moves)

        poller.stop()
        # Zero downtime means zero: every read during both resizes
        # answered 200, not "only typed errors".
        assert poller.statuses, "poller never sampled"
        assert set(poller.statuses) == {200}

        info = _get(router.port, "/cluster")
        assert sorted(info["shards"]) == ["0", "1"]
        listed = [run["run_id"] for run in _get(router.port, "/runs")["runs"]]
        assert sorted(listed) == run_ids
        for run_id in run_ids:
            served = _get(router.port, f"/runs/{run_id}/contributions")
            assert np.array_equal(np.asarray(served["totals"]), want)
    finally:
        _teardown(supervisor, router)


def test_resize_validation_and_concurrency_guard(vfl_log, tmp_path):
    supervisor, router = _cluster(tmp_path, 1)
    try:
        for bad in (0, -1, "three", True, None):
            status, body, _ = _post(
                router.port, "/cluster/resize", {"shards": bad}
            )
            assert status == 400, bad
            assert "positive integer" in body["error"]
        # Resizing to the current size is a cheap no-op at the same epoch.
        status, body, _ = _post(router.port, "/cluster/resize", {"shards": 1})
        assert status == 200
        assert body["moved"] == 0 and body["ring_epoch"] == 0
    finally:
        _teardown(supervisor, router)


def test_sigkill_of_the_destination_mid_migration_still_lands_every_run(
    vfl_log, tmp_path
):
    # Pick ids whose 1->2 shard resize moves at least two runs onto the
    # newcomer (the shard we will kill) and keeps at least one in place.
    target_ring = HashRing(range(2))
    candidates = [f"vfl-mv-{i}" for i in range(60)]
    movers = [c for c in candidates if target_ring.shard_for(c) == 1][:2]
    stayer = next(c for c in candidates if target_ring.shard_for(c) == 0)
    run_ids = sorted(movers + [stayer])
    assert len(run_ids) == 3

    # chaos_ingest_ms slows every applied record — including adoption on
    # the destination — holding the migration window open long enough to
    # land a SIGKILL inside it deterministically.
    supervisor, router = _cluster(tmp_path, 1, chaos_ingest_ms=60.0)
    want = estimate_vfl_first_order(vfl_log["log"]).totals
    try:
        for run_id in run_ids:
            status, _, _ = _post(
                router.port,
                "/runs",
                {"kind": "vfl", "log_path": vfl_log["path"], "run_id": run_id},
                timeout=180,
            )
            assert status == 201

        poller = _ReadPoller(router.port, run_ids)
        poller.start()

        outcome = {}

        def _resize():
            try:
                outcome["result"] = supervisor.resize(2)
            except Exception as exc:  # surfaced by the main thread
                outcome["error"] = exc

        resizer = threading.Thread(target=_resize, daemon=True)
        resizer.start()

        # Wait for the migration phase, then kill the adopting worker.
        deadline = time.monotonic() + 120
        while True:
            assert time.monotonic() < deadline, "migration never started"
            rebalance = supervisor.describe().get("rebalance")
            if rebalance is not None and rebalance["phase"] == "migrating":
                break
            time.sleep(0.01)
        victim_pid = supervisor.describe()["shards"]["1"]["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        resizer.join(timeout=180)
        assert not resizer.is_alive(), "resize never finished"
        assert "error" not in outcome, outcome.get("error")
        result = outcome["result"]
        assert result["ring_epoch"] == 1
        assert sorted(result["runs_moved"]) == sorted(movers)

        poller.stop()
        assert poller.statuses, "poller never sampled"
        # The victim's death may surface as typed unavailability on
        # reads that raced the respawn — but never as a bare 500.
        assert set(poller.statuses) <= {200, 503, 504}

        info = _get(router.port, "/cluster")
        assert info["shards"]["1"]["respawns"] >= 1

        listed = [run["run_id"] for run in _get(router.port, "/runs")["runs"]]
        assert sorted(listed) == run_ids
        for run_id in run_ids:
            served = _get(router.port, f"/runs/{run_id}/contributions")
            assert np.array_equal(np.asarray(served["totals"]), want)
    finally:
        _teardown(supervisor, router)


def test_a_failed_grow_answers_typed_and_undoes_its_spawns(
    vfl_log, tmp_path, monkeypatch
):
    supervisor, router = _cluster(tmp_path, 2)
    run_ids = [f"vfl-mv-{i}" for i in range(6)]
    grow_plan = HashRing(range(2)).plan_resize(range(3), run_ids)
    assert grow_plan.moves
    want = estimate_vfl_first_order(vfl_log["log"]).totals
    # The added shard's port is already taken, so its worker dies on
    # bind and never becomes ready.
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", 0))
    squatter.listen()
    try:
        for run_id in run_ids:
            status, _, _ = _post(
                router.port,
                "/runs",
                {"kind": "vfl", "log_path": vfl_log["path"], "run_id": run_id},
            )
            assert status == 201

        with monkeypatch.context() as patch:
            patch.setattr(
                cluster_module, "_free_port",
                lambda host: squatter.getsockname()[1],
            )
            status, body, headers = _post(
                router.port, "/cluster/resize", {"shards": 3}, timeout=180
            )
        assert status == 503, body
        assert body["phase"] == "spawning" and body["shards"] == [2]
        assert int(headers["Retry-After"]) >= 1

        # The spawn was undone: /cluster lists exactly the ring's shards.
        info = _get(router.port, "/cluster")
        assert sorted(info["shards"]) == ["0", "1"]
        assert sorted(map(str, supervisor.ring.shards)) == ["0", "1"]
        assert info["ring_epoch"] == 0 and info["rebalance"] is None

        # A retry to the same count grows the ring and moves the runs.
        status, body, _ = _post(
            router.port, "/cluster/resize", {"shards": 3}, timeout=180
        )
        assert status == 200, body
        assert body["moved"] == len(grow_plan.moves)
        assert body["runs_moved"] == sorted(grow_plan.moves)
        info = _get(router.port, "/cluster")
        assert sorted(info["shards"]) == ["0", "1", "2"]
        assert sorted(map(str, supervisor.ring.shards)) == ["0", "1", "2"]
        for run_id in run_ids:
            served = _get(router.port, f"/runs/{run_id}/contributions")
            assert np.array_equal(np.asarray(served["totals"]), want)
    finally:
        squatter.close()
        _teardown(supervisor, router)


def test_a_diverged_adopt_answers_409_and_keeps_the_old_ring(vfl_log, tmp_path):
    full = vfl_log["log"]
    mover = next(
        c for c in (f"vfl-dv-{i}" for i in range(60))
        if HashRing(range(2)).shard_for(c) == 1
    )
    # The WAL directory shard 1 will boot from already holds a different
    # run under the mover's id: the real epoch 1, then an epoch 2 of other
    # bytes.  Adopting the real run diverges at that epoch.
    first, second = full.records[:2]
    forked = type(second)(
        epoch=second.epoch,
        lr=second.lr,
        theta_before=second.theta_before,
        train_gradient=second.train_gradient * 2.0,
        val_gradient=second.val_gradient,
        weights=second.weights,
        participation=second.participation,
    )
    short_path = tmp_path / "short.npz"
    save_vfl_training_log(
        VFLTrainingLog(full.feature_blocks, full.active_parties, [first, forked]),
        short_path,
    )
    planted = WriteAheadLog(tmp_path / "wals" / "shard-1")
    with EvaluationService(wal=planted) as service:
        register_from_spec(
            service,
            {"kind": "vfl", "log_path": str(short_path), "run_id": mover},
        )
    planted.close()

    supervisor, router = _cluster(tmp_path, 1)
    try:
        status, _, _ = _post(
            router.port,
            "/runs",
            {"kind": "vfl", "log_path": vfl_log["path"], "run_id": mover},
        )
        assert status == 201
        status, body, _ = _post(
            router.port, "/cluster/resize", {"shards": 2}, timeout=180
        )
        assert status == 409, body
        assert body["phase"] == "migrating" and body["run_id"] == mover
        assert (body["source"], body["dest"]) == (0, 1)

        info = _get(router.port, "/cluster")
        assert sorted(info["shards"]) == ["0"]
        assert sorted(map(str, supervisor.ring.shards)) == ["0"]
        assert info["ring_epoch"] == 0 and info["rebalance"] is None
        served = _get(router.port, f"/runs/{mover}/contributions")
        want = estimate_vfl_first_order(full).totals
        assert np.array_equal(np.asarray(served["totals"]), want)
    finally:
        _teardown(supervisor, router)
