"""Cluster chaos: SIGKILL a shard worker mid-ingest, demand bit-identity.

The whole point of per-shard WALs is that worker death loses *nothing*
acknowledged: the supervisor respawns the shard and the replacement
replays its WAL, so every contribution it serves afterwards is
``np.array_equal`` to the batch estimator over the exact replayed
prefix.  This test runs the real thing — spawn-context worker processes,
a router proxying over sockets, ``SIGKILL`` dead in the middle of a
slowed-down ingest — and holds the revived shard to that equality.
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
from repro.serve import ClusterRouter, ClusterSupervisor
from repro.vfl.log import VFLTrainingLog

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def vfl_log(vfl_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster_chaos") / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return {"path": str(path), "log": vfl_result.log}


def _get(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read())


def _wait_healthy(port, deadline_s=120):
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            health = _get(port, "/healthz", timeout=5)
            if health["status"] == "ok":
                return health
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            pass
        assert time.monotonic() < deadline, "cluster never became healthy"
        time.sleep(0.2)


def test_sigkill_mid_ingest_replays_bit_identical(vfl_log, tmp_path):
    """Kill the owning worker while epochs are streaming in; the respawn
    must serve exactly the batch answer for whatever prefix the WAL
    acknowledged — and the cluster must stay up throughout."""
    supervisor = ClusterSupervisor(
        2,
        wal_root=tmp_path / "wals",
        probe_interval_s=0.2,
        probe_reset_s=1.0,
        chaos_ingest_ms=200.0,  # ~5s for 25 epochs: a wide kill window
    )
    supervisor.start()
    router = ClusterRouter(("127.0.0.1", 0), supervisor)
    router.serve_background()
    run_id = "vfl-chaos"
    try:
        # Stream the registration in the background: with the slowed
        # ingest it keeps the owner busy for seconds.
        def register():
            request = urllib.request.Request(
                f"http://127.0.0.1:{router.port}/runs",
                data=json.dumps(
                    {"kind": "vfl", "log_path": vfl_log["path"],
                     "run_id": run_id}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                urllib.request.urlopen(request, timeout=120).read()
            except (urllib.error.URLError, ConnectionError):
                pass  # the kill tears this request; that is the test

        ingest_thread = threading.Thread(target=register, daemon=True)
        ingest_thread.start()

        # Wait until the owner's WAL has acknowledged the registration
        # plus a few epochs — then the kill provably lands mid-ingest.
        # (Polling /runs cannot see this: the run lock is held for the
        # whole batched ingest, so HTTP observers block until it ends.
        # The WAL file is the ground truth, appended record by record.)
        owner = supervisor.ring.shard_for(run_id)
        wal_path = os.path.join(supervisor.specs[owner].wal_dir, "serve.wal")
        deadline = time.monotonic() + 60
        while True:
            try:
                with open(wal_path, "rb") as fh:
                    acknowledged = sum(1 for _ in fh)
            except FileNotFoundError:
                acknowledged = 0
            if 3 <= acknowledged < 20:  # register + >=2 of the 25 ingests
                break
            assert time.monotonic() < deadline, (
                f"WAL never reached a mid-ingest state ({acknowledged} lines)"
            )
            time.sleep(0.02)

        cluster_info = _get(router.port, f"/cluster?key={run_id}")
        assert cluster_info["shard"] == str(owner)
        victim_pid = cluster_info["shards"][str(owner)]["pid"]
        os.kill(victim_pid, signal.SIGKILL)
        ingest_thread.join(timeout=120)

        # Failover: the supervisor respawns the shard, the WAL replays.
        _wait_healthy(router.port)
        info = _get(router.port, "/cluster")["shards"][str(owner)]
        assert info["pid"] != victim_pid
        assert info["respawns"] >= 1

        # The revived shard serves the run at some WAL-acknowledged
        # prefix — and bit-identical to the batch estimator over it.
        runs = {
            run["run_id"]: run for run in _get(router.port, "/runs")["runs"]
        }
        assert run_id in runs, "run lost by failover"
        replayed = runs[run_id]["epochs"]
        assert 1 <= replayed <= 25
        served = _get(router.port, f"/runs/{run_id}/contributions")
        full = vfl_log["log"]
        batch = estimate_vfl_first_order(
            VFLTrainingLog(
                full.feature_blocks, full.active_parties,
                full.records[:replayed],
            )
        )
        assert np.array_equal(np.asarray(served["totals"]), batch.totals)
        assert served["participant_ids"] == list(batch.participant_ids)

        # The cluster is whole again: new registrations land anywhere.
        post = urllib.request.Request(
            f"http://127.0.0.1:{router.port}/runs",
            data=json.dumps(
                {"kind": "vfl", "log_path": vfl_log["path"],
                 "run_id": "vfl-after"}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(post, timeout=120) as response:
            assert response.status == 201
    finally:
        router.shutdown()
        router.server_close()
        supervisor.stop()
    for entry in supervisor.describe()["shards"].values():
        assert not entry["alive"]


def test_sigint_leaves_workers_serving_and_sigterm_still_stops_them(tmp_path):
    """A Ctrl-C reaches the whole foreground process group: the workers
    must ignore it (the router drains on it), so none dies and none is
    respawned; the supervisor's own stop still takes them down."""
    supervisor = ClusterSupervisor(
        1, wal_root=tmp_path / "wals", probe_interval_s=0.2, probe_reset_s=1.0
    )
    supervisor.start()
    try:
        pid = supervisor.describe()["shards"]["0"]["pid"]
        os.kill(pid, signal.SIGINT)
        time.sleep(2.0)  # ten probe intervals: time enough to see a death
        entry = supervisor.describe()["shards"]["0"]
        assert entry["alive"] and entry["pid"] == pid
        assert entry["respawns"] == 0
    finally:
        supervisor.stop()
    assert not supervisor.describe()["shards"]["0"]["alive"]
