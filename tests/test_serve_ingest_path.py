"""The ``POST /runs`` ingest path: one spec loader, a content-keyed log
cache, and one fsync per POST.

The loader keys a parsed log on the SHA-256 of the file's bytes, so the
cache trusts no file metadata: a same-size rewrite with its mtime put
back is reloaded, and corrupted bytes at a cached path still fail
verification.  Cached arrays are read-only and charged at their real
size.  Behind a WAL, a POST's register record and epoch records are
written one at a time but made durable by a single fsync before the
201 — so a SIGKILL mid-POST still recovers to a whole prefix, and no
progress is reported before it is durable.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

import numpy as np
import pytest

from repro.core import estimate_vfl_first_order
from repro.experiments.workloads import build_hfl_workload
from repro.io import (
    load_vfl_training_log,
    save_training_log,
    save_vfl_training_log,
)
from repro.serve import (
    DeadlineExceeded,
    EvaluationHTTPServer,
    EvaluationService,
    WriteAheadLog,
    recover,
)
from repro.serve.http import ApiError, http_request, load_spec, register_from_spec
from repro.vfl.log import VFLTrainingLog

pytestmark = pytest.mark.timeout(300)  # inert without pytest-timeout (CI has it)

ROOT = Path(__file__).resolve().parents[1]
HFL_SEED = 0
HFL_SAMPLES = 300


@pytest.fixture(scope="module")
def hfl_path(tmp_path_factory):
    workload = build_hfl_workload(
        "mnist", n_parties=3, epochs=3, n_samples=HFL_SAMPLES, seed=HFL_SEED
    )
    path = tmp_path_factory.mktemp("ingest_path") / "hfl_run.npz"
    save_training_log(workload.result.log, path)
    return str(path)


@pytest.fixture()
def vfl_path(vfl_result, tmp_path):
    path = tmp_path / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return str(path)


def _hfl_spec(path, run_id):
    return {
        "kind": "hfl",
        "log_path": path,
        "dataset": "mnist",
        "seed": HFL_SEED,
        "n_samples": HFL_SAMPLES,
        "run_id": run_id,
    }


def _vfl_spec(path, run_id):
    return {"kind": "vfl", "log_path": path, "run_id": run_id}


def _totals(service, run_id):
    return service.report(run_id).totals


def _uncompressed_copy(log: VFLTrainingLog, path: Path) -> None:
    """Save ``log`` as an *uncompressed* ``.npz``.

    Two such files of logs with equal shapes and metadata are the same
    size to the byte, which is what a same-size rewrite test needs.
    """
    scratch = path.with_suffix(".tmp.npz")
    save_vfl_training_log(log, scratch)
    with np.load(scratch, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    scratch.unlink()
    np.savez(path, **arrays)


def _scaled_first_gradient(log: VFLTrainingLog) -> VFLTrainingLog:
    first = log.records[0]
    changed = type(first)(
        epoch=first.epoch,
        lr=first.lr,
        theta_before=first.theta_before,
        train_gradient=first.train_gradient * 2.0,
        val_gradient=first.val_gradient,
        weights=first.weights,
        train_loss=first.train_loss,
        val_loss=first.val_loss,
        participation=first.participation,
    )
    return VFLTrainingLog(
        feature_blocks=log.feature_blocks,
        active_parties=log.active_parties,
        records=[changed] + list(log.records[1:]),
    )


class TestContentKeyedLogCache:
    def test_same_size_rewrite_with_old_mtime_is_reloaded(
        self, vfl_result, tmp_path
    ):
        path = tmp_path / "rewritten.npz"
        _uncompressed_copy(vfl_result.log, path)
        before = os.stat(path)
        service = EvaluationService()
        register_from_spec(service, _vfl_spec(str(path), "first"))

        rewritten = _scaled_first_gradient(vfl_result.log)
        _uncompressed_copy(rewritten, path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size,
            before.st_mtime_ns,
        )

        register_from_spec(service, _vfl_spec(str(path), "second"))
        want = estimate_vfl_first_order(rewritten).totals
        assert np.array_equal(_totals(service, "second"), want)
        assert not np.array_equal(
            _totals(service, "first"), _totals(service, "second")
        )
        service.close()

    def test_corrupted_bytes_at_a_cached_path_answer_400(self, vfl_path):
        httpd = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
        httpd.serve_background()
        try:

            def post(run_id):
                body = json.dumps(_vfl_spec(vfl_path, run_id)).encode()
                status, _, data = http_request(
                    "127.0.0.1", httpd.port, "POST", "/runs",
                    body=body, timeout_s=60,
                )
                return status, json.loads(data)

            assert post("cached")[0] == 201
            raw = bytearray(Path(vfl_path).read_bytes())
            middle = len(raw) // 2
            raw[middle] ^= 0xFF
            Path(vfl_path).write_bytes(bytes(raw))
            status, body = post("corrupt")
            assert status == 400
            assert "training log" in body["error"]
            # The failed load was not cached: the run does not exist.
            assert {run["run_id"] for run in httpd.service.runs()} == {"cached"}
        finally:
            httpd.shutdown()
            httpd.server_close()
            httpd.service.close()

    def test_tampered_content_fails_its_checksum(self, vfl_result, tmp_path):
        path = tmp_path / "tampered.npz"
        save_vfl_training_log(vfl_result.log, path)
        service = EvaluationService()
        register_from_spec(service, _vfl_spec(str(path), "good"))
        # New array bytes under the old embedded checksum.
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["train_gradient"] = arrays["train_gradient"] * 2.0
        np.savez_compressed(path, **arrays)
        with pytest.raises(ApiError, match="integrity") as refused:
            register_from_spec(service, _vfl_spec(str(path), "bad"))
        assert refused.value.status == 400
        service.close()

    def test_cached_arrays_are_read_only(self, hfl_path):
        service = EvaluationService()
        register_from_spec(service, _hfl_spec(hfl_path, "frozen"))
        inputs = load_spec(service, _hfl_spec(hfl_path, "frozen"))
        record = inputs.log.records[0]
        for array in (record.theta_before, record.local_updates, record.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            inputs.validation.X[0] = 0.0
        service.close()

    def test_the_cache_charges_the_real_log_size_and_evicts(
        self, vfl_result, vfl_path, tmp_path
    ):
        log = vfl_result.log
        array_bytes = sum(
            array.nbytes
            for record in log.records
            for array in (
                record.theta_before,
                record.train_gradient,
                record.val_gradient,
                record.weights,
                record.participation,
            )
            if array is not None
        ) + sum(np.asarray(block).nbytes for block in log.feature_blocks)
        service = EvaluationService(cache_bytes=array_bytes + array_bytes // 2)
        load_spec(service, _vfl_spec(vfl_path, "a"))
        assert service.cache.current_bytes == array_bytes
        assert service.cache.stats()["entries"] == 1

        other = tmp_path / "other.npz"
        save_vfl_training_log(_scaled_first_gradient(log), other)
        load_spec(service, _vfl_spec(str(other), "b"))
        stats = service.cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        # The first log was evicted: loading it again is a miss.
        misses = stats["misses"]
        load_spec(service, _vfl_spec(vfl_path, "a"))
        assert service.cache.stats()["misses"] == misses + 1
        service.close()

    def test_cold_and_warm_posts_equal_a_fresh_process_batch_estimate(
        self, hfl_path, vfl_path
    ):
        service = EvaluationService()
        totals = {}
        for kind, spec in (("hfl", _hfl_spec), ("vfl", _vfl_spec)):
            path = hfl_path if kind == "hfl" else vfl_path
            misses = service.cache.stats()["misses"]
            register_from_spec(service, spec(path, f"{kind}-cold"))
            cold_misses = service.cache.stats()["misses"] - misses
            register_from_spec(service, spec(path, f"{kind}-warm"))
            cold = _totals(service, f"{kind}-cold")
            warm = _totals(service, f"{kind}-warm")
            assert cold_misses >= 1
            assert np.array_equal(cold, warm)
            totals[kind] = cold
        service.close()

        probe = (
            "import json, sys\n"
            "from repro.core import estimate_hfl_resource_saving, "
            "estimate_vfl_first_order\n"
            "from repro.io import load_training_log, load_vfl_training_log\n"
            "from repro.serve.http import hfl_validation_and_model\n"
            "hfl = estimate_hfl_resource_saving(load_training_log(sys.argv[1]), "
            f"*hfl_validation_and_model('mnist', {HFL_SEED}, {HFL_SAMPLES}))\n"
            "vfl = estimate_vfl_first_order(load_vfl_training_log(sys.argv[2]))\n"
            "print(json.dumps({k: [float(v).hex() for v in r.totals] "
            "for k, r in (('hfl', hfl), ('vfl', vfl))}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, hfl_path, vfl_path],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert done.returncode == 0, done.stderr
        batch = json.loads(done.stdout.splitlines()[-1])
        for kind, served in totals.items():
            want = np.array([float.fromhex(v) for v in batch[kind]])
            assert np.array_equal(served, want), kind


_NOT_A_LOG_PROBE = """
import json, os, resource, sys, time
# A loader that read /dev/zero unbounded would fail here, not exhaust the host.
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.serve import EvaluationHTTPServer, EvaluationService
from repro.serve.http import http_request

httpd = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
httpd.serve_background()
answers = {}
for name, path in json.loads(sys.argv[1]).items():
    body = json.dumps({"kind": "vfl", "log_path": path}).encode()
    started = time.perf_counter()
    status, _, data = http_request(
        "127.0.0.1", httpd.port, "POST", "/runs", body=body, timeout_s=20
    )
    answers[name] = [status, json.loads(data)["error"], time.perf_counter() - started]
httpd.shutdown()
print(json.dumps(answers))
"""


@pytest.mark.skipif(
    not (hasattr(os, "mkfifo") and os.path.exists("/dev/zero")),
    reason="needs POSIX FIFOs and /dev/zero",
)
def test_a_log_path_that_is_not_a_regular_zip_file_is_a_quick_400(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    text = tmp_path / "big.txt"
    text.write_bytes(b"not a log\n" * 400_000)
    paths = {
        "device": "/dev/zero",
        "fifo": str(fifo),
        "directory": str(tmp_path),
        "text": str(text),
    }
    done = subprocess.run(
        [sys.executable, "-c", _NOT_A_LOG_PROBE, json.dumps(paths)],
        env=dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    answers = json.loads(done.stdout.splitlines()[-1])
    assert set(answers) == set(paths)
    for name, (status, error, elapsed_s) in answers.items():
        assert status == 400, (name, error)
        assert "not a readable training log" in error, (name, error)
        assert elapsed_s < 5.0, (name, elapsed_s)


class _FsyncCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = os.fsync

        def counting(fd):
            self.calls += 1
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)


def _ten_epoch_log(vfl_result) -> VFLTrainingLog:
    log = vfl_result.log
    return VFLTrainingLog(
        feature_blocks=log.feature_blocks,
        active_parties=log.active_parties,
        records=list(log.records[:10]),
    )


class TestGroupCommit:
    def test_a_ten_epoch_post_makes_one_fsync(
        self, vfl_result, tmp_path, monkeypatch
    ):
        path = tmp_path / "ten.npz"
        save_vfl_training_log(_ten_epoch_log(vfl_result), path)
        service = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        fsyncs = _FsyncCounter(monkeypatch)
        summary = register_from_spec(service, _vfl_spec(str(path), "ten"))
        assert summary["epochs"] == 10
        assert fsyncs.calls == 1
        assert len(service.wal.replay()) == 11  # register + 10 epochs
        service.close()

    def test_a_live_ingest_makes_one_fsync_per_call(
        self, vfl_result, tmp_path, monkeypatch
    ):
        log = vfl_result.log
        service = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = service.register_vfl(log.feature_blocks, log.active_parties)
        fsyncs = _FsyncCounter(monkeypatch)
        for seq, record in enumerate(log.records[:4], start=1):
            service.ingest(run_id, record, seq=seq)
            assert fsyncs.calls == seq
        service.close()

    def test_wal_stream_ships_only_committed_records(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append("register", {"run_id": "r"})
            wal.append("ingest", {"run_id": "r", "epoch": 1}, sync=False)
            page = wal.frames_from(1)
            assert [f["seq"] for f in page["frames"]] == [1]
            assert page["next_seq"] == 2 and page["end_seq"] == 1
            wal.commit()
            page = wal.frames_from(1)
            assert [f["seq"] for f in page["frames"]] == [1, 2]
            assert page["next_seq"] == 3 and page["end_seq"] == 2

    def test_a_deadline_on_a_partial_post_is_durable_before_it_raises(
        self, vfl_result, vfl_path, tmp_path, monkeypatch
    ):
        k = 4

        class CutAfter:
            """A deadline that expires once ``k`` epochs are in."""

            def check(self, **progress):
                if progress["epochs_ingested"] >= k:
                    raise DeadlineExceeded(1.0, 2.0, progress)

        service = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        wal_file = service.wal.path
        synced_lines = []
        real = os.fsync

        def recording(fd):
            real(fd)
            synced_lines.append(len(wal_file.read_bytes().splitlines()))

        monkeypatch.setattr(os, "fsync", recording)
        inputs = load_spec(service, _vfl_spec(vfl_path, "cut"))
        run_id = inputs.register(service)
        with pytest.raises(DeadlineExceeded) as cut:
            service.ingest_log(run_id, inputs.log, deadline=CutAfter())
        assert cut.value.progress == {"epochs_ingested": k}
        # One fsync, issued before the raise, covering every record.
        assert synced_lines == [1 + k]
        service.wal._fh.close()  # a SIGKILL: nothing more reaches the file

        after = EvaluationService()
        report = recover(after, WriteAheadLog(tmp_path / "wal"))
        assert report.epochs_replayed == k
        prefix = VFLTrainingLog(
            feature_blocks=vfl_result.log.feature_blocks,
            active_parties=vfl_result.log.active_parties,
            records=list(vfl_result.log.records[:k]),
        )
        assert np.array_equal(
            _totals(after, "cut"), estimate_vfl_first_order(prefix).totals
        )
        after.close()

    def test_sigkill_mid_post_recovers_to_a_batch_equal_prefix(
        self, vfl_path, tmp_path
    ):
        wal_dir = tmp_path / "wal"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--wal-dir", str(wal_dir), "--chaos-ingest-ms", "100",
            ],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            port = int(banner.rsplit(":", 1)[1])
            body = json.dumps(_vfl_spec(vfl_path, "killed")).encode()
            poster = threading.Thread(
                target=_post_ignoring_the_kill, args=(port, body), daemon=True
            )
            poster.start()
            wal_file = wal_dir / WriteAheadLog.FILENAME
            deadline = time.monotonic() + 60
            lines = 0
            while time.monotonic() < deadline:
                lines = len(wal_file.read_bytes().splitlines()) if wal_file.exists() else 0
                if lines >= 3:
                    break
                time.sleep(0.02)
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
            poster.join(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()

        log = load_vfl_training_log(vfl_path)
        entries = WriteAheadLog(wal_dir).replay()
        # Killed inside the POST: some, not all, of its records are on disk.
        assert 3 <= len(entries) < 1 + log.n_epochs
        after = EvaluationService()
        report = recover(after, WriteAheadLog(wal_dir))
        k = report.epochs_replayed
        assert k == len(entries) - 1
        prefix = VFLTrainingLog(
            feature_blocks=log.feature_blocks,
            active_parties=log.active_parties,
            records=list(log.records[:k]),
        )
        assert np.array_equal(
            _totals(after, "killed"), estimate_vfl_first_order(prefix).totals
        )
        after.close()


def _post_ignoring_the_kill(port: int, body: bytes) -> None:
    try:
        http_request("127.0.0.1", port, "POST", "/runs", body=body, timeout_s=60)
    except (OSError, HTTPException):
        pass  # the server died mid-request, as intended
