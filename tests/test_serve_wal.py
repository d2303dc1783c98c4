"""The write-ahead log and crash recovery of the serving registry.

The acceptance contract: kill a serving process at any moment — even
mid-append, tearing the final WAL record — and ``recover`` rebuilds the
registry from the logged rows to the *exact* ingested epoch, with
``np.array_equal`` contributions against the uninterrupted service.  The
WAL holds the answer, so recovery reads no training-log file: a deleted
or rewritten log and an in-process (publisher-fed) run all come back.
Corruption anywhere before the tail refuses to replay; a digest that does
not extend its run's hash chain refuses to serve different numbers.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.io import save_vfl_training_log
from repro.serve import EvaluationService, WriteAheadLog, recover
from repro.serve.http import register_from_spec
from repro.serve.service import MissingRunInputs
from repro.serve.wal import (
    INGEST,
    REGISTER,
    RecoveryError,
    WalCorruption,
    WalEntry,
    decode_row,
    encode_row,
    scan_wal,
    validate_wal_record,
)

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.timeout(180)  # inert without pytest-timeout (CI has it)


@pytest.fixture()
def vfl_log_path(vfl_result, tmp_path):
    path = tmp_path / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, path)
    return str(path)


def _abandon(service):
    """Simulate a SIGKILL: drop the service without close() or wal.close().

    Every append was already fsync'd, so the WAL on disk is exactly what
    a killed process would leave behind; nothing else is flushed.
    """
    service.wal._fh.close()  # the OS would do this on process death


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(REGISTER, {"run_id": "r", "kind": "vfl"})
            wal.append(INGEST, {"run_id": "r", "epoch": 1, "digest": "d1"})
        entries = WriteAheadLog(tmp_path).replay()
        assert [e.seq for e in entries] == [1, 2]
        assert entries[0].kind == REGISTER
        assert entries[1].payload["digest"] == "d1"

    def test_sequence_numbers_resume_across_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append(REGISTER, {"run_id": "r"}) == 1
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append(INGEST, {"run_id": "r", "epoch": 1}) == 2
        assert [e.seq for e in WriteAheadLog(tmp_path).replay()] == [1, 2]

    def test_concurrent_appends_stay_dense_and_replayable(self, tmp_path):
        """The server is threaded: registrations and ingests into
        different runs append concurrently.  Sequence numbers must come
        out dense and lines unmangled, or replay rejects the file."""
        wal = WriteAheadLog(tmp_path, fsync=False)
        workers, per_worker = 8, 25
        barrier = threading.Barrier(workers)

        def hammer(worker):
            barrier.wait()
            for epoch in range(1, per_worker + 1):
                wal.append(
                    INGEST,
                    {"run_id": f"r{worker}", "epoch": epoch, "digest": "d"},
                )

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        entries = wal.replay()
        assert [e.seq for e in entries] == list(
            range(1, workers * per_worker + 1)
        )
        # Every worker's stream arrived whole and in its own order.
        for worker in range(workers):
            epochs = [
                e.payload["epoch"]
                for e in entries
                if e.payload["run_id"] == f"r{worker}"
            ]
            assert epochs == list(range(1, per_worker + 1))
        wal.close()

    def test_unknown_kind_rejected(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            with pytest.raises(ValueError, match="kind"):
                wal.append("compact", {})

    def test_torn_tail_is_dropped_with_warning_and_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(REGISTER, {"run_id": "r"})
            wal.append(INGEST, {"run_id": "r", "epoch": 1})
            path = wal.path
        # A kill mid-append leaves a partial final line.
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "kind": "ingest", "payl')
        with pytest.warns(UserWarning, match="torn"):
            reopened = WriteAheadLog(tmp_path)
        assert reopened.tail_dropped
        assert [e.seq for e in reopened.replay()] == [1, 2]
        # The tail was truncated, so appending keeps the file replayable.
        assert reopened.append(INGEST, {"run_id": "r", "epoch": 2}) == 3
        final = WriteAheadLog(tmp_path).replay()
        assert [e.seq for e in final] == [1, 2, 3]

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(REGISTER, {"run_id": "r"})
            wal.append(INGEST, {"run_id": "r", "epoch": 1})
            path = wal.path
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["payload"]["run_id"] = "tampered"  # checksum now wrong
        lines[0] = (json.dumps(record, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalCorruption, match="line 1"):
            WriteAheadLog(tmp_path)

    def test_checksums_catch_single_byte_flips(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(INGEST, {"run_id": "r", "epoch": 1, "digest": "abc"})
            path = wal.path
        raw = bytearray(path.read_bytes())
        flip = raw.index(b"abc")
        raw[flip] = ord("x")
        path.write_bytes(bytes(raw))
        # The flipped line is the *final* line, so it reads as torn tail.
        with pytest.warns(UserWarning, match="torn"):
            assert WriteAheadLog(tmp_path).tail_dropped


class TestFramesAndValidation:
    """The replication wire format: frames, validation, file scanning."""

    def test_frame_is_byte_equivalent_to_the_written_record(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(REGISTER, {"run_id": "r", "kind": "vfl"})
            wal.append(INGEST, {"run_id": "r", "epoch": 1, "digest": "d"})
            path = wal.path
        on_disk = [json.loads(line) for line in path.read_bytes().splitlines()]
        entries, _, torn = scan_wal(path)
        assert not torn
        assert [e.frame() for e in entries] == on_disk

    def test_validate_round_trips_a_frame(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(INGEST, {"run_id": "r", "epoch": 1, "digest": "d"})
        (entry,) = WriteAheadLog(tmp_path).replay()
        again = validate_wal_record(entry.frame(), expected_seq=1)
        assert again == entry

    def test_validate_rejects_tampering_and_garbage(self):
        from repro.serve.wal import WalEntry

        frame = WalEntry(1, INGEST, {"run_id": "r", "epoch": 1}).frame()
        tampered = dict(frame, payload={"run_id": "r", "epoch": 2})
        assert validate_wal_record(tampered) is None
        assert validate_wal_record(dict(frame, checksum="nope")) is None
        assert validate_wal_record("not a dict") is None
        assert validate_wal_record({}) is None
        assert validate_wal_record(dict(frame, kind="compact")) is None

    def test_expected_seq_is_opt_in(self):
        """Adopt bodies ship per-run *subsets*: seq gaps are legitimate
        there, so the dense check only runs when a stream asks for it."""
        from repro.serve.wal import WalEntry

        frame = WalEntry(7, INGEST, {"run_id": "r", "epoch": 3}).frame()
        assert validate_wal_record(frame) is not None
        assert validate_wal_record(frame, expected_seq=7) is not None
        assert validate_wal_record(frame, expected_seq=1) is None

    def test_scan_wal_missing_file_and_torn_tail(self, tmp_path):
        assert scan_wal(tmp_path / "nope.wal") == ([], 0, False)
        with WriteAheadLog(tmp_path) as wal:
            wal.append(REGISTER, {"run_id": "r"})
            path = wal.path
        good = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"torn')
        entries, good_bytes, torn = scan_wal(path)
        assert [e.seq for e in entries] == [1]
        assert good_bytes == good
        assert torn

    def test_frames_from_pagination_and_lag_arithmetic(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for epoch in range(1, 6):
            wal.append(INGEST, {"run_id": "r", "epoch": epoch})
        page = wal.frames_from(1, limit=2)
        assert [f["seq"] for f in page["frames"]] == [1, 2]
        assert page["next_seq"] == 3 and page["end_seq"] == 5
        page = wal.frames_from(page["next_seq"], limit=10)
        assert [f["seq"] for f in page["frames"]] == [3, 4, 5]
        assert page["next_seq"] == 6 and page["end_seq"] == 5
        # Caught up: no frames, next_seq holds position.
        page = wal.frames_from(6)
        assert page == {"frames": [], "next_seq": 6, "end_seq": 5}
        with pytest.raises(ValueError, match="from_seq"):
            wal.frames_from(0)
        with pytest.raises(ValueError, match="limit"):
            wal.frames_from(1, limit=0)
        wal.close()

    def test_frames_from_empty_wal(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.frames_from(1) == {
                "frames": [],
                "next_seq": 1,
                "end_seq": 0,
            }

    def test_next_seq_property_tracks_appends(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.next_seq == 1
            wal.append(REGISTER, {"run_id": "r"})
            assert wal.next_seq == 2


class TestRecovery:
    def _spec(self, vfl_log_path, run_id="crashme"):
        return {"kind": "vfl", "log_path": vfl_log_path, "run_id": run_id}

    def test_full_register_then_recover_bit_for_bit(
        self, tmp_path, vfl_log_path, vfl_result
    ):
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(before, self._spec(vfl_log_path))
        want = before.report("crashme").totals
        _abandon(before)

        after = EvaluationService()
        report = recover(after, WriteAheadLog(tmp_path / "wal"))
        assert report.runs_restored == 1
        assert report.epochs_replayed == vfl_result.log.n_epochs
        assert "recovered 1 run(s)" in report.summary()
        assert np.array_equal(after.report("crashme").totals, want)
        after.close()

    def test_wal_order_is_register_then_that_runs_ingests(
        self, tmp_path, vfl_log_path, vfl_result
    ):
        service = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(service, self._spec(vfl_log_path))
        entries = service.wal.replay()
        assert entries[0].kind == REGISTER
        assert [e.kind for e in entries[1:]] == [INGEST] * vfl_result.log.n_epochs
        assert [e.payload["epoch"] for e in entries[1:]] == list(
            range(1, vfl_result.log.n_epochs + 1)
        )
        service.close()

    def test_partial_prefix_recovers_to_the_exact_epoch(
        self, tmp_path, vfl_log_path, vfl_result
    ):
        """The mid-ingest-kill scenario: the WAL holds k of n epochs."""
        k = 3
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = before.register_vfl(
            vfl_result.log.feature_blocks,
            vfl_result.log.active_parties,
            run_id="partial",
        )
        for record in vfl_result.log.records[:k]:
            before.ingest(run_id, record)
        want = before.report(run_id).totals  # the k-epoch prefix numbers
        _abandon(before)

        after = EvaluationService()
        report = recover(after, WriteAheadLog(tmp_path / "wal"))
        assert report.epochs_replayed == k
        (summary,) = after.runs()
        assert summary["epochs"] == k
        assert np.array_equal(after.report(run_id).totals, want)
        # The recovered service keeps serving: the remaining epochs
        # ingest on top, converging on the full-log numbers.
        after.ingest_log(run_id, vfl_result.log)
        full = EvaluationService()
        full_id = full.register_vfl_log(vfl_result.log)
        assert np.array_equal(
            after.report(run_id).totals, full.report(full_id).totals
        )
        full.close()
        after.close()

    def test_recovered_service_resumes_the_same_wal(
        self, tmp_path, vfl_log_path, vfl_result
    ):
        """attach_wal after recovery: new ingests append, not re-log."""
        k = 2
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        before.register_vfl(
            vfl_result.log.feature_blocks,
            vfl_result.log.active_parties,
            run_id="resume",
        )
        for record in vfl_result.log.records[:k]:
            before.ingest("resume", record)
        _abandon(before)

        wal = WriteAheadLog(tmp_path / "wal")
        after = EvaluationService()
        recover(after, wal)
        after.attach_wal(wal)
        after.ingest("resume", vfl_result.log.records[k])
        entries = wal.replay()
        # 1 register + k replay-era ingests + 1 new one, no duplicates.
        assert [e.kind for e in entries] == [REGISTER] + [INGEST] * (k + 1)
        assert entries[-1].payload["epoch"] == k + 1
        after.close()

    def test_a_deleted_log_file_still_recovers_the_run(
        self, tmp_path, vfl_log_path
    ):
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(before, self._spec(vfl_log_path, "doomed"))
        want = before.report("doomed").totals
        _abandon(before)
        os.remove(vfl_log_path)

        after = EvaluationService()
        report = recover(after, WriteAheadLog(tmp_path / "wal"))
        assert report.runs_restored == 1
        assert np.array_equal(after.report("doomed").totals, want)
        after.close()

    def test_a_rewritten_log_file_changes_no_recovered_answer(
        self, tmp_path, vfl_log_path, vfl_result
    ):
        from repro.vfl.log import VFLTrainingLog

        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(before, self._spec(vfl_log_path, "mutated"))
        want = before.report("mutated").totals
        _abandon(before)
        # Rewrite the log with a perturbed record: same shape, new bytes.
        records = list(vfl_result.log.records)
        tampered = records[0]
        tampered = type(tampered)(
            epoch=tampered.epoch,
            lr=tampered.lr,
            theta_before=tampered.theta_before + 1e-9,
            train_gradient=tampered.train_gradient,
            val_gradient=tampered.val_gradient * 2.0,
            weights=tampered.weights,
            participation=tampered.participation,
        )
        save_vfl_training_log(
            VFLTrainingLog(
                feature_blocks=vfl_result.log.feature_blocks,
                active_parties=vfl_result.log.active_parties,
                records=[tampered] + records[1:],
            ),
            vfl_log_path,
        )
        after = EvaluationService()
        recover(after, WriteAheadLog(tmp_path / "wal"))
        assert np.array_equal(after.report("mutated").totals, want)
        after.close()

    def test_a_tampered_digest_is_refused(self, tmp_path, vfl_log_path):
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(before, self._spec(vfl_log_path, "forged"))
        _abandon(before)
        path = tmp_path / "wal" / WriteAheadLog.FILENAME
        lines = path.read_bytes().splitlines()
        # A well-formed record (valid checksum) whose digest is not the
        # next link of its run's chain.
        entry = validate_wal_record(json.loads(lines[2]))
        forged = WalEntry(entry.seq, INGEST, dict(entry.payload, digest="0" * 64))
        lines[2] = json.dumps(forged.frame(), sort_keys=True).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        after = EvaluationService()
        with pytest.raises(RecoveryError, match="digest"):
            recover(after, WriteAheadLog(tmp_path / "wal"))
        after.close()

    def test_a_wal_without_rows_is_refused_at_its_first_record(self, tmp_path):
        """The format written before records carried rows: a register
        spec, then ingests holding only (run_id, epoch, digest)."""
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(REGISTER, {"kind": "vfl", "log_path": "x.npz", "run_id": "r"})
            wal.append(INGEST, {"run_id": "r", "epoch": 1, "digest": "d"})
        after = EvaluationService()
        with pytest.raises(RecoveryError, match="seq 1 .*digest_seed"):
            recover(after, WriteAheadLog(tmp_path / "wal"))
        after.close()

    def test_recover_refuses_a_service_with_a_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        service = EvaluationService(wal=wal)
        with pytest.raises(ValueError, match="without an attached WAL"):
            recover(service, wal)
        service.close()

    def test_live_published_runs_recover_bit_for_bit(
        self, tmp_path, vfl_result
    ):
        """Runs registered in process and fed by a publisher get a
        register record too, so they come back like POSTed ones — and a
        restored VFL run keeps ingesting from its register record."""
        log = vfl_result.log
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = before.register_vfl(log.feature_blocks, log.active_parties)
        publisher = before.publisher(run_id)
        for record in log.records[:3]:
            assert not publisher.publish(record).get("dead_letter")
        want = before.report(run_id).totals
        _abandon(before)

        after = EvaluationService()
        report = recover(after, WriteAheadLog(tmp_path / "wal"))
        assert (report.runs_restored, report.epochs_replayed) == (1, 3)
        assert np.array_equal(after.report(run_id).totals, want)
        after.ingest_log(run_id, log)
        full = EvaluationService()
        full_id = full.register_vfl_log(log)
        assert np.array_equal(
            after.report(run_id).totals, full.report(full_id).totals
        )
        full.close()
        after.close()

    def test_a_restored_in_process_hfl_run_serves_but_refuses_ingest(
        self, tmp_path, hfl_result, hfl_federation
    ):
        from tests.conftest import small_model_factory

        log = hfl_result.log
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        run_id = before.register_hfl(
            log.participant_ids, hfl_federation.validation, small_model_factory
        )
        for record in log.records[:2]:
            before.ingest(run_id, record)
        want = before.contributions(run_id)
        _abandon(before)

        after = EvaluationService()
        recover(after, WriteAheadLog(tmp_path / "wal"))
        assert after.contributions(run_id) == want
        with pytest.raises(MissingRunInputs, match="no validation set"):
            after.ingest(run_id, log.records[2])
        assert after.contributions(run_id) == want
        after.close()

    def test_a_restored_posted_hfl_run_rebuilds_its_inputs_on_a_live_epoch(
        self, tmp_path
    ):
        from repro.experiments.workloads import build_hfl_workload
        from repro.hfl.log import TrainingLog
        from repro.io import save_training_log

        log = build_hfl_workload(
            "mnist", n_parties=3, epochs=4, n_samples=300, seed=5
        ).result.log
        path = tmp_path / "hfl_run.npz"
        save_training_log(TrainingLog(log.participant_ids, log.records[:2]), path)
        spec = {"kind": "hfl", "log_path": str(path), "dataset": "mnist",
                "seed": 5, "n_samples": 300, "run_id": "grow"}
        before = EvaluationService(wal=WriteAheadLog(tmp_path / "wal"))
        register_from_spec(before, spec)
        _abandon(before)
        os.remove(path)

        after = EvaluationService()
        recover(after, WriteAheadLog(tmp_path / "wal"))
        after.ingest_log("grow", log)
        full = EvaluationService()
        save_training_log(log, path)
        register_from_spec(full, dict(spec, run_id="full"))
        assert np.array_equal(
            after.report("grow").totals, full.report("full").totals
        )
        assert after.run_digest("grow") == full.run_digest("full")
        full.close()
        after.close()


_PUBLISHER_CHILD = """
import json, sys, time
from repro.data import build_hfl_federation, mnist_like
from repro.hfl import HFLTrainer
from repro.nn import LRSchedule, make_mlp_classifier
from repro.serve import EvaluationService, WriteAheadLog

def factory():
    return make_mlp_classifier(100, 10, hidden=(8,), seed=0)

federation = build_hfl_federation(mnist_like(400, seed=0), 5, n_mislabeled=1, seed=7)
log = HFLTrainer(factory, epochs=5, lr_schedule=LRSchedule(0.5)).train(
    federation.locals, federation.validation
).log
service = EvaluationService(wal=WriteAheadLog(sys.argv[1]))
answers = {}
for name, options in (
    ("digfl", {}),
    ("gtg_shapley", {"max_permutations": 4}),
    ("dpvs", {"permutations": 3, "warmup_rounds": 1,
              "prune_below": 0.3, "revive_above": 0.6}),
):
    run_id = service.register_hfl(
        log.participant_ids, federation.validation, factory,
        run_id=name, estimator=name, estimator_options=options,
    )
    publisher = service.publisher(run_id)
    for record in log.records:
        assert not publisher.publish(record).get("dead_letter")
    report = service.report(run_id)
    answers[run_id] = {"totals": report.totals.tobytes().hex(), "extra": report.extra}
print(json.dumps(answers), flush=True)
time.sleep(600)
"""


def test_sigkill_with_publisher_fed_runs_recovers_them_bit_for_bit(tmp_path):
    """A real SIGKILL of a process whose runs were all fed in process:
    recovery brings back every run, ``report().extra`` included."""
    child = subprocess.Popen(
        [sys.executable, "-c", _PUBLISHER_CHILD, str(tmp_path / "wal")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        answers = json.loads(child.stdout.readline())
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL

    service = EvaluationService()
    report = recover(service, WriteAheadLog(tmp_path / "wal"))
    assert report.runs_restored == 3
    for run_id, want in answers.items():
        got = service.report(run_id)
        assert got.totals.tobytes().hex() == want["totals"], run_id
        assert json.loads(json.dumps(got.extra)) == want["extra"], run_id
    assert answers["dpvs"]["extra"]["dpvs"]["prune_events"] > 0
    service.close()


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf]


@given(
    bits=arrays(np.uint64, st.integers(0, 12), elements=st.integers(0, 2**64 - 1))
)
@example(bits=np.array(_SPECIAL_FLOATS).view(np.uint64))
@example(bits=np.array([0x7FF8000000000001, 0xFFF0000000000ABC], dtype=np.uint64))
def test_any_float64_row_round_trips_a_wal_frame_bit_for_bit(tmp_path_factory, bits):
    """Every float64 bit pattern — -0.0, subnormals, ±inf, any NaN
    payload — survives the WAL file and the checksummed frame path
    ``/wal/stream`` and ``/control/adopt`` ship."""
    row = bits.view(np.float64)
    directory = tmp_path_factory.mktemp("row")
    with WriteAheadLog(directory, fsync=False) as wal:
        wal.append(INGEST, {"run_id": "r", "epoch": 1, "row": encode_row(row)})
        (frame,) = wal.frames_from(1)["frames"]
    entry = validate_wal_record(json.loads(json.dumps(frame)), expected_seq=1)
    assert entry is not None
    assert decode_row(entry.payload["row"]).tobytes() == row.tobytes()
