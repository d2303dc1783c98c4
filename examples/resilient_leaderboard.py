"""A leaderboard that survives a poisoned epoch and a killed server.

Two failure stories the audit batch job cannot tell, on one 4-party
MNIST-like cell:

**Act 1 — refused at the door, never down.**  Mid-serving, an epoch
arrives poisoned (seeded chaos injection: its local updates are NaN).
The service refuses it at ingest (``NonFiniteRow``) before it touches
the run's rows, counters, digest or answer, so the leaderboard keeps
serving every clean epoch and ``/healthz`` stays ``ok``.  Once the
sender heals, the clean epoch lands and the live totals are bit for bit
the batch audit of the whole log.

**Act 2 — killed, recovered, bit-for-bit.**  A second service writes
every registration and ingest to a write-ahead log (checksummed, and
fsync'd before anything is acknowledged: once per registered log).  The
process dies without any shutdown handshake; a fresh process replays
the WAL with :func:`repro.serve.recover`, rebuilds the run to the exact
ingested epoch, and serves contribution totals that are
``np.array_equal`` to the pre-crash answer.

Run:  PYTHONPATH=src python examples/resilient_leaderboard.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import estimate_hfl_resource_saving
from repro.core.streaming import NonFiniteRow
from repro.experiments.workloads import build_hfl_workload
from repro.hfl.log import TrainingLog
from repro.io import save_training_log
from repro.serve import (
    ChaosPolicy,
    EvaluationService,
    WriteAheadLog,
    inject_chaos,
    recover,
)
from repro.serve.http import register_from_spec

DATASET = "mnist"
N_PARTIES = 4
EPOCHS = 6
N_SAMPLES = 300
SEED = 0


def act_one_refused_epoch(cell) -> None:
    print("=== act 1: a poisoned epoch is refused, the leaderboard serves on ===")
    log = cell.result.log
    clean = EPOCHS - 2
    with EvaluationService(admission_limit=64) as service:
        run_id = service.register_hfl(
            log.participant_ids, cell.federation.validation, cell.model_factory
        )
        service.ingest_log(
            run_id,
            TrainingLog(participant_ids=log.participant_ids, records=log.records[:clean]),
        )
        good = service.query("leaderboard", run_id)
        leader = good["leaderboard"][0]
        print(
            f"epoch {good['epochs']}: leader is party {leader['participant']} "
            f"({leader['contribution']:+.5f})"
        )

        # The next epoch arrives poisoned: its updates are all NaN.
        policy = ChaosPolicy(seed=7, corrupt_prob=1.0)
        inject_chaos(service, run_id, policy)
        try:
            service.ingest(run_id, log.records[clean])
        except NonFiniteRow as exc:
            print(f"poisoned epoch {clean + 1} refused: {type(exc).__name__}")
        board = service.query("leaderboard", run_id)
        print(
            "leaderboard still serves every clean epoch: "
            f"epochs={board['epochs']}, unchanged={board == good}"
        )
        print(f"healthz status: {service.health()['status']}")

        policy.disarm()  # the sender heals and re-sends
        for record in log.records[clean:]:
            service.ingest(run_id, record)
        fresh = service.contributions(run_id)
        batch = estimate_hfl_resource_saving(
            log, cell.federation.validation, cell.model_factory
        )
        print(
            f"healed: epochs={fresh['epochs']}, totals bit-for-bit equal "
            f"batch audit: {fresh['totals'] == batch.totals.tolist()}"
        )


def act_two_crash_and_recover(cell, workdir: Path) -> None:
    print("\n=== act 2: SIGKILL the registry, replay the WAL ===")
    log_path = workdir / "audit_run.npz"
    save_training_log(cell.result.log, log_path)

    before = EvaluationService(wal=WriteAheadLog(workdir / "wal"))
    register_from_spec(
        before,
        {
            "kind": "hfl",
            "log_path": str(log_path),
            "dataset": DATASET,
            "seed": SEED,
            "n_samples": N_SAMPLES,
            "run_id": "audit",
        },
    )
    want = before.report("audit").totals
    print(
        f"pre-crash: run 'audit' at {cell.result.log.n_epochs} epochs, "
        f"{len(before.wal.replay())} WAL records fsync'd"
    )
    # The process dies here.  Closing the file handle is all a SIGKILL
    # would do: every append was already flushed and fsync'd, so the
    # bytes on disk are identical either way.
    before.wal._fh.close()

    after = EvaluationService()
    report = recover(after, WriteAheadLog(workdir / "wal"))
    with after:
        print(f"recovery: {report.summary()}")
        got = after.report("audit").totals
        print(
            "recovered totals bit-for-bit equal pre-crash: "
            f"{np.array_equal(got, want)}"
        )
        board = after.leaderboard("audit")["leaderboard"]
        print("leaderboard served by the recovered process (best first):")
        for row in board:
            print(
                f"  #{row['rank']} party {row['participant']}: "
                f"{row['contribution']:+.5f}"
            )


def main() -> None:
    cell = build_hfl_workload(
        DATASET, n_parties=N_PARTIES, epochs=EPOCHS, n_samples=N_SAMPLES, seed=SEED
    )
    act_one_refused_epoch(cell)
    with tempfile.TemporaryDirectory() as tmp:
        act_two_crash_and_recover(cell, Path(tmp))


if __name__ == "__main__":
    main()
