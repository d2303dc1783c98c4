"""A leaderboard that survives a flaky estimator and a killed server.

Two failure stories the audit batch job cannot tell, on one 4-party
MNIST-like cell:

**Act 1 — degraded, never down.**  The serving process runs with the
full resilience kit armed: per-query deadlines, a bounded admission
queue, and a circuit breaker per run.  Mid-serving, the run's estimator
turns hostile (seeded chaos injection: every compute raises).  Queries
keep answering — the last good leaderboard, marked ``"stale": true`` —
the breaker trips after two consecutive failures, ``/healthz`` flips to
``degraded``, and the moment the estimator heals, one half-open probe
closes the breaker and fresh numbers flow again.  No query ever saw a
bare 500.

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


def act_one_degraded_serving(cell) -> None:
    print("=== act 1: chaos at the estimator, stale answers, healing ===")
    log = cell.result.log
    service = EvaluationService(
        query_deadline_ms=250.0,
        admission_limit=64,
        breaker_failures=2,
        breaker_reset_s=0.0,  # half-open immediately: heal on next probe
    )
    with service:
        run_id = service.register_hfl(
            log.participant_ids, cell.federation.validation, cell.model_factory
        )
        service.ingest_log(
            run_id,
            TrainingLog(
                participant_ids=log.participant_ids,
                records=log.records[: EPOCHS - 1],
            ),
        )
        good = service.leaderboard(run_id)
        leader = good["leaderboard"][0]
        print(
            f"epoch {good['epochs']}: leader is party {leader['participant']} "
            f"({leader['contribution']:+.5f}), stale={good['stale']}"
        )

        # The estimator turns hostile: every compute now raises.
        policy = ChaosPolicy(seed=7, error_prob=1.0)
        inject_chaos(service, run_id, policy)
        policy.disarm()
        service.ingest(run_id, log.records[EPOCHS - 1])  # new epoch arrives
        policy.arm()

        for attempt in (1, 2):
            stale = service.leaderboard(run_id)
            print(
                f"failure {attempt}: served last good leaderboard, "
                f"stale={stale['stale']}, epochs={stale['epochs']}"
            )
        health = service.health()
        breaker = service.stats()["breakers"][run_id]
        print(
            f"healthz status: {health['status']} "
            f"(degraded runs: {health['degraded_runs']}, "
            f"breaker opened {breaker['opens']}x)"
        )

        policy.disarm()  # the estimator heals; next query is the probe
        fresh = service.leaderboard(run_id)
        print(
            f"healed: stale={fresh['stale']}, epochs={fresh['epochs']}, "
            f"healthz status: {service.health()['status']}"
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
    act_one_degraded_serving(cell)
    with tempfile.TemporaryDirectory() as tmp:
        act_two_crash_and_recover(cell, Path(tmp))


if __name__ == "__main__":
    main()
