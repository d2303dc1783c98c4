"""Cost of the resilience layer on the hot serving path.

The resilience machinery — the bounded admission queue at the query
door and the fsync'd write-ahead log — must be effectively free when
nothing is failing.  Two numbers pin that down:

1. **Warm-read overhead**: a service with the admission limit armed
   answers a repeated query within 5% of a bare service.  Every read
   takes the run's published answer snapshot, so the batch never
   recomputes totals.
2. **WAL ingest overhead**: the durable (fsync per epoch) ingest path
   vs. an unlogged ingest.  This one is *not* free — it is one fsync —
   but it is a constant per epoch, independent of history length.

Run either way::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py --benchmark-only
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.workloads import build_hfl_workload
from repro.serve import EvaluationService, WriteAheadLog

DATASET = "mnist"
EPOCHS = 12
N_PARTIES = 5
N_SAMPLES = 400
BATCH_QUERIES = 300
BATCHES = 7
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def cell():
    return build_hfl_workload(
        DATASET, n_parties=N_PARTIES, epochs=EPOCHS, n_samples=N_SAMPLES, seed=0
    )


def _bare_service():
    return EvaluationService()


def _armed_service():
    return EvaluationService(admission_limit=32)


def _register(service, cell) -> str:
    return service.register_hfl_log(
        cell.result.log, cell.federation.validation, cell.model_factory
    )


def _count_totals(service, run_id) -> list:
    """Record every ``totals()`` call the run's estimator gets."""
    calls = []
    estimator = service._run(run_id).estimator
    totals = estimator.totals
    estimator.totals = lambda: calls.append(1) or totals()
    return calls


def test_bench_warm_query_overhead_under_5_percent(benchmark, cell):
    """The admission limit costs <5% on a warm read."""
    with _bare_service() as bare, _armed_service() as armed:
        bare_id = _register(bare, cell)
        armed_id = _register(armed, cell)
        totals_calls = _count_totals(armed, armed_id)

        def batch(service, run_id) -> float:
            start = time.perf_counter()
            for _ in range(BATCH_QUERIES):
                service.query("leaderboard", run_id)
            return time.perf_counter() - start

        # Interleave bare/armed batches so clock drift and allocator
        # state hit both sides equally; compare best-of over the pairs.
        bare_seconds, armed_seconds = float("inf"), float("inf")
        for _ in range(BATCHES):
            bare_seconds = min(bare_seconds, batch(bare, bare_id))
            armed_seconds = min(armed_seconds, batch(armed, armed_id))

        benchmark.pedantic(
            lambda: batch(armed, armed_id), rounds=1, iterations=1
        )
        overhead = armed_seconds / bare_seconds - 1.0
        benchmark.extra_info["bare_batch_sec"] = bare_seconds
        benchmark.extra_info["armed_batch_sec"] = armed_seconds
        benchmark.extra_info["overhead_fraction"] = overhead
        assert totals_calls == []  # every read took the published snapshot
        assert overhead < MAX_OVERHEAD


def test_bench_wal_ingest_is_constant_overhead(benchmark, cell, tmp_path):
    """Durable ingest = unlogged ingest + one fsync'd append, flat in τ."""
    log = cell.result.log

    def ingest_all(service, run_id) -> float:
        start = time.perf_counter()
        for record in log.records:
            service.ingest(run_id, record)
        return (time.perf_counter() - start) / log.n_epochs

    with EvaluationService() as plain:
        plain_id = plain.register_hfl(
            log.participant_ids, cell.federation.validation, cell.model_factory
        )
        plain_per_epoch = ingest_all(plain, plain_id)

    wal = WriteAheadLog(tmp_path / "wal")
    with EvaluationService(wal=wal) as durable:
        durable_id = durable.register_hfl(
            log.participant_ids, cell.federation.validation, cell.model_factory
        )

        def run():
            return ingest_all(durable, durable_id)

        durable_per_epoch = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info["plain_per_epoch_sec"] = plain_per_epoch
        benchmark.extra_info["durable_per_epoch_sec"] = durable_per_epoch
        # One register record, then one ingest record per epoch.
        assert len(wal.replay()) == log.n_epochs + 1
    # The fsync costs something, but not a multiple of the epoch work.
    assert durable_per_epoch < plain_per_epoch * 3.0


def main() -> int:
    """Standalone report: warm-query overhead and WAL ingest cost."""
    import tempfile

    cell = build_hfl_workload(
        DATASET, n_parties=N_PARTIES, epochs=EPOCHS, n_samples=N_SAMPLES, seed=0
    )
    print(f"{N_PARTIES}-party {DATASET} cell, {EPOCHS} logged epochs")

    with _bare_service() as bare, _armed_service() as armed:
        bare_id = _register(bare, cell)
        armed_id = _register(armed, cell)
        bare_s, armed_s = float("inf"), float("inf")
        for _ in range(BATCHES):  # interleaved: drift hits both sides
            start = time.perf_counter()
            for _ in range(BATCH_QUERIES):
                bare.query("leaderboard", bare_id)
            bare_s = min(bare_s, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(BATCH_QUERIES):
                armed.query("leaderboard", armed_id)
            armed_s = min(armed_s, time.perf_counter() - start)
        per_query = armed_s / BATCH_QUERIES
        overhead = armed_s / bare_s - 1.0
        print(f"\nwarm read ({BATCH_QUERIES}/batch, best of {BATCHES}):")
        print(f"  bare service : {bare_s / BATCH_QUERIES * 1e6:>8.1f} µs/query")
        print(
            f"  armed service: {per_query * 1e6:>8.1f} µs/query  "
            f"(admission limit: {overhead:+.1%})"
        )

    with tempfile.TemporaryDirectory() as tmp:
        with EvaluationService() as plain:
            pid = plain.register_hfl(
                cell.result.log.participant_ids,
                cell.federation.validation,
                cell.model_factory,
            )
            start = time.perf_counter()
            for record in cell.result.log.records:
                plain.ingest(pid, record)
            plain_per = (time.perf_counter() - start) / EPOCHS
        with EvaluationService(wal=WriteAheadLog(tmp)) as durable:
            did = durable.register_hfl(
                cell.result.log.participant_ids,
                cell.federation.validation,
                cell.model_factory,
            )
            start = time.perf_counter()
            for record in cell.result.log.records:
                durable.ingest(did, record)
            durable_per = (time.perf_counter() - start) / EPOCHS
        print("\ningest of one epoch:")
        print(f"  unlogged : {plain_per * 1e3:>7.2f} ms")
        print(
            f"  WAL+fsync: {durable_per * 1e3:>7.2f} ms  "
            f"({durable_per / plain_per:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
