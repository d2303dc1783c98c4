"""The in-process evaluation service: registry, caching, live publishing.

Covers the service-level contracts the HTTP layer and the runtime engine
build on: content-addressed query caching (identical runs share entries,
yet every response carries the *requesting* run's id), idempotent
re-ingestion of growing logs, the ``ContributionPublisher`` →
``contrib_updated`` event loop, and — the acceptance scenario — a
multi-threaded hammer of mixed ingest/query traffic that must end in
deterministic, batch-equal results with internally consistent cache
counters.
"""

import threading

import numpy as np
import pytest

from repro.core import estimate_hfl_resource_saving, estimate_vfl_first_order
from repro.hfl import HFLTrainer
from repro.nn import LRSchedule
from repro.runtime import FaultPlan, FederatedRuntime, RuntimeConfig
from repro.runtime.events import CONTRIB_UPDATED
from repro.serve import ContributionPublisher, EvaluationService
from tests.conftest import small_model_factory

# Inert without the pytest-timeout plugin (CI installs it); a deadlocked
# hammer then fails instead of wedging the suite.
pytestmark = pytest.mark.timeout(180)


@pytest.fixture()
def service():
    with EvaluationService(max_workers=2) as svc:
        yield svc


class TestRegistration:
    def test_auto_ids_and_summaries(self, service, hfl_result, hfl_federation):
        run_id = service.register_hfl_log(
            hfl_result.log, hfl_federation.validation, small_model_factory
        )
        assert run_id == "hfl-1"
        (summary,) = service.runs()
        assert summary["kind"] == "hfl"
        assert summary["epochs"] == hfl_result.log.n_epochs
        assert summary["participants"] == list(hfl_result.log.participant_ids)

    @pytest.mark.parametrize("estimator", ["digfl", "gtg_shapley", "dpvs"])
    def test_one_model_per_registration_and_the_same_architecture(
        self, service, hfl_federation, estimator
    ):
        """The architecture string comes off the estimator's own model:
        one ``model_factory()`` call per registration, and the digest
        seed still names ``{class}:{parameter count}``."""
        from repro.core.backends import get_backend
        from repro.serve import RunDigest, fingerprint_arrays

        calls = []

        def counting_factory():
            calls.append(1)
            return small_model_factory()

        validation = hfl_federation.validation
        run_id = service.register_hfl(
            [0, 1, 2], validation, counting_factory, estimator=estimator
        )
        assert len(calls) == 1
        model = small_model_factory()
        want = RunDigest(
            "hfl",
            get_backend(estimator).digest_token(),
            "use_logged_weights=False",
            fingerprint_arrays(X=validation.X, y=validation.y),
            f"{type(model).__name__}:{model.num_parameters()}",
        )
        assert service.run_digest(run_id) == want.hexdigest()

    def test_duplicate_run_id_rejected(self, service, vfl_result):
        service.register_vfl_log(vfl_result.log, run_id="r")
        with pytest.raises(ValueError, match="already registered"):
            service.register_vfl_log(vfl_result.log, run_id="r")

    def test_unknown_run_raises_keyerror(self, service):
        with pytest.raises(KeyError, match="unknown run"):
            service.contributions("nope")

    def test_query_before_any_ingest_raises(self, service, hfl_federation):
        run_id = service.register_hfl(
            [0, 1], hfl_federation.validation, small_model_factory
        )
        with pytest.raises(ValueError, match="no epochs"):
            service.leaderboard(run_id)
        with pytest.raises(ValueError, match="no epochs"):
            service.report(run_id)


class TestIngestion:
    def test_ingest_log_is_idempotent_for_growing_logs(
        self, service, hfl_result, hfl_federation
    ):
        from repro.hfl.log import TrainingLog

        log = hfl_result.log
        prefix = TrainingLog(
            participant_ids=log.participant_ids, records=log.records[:3]
        )
        run_id = service.register_hfl(
            log.participant_ids, hfl_federation.validation, small_model_factory
        )
        assert service.ingest_log(run_id, prefix) == 3
        # Re-pushing the whole log only ingests the unseen tail.
        assert service.ingest_log(run_id, log) == log.n_epochs
        assert service.ingest_log(run_id, log) == log.n_epochs
        batch = estimate_hfl_resource_saving(
            log, hfl_federation.validation, small_model_factory
        )
        assert np.array_equal(service.report(run_id).totals, batch.totals)

    def test_record_by_record_equals_batch(self, service, vfl_result):
        run_id = service.register_vfl(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        for epoch, record in enumerate(vfl_result.log.records, start=1):
            assert service.ingest(run_id, record) == epoch
        batch = estimate_vfl_first_order(vfl_result.log)
        report = service.report(run_id)
        assert np.array_equal(report.totals, batch.totals)
        assert np.array_equal(report.per_epoch, batch.per_epoch)


class TestContentAddressedCaching:
    def test_repeat_query_hits_cache(self, service, vfl_result):
        run_id = service.register_vfl_log(vfl_result.log)
        first = service.contributions(run_id)
        hits_before = service.cache.stats()["hits"]
        second = service.contributions(run_id)
        assert second == first
        assert service.cache.stats()["hits"] > hits_before

    def test_identical_runs_share_entries_but_not_run_ids(
        self, service, vfl_result
    ):
        """Content addressing: run B's first query is a warm hit, yet the
        payload is stamped with B's id, not the computing run's."""
        a = service.register_vfl_log(vfl_result.log, run_id="a")
        b = service.register_vfl_log(vfl_result.log, run_id="b")
        first = service.leaderboard(a, top=3)
        hits_before = service.cache.stats()["hits"]
        second = service.leaderboard(b, top=3)
        assert service.cache.stats()["hits"] > hits_before
        assert first["run_id"] == "a"
        assert second["run_id"] == "b"
        assert second["leaderboard"] == first["leaderboard"]

    def test_query_params_are_part_of_the_key(self, service, vfl_result):
        run_id = service.register_vfl_log(vfl_result.log)
        top3 = service.leaderboard(run_id, top=3)["leaderboard"]
        full = service.leaderboard(run_id)["leaderboard"]
        assert len(top3) == 3
        assert full[:3] == top3
        rectified = service.weights(run_id)
        softmax = service.weights(run_id, scheme="softmax")
        assert rectified["scheme"] == "rectified"
        assert softmax["scheme"] == "softmax"
        assert rectified["weights"] != softmax["weights"]

    def test_ingest_invalidates_by_construction(self, service, vfl_result):
        """New epoch ⇒ new digest ⇒ old cache entries are simply unreachable."""
        log = vfl_result.log
        run_id = service.register_vfl(log.feature_blocks, log.active_parties)
        service.ingest(run_id, log.records[0])
        stale = service.contributions(run_id)
        service.ingest(run_id, log.records[1])
        fresh = service.contributions(run_id)
        assert fresh["epochs"] == 2
        assert fresh["totals"] != stale["totals"]

    def test_valgrad_memo_shared_across_identical_hfl_runs(
        self, service, hfl_result, hfl_federation
    ):
        service.register_hfl_log(
            hfl_result.log, hfl_federation.validation, small_model_factory
        )
        misses_after_first = service.cache.stats()["misses"]
        service.register_hfl_log(
            hfl_result.log, hfl_federation.validation, small_model_factory
        )
        stats = service.stats()["cache"]
        # The second run's validation gradients all come from the memo.
        assert stats["hits"] >= hfl_result.log.n_epochs
        assert stats["misses"] == misses_after_first
        assert stats["lookups"] == stats["hits"] + stats["misses"]

    def test_weights_scheme_validated(self, service, vfl_result):
        run_id = service.register_vfl_log(vfl_result.log)
        with pytest.raises(ValueError, match="scheme"):
            service.weights(run_id, scheme="banana")


class TestSubmit:
    def test_futures_resolve_to_sync_payloads(self, service, vfl_result):
        run_id = service.register_vfl_log(vfl_result.log)
        future = service.submit("leaderboard", run_id, top=2)
        assert future.result(timeout=30) == service.leaderboard(run_id, top=2)

    def test_only_query_methods_are_submittable(self, service):
        with pytest.raises(ValueError, match="method must be one of"):
            service.submit("close")


class TestLivePublishing:
    def test_engine_publishes_rounds_and_events(self, hfl_federation):
        trainer = HFLTrainer(
            small_model_factory, epochs=5, lr_schedule=LRSchedule(0.5)
        )
        runtime = FederatedRuntime(
            RuntimeConfig(faults=FaultPlan(dropout_rate=0.3, seed=1))
        )
        with EvaluationService() as svc:
            run_id = svc.register_hfl(
                range(len(hfl_federation.locals)),
                hfl_federation.validation,
                small_model_factory,
            )
            publisher = svc.publisher(run_id)
            assert isinstance(publisher, ContributionPublisher)
            result = runtime.run_hfl(
                trainer,
                hfl_federation.locals,
                hfl_federation.validation,
                publisher=publisher,
            )
            events = runtime.event_log.of_kind(CONTRIB_UPDATED)
            assert len(events) == result.log.n_epochs
            assert runtime.event_log.summary()["contrib_updates"] == 5.0
            for epoch, event in enumerate(events, start=1):
                assert event.detail["run_id"] == run_id
                assert event.detail["epochs"] == epoch
                assert "leader" in event.detail
            # The dropout seed produced partial rounds, and the live-fed
            # estimator still equals a batch estimate of the final log.
            assert not result.log.participation_matrix().all()
            batch = estimate_hfl_resource_saving(
                result.log, hfl_federation.validation, small_model_factory
            )
            assert np.array_equal(svc.report(run_id).totals, batch.totals)
            top = svc.leaderboard(run_id, top=1)["leaderboard"][0]
            assert events[-1].detail["leader"] == top["participant"]


class TestConcurrencyHammer:
    """Satellite (c): N threads of mixed ingest/query traffic."""

    N_CONSUMERS = 6
    QUERIES_PER_CONSUMER = 40

    def test_hammer_is_deterministic_and_counters_consistent(
        self, hfl_result, hfl_federation, vfl_result
    ):
        with EvaluationService(max_workers=4) as svc:
            hfl_id = svc.register_hfl(
                hfl_result.log.participant_ids,
                hfl_federation.validation,
                small_model_factory,
            )
            vfl_id = svc.register_vfl(
                vfl_result.log.feature_blocks, vfl_result.log.active_parties
            )
            errors = []

            def produce(run_id, records):
                try:
                    for record in records:
                        svc.ingest(run_id, record)
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            def consume(seed):
                rng = np.random.default_rng(seed)
                try:
                    for _ in range(self.QUERIES_PER_CONSUMER):
                        run_id = hfl_id if rng.random() < 0.5 else vfl_id
                        kind = rng.integers(3)
                        try:
                            if kind == 0:
                                payload = svc.contributions(run_id)
                            elif kind == 1:
                                payload = svc.leaderboard(run_id, top=2)
                            else:
                                payload = svc.weights(run_id)
                            assert payload["run_id"] == run_id
                            assert payload["epochs"] >= 1
                        except ValueError:
                            pass  # raced ahead of the first ingest
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=produce, args=(hfl_id, hfl_result.log.records)
                ),
                threading.Thread(
                    target=produce, args=(vfl_id, vfl_result.log.records)
                ),
            ] + [
                threading.Thread(target=consume, args=(seed,))
                for seed in range(self.N_CONSUMERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "hammer deadlocked"
            assert not errors, errors

            # Deterministic end state: bit-for-bit the batch estimates.
            hfl_batch = estimate_hfl_resource_saving(
                hfl_result.log, hfl_federation.validation, small_model_factory
            )
            vfl_batch = estimate_vfl_first_order(vfl_result.log)
            assert np.array_equal(svc.report(hfl_id).totals, hfl_batch.totals)
            assert np.array_equal(svc.report(vfl_id).totals, vfl_batch.totals)

            # Counters stayed internally consistent under contention.
            stats = svc.stats()
            cache = stats["cache"]
            assert cache["lookups"] == cache["hits"] + cache["misses"]
            assert cache["bytes"] <= cache["max_bytes"]
            assert cache["hits"] > 0
            total_epochs = hfl_result.log.n_epochs + vfl_result.log.n_epochs
            assert stats["latency"]["ingest"]["count"] == total_epochs
            assert stats["latency"]["query"]["count"] >= 2  # the two reports


class TestStats:
    def test_stats_shape(self, service, vfl_result):
        run_id = service.register_vfl_log(vfl_result.log)
        service.leaderboard(run_id)
        stats = service.stats()
        assert stats["runs"] == 1
        assert stats["uptime_seconds"] > 0
        for histogram in ("ingest", "query"):
            summary = stats["latency"][histogram]
            assert summary["count"] > 0
            # Percentiles are bucket upper bounds, so they may sit above
            # the exact max — but they must be ordered and positive.
            assert 0 < summary["p50_ms"] <= summary["p95_ms"]
            assert summary["max_ms"] > 0
