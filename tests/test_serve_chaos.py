"""Serving under deterministic fault injection at ingest.

With chaos injected at the estimator's ingest — latency spikes, raised
errors, NaN-poisoned gradients, all on a seeded RNG — a failed or
refused epoch changes nothing: readers keep getting the last durable
answer, ``/healthz`` stays ``ok``, and the next clean epoch lands.  The
engine-side publisher turns unrecoverable sink failures into
``publish_dlq`` events while training carries on.
"""

import numpy as np
import pytest

from repro.runtime import FederatedRuntime, RuntimeConfig
from repro.runtime.events import CONTRIB_UPDATED, PUBLISH_DLQ
from repro.core.streaming import NonFiniteRow
from repro.serve import (
    ChaosError,
    ChaosPolicy,
    EvaluationService,
    inject_chaos,
)
from repro.serve.chaos import ChaosEstimator, FlakyProxy

pytestmark = pytest.mark.timeout(180)  # inert without pytest-timeout (CI has it)


class TestChaosPolicy:
    def test_decisions_are_a_pure_function_of_seed(self):
        def run(policy):
            outcomes = []
            for _ in range(50):
                try:
                    policy.before_call("x")
                    outcomes.append("ok")
                except ChaosError:
                    outcomes.append("err")
            return outcomes

        a = run(ChaosPolicy(seed=3, error_prob=0.3))
        b = run(ChaosPolicy(seed=3, error_prob=0.3))
        assert a == b
        assert "err" in a and "ok" in a

    def test_disarmed_policy_injects_nothing(self):
        policy = ChaosPolicy(
            seed=0, latency_prob=1.0, latency_ms=50.0, error_prob=1.0,
            corrupt_prob=1.0, sleep=lambda _s: None,
        )
        policy.disarm()
        policy.before_call("x")  # would raise if armed
        value = np.ones(4)
        assert np.array_equal(policy.corrupt(value), value)
        assert policy.injected == {"latency": 0, "error": 0, "corrupt": 0}

    def test_corrupt_poisons_a_copy_not_the_input(self):
        policy = ChaosPolicy(seed=1, corrupt_prob=1.0)
        value = np.ones(8)
        poisoned = policy.corrupt(value)
        assert np.isnan(poisoned).all() and poisoned.shape == value.shape
        assert np.array_equal(value, np.ones(8))
        assert policy.injected["corrupt"] == 1

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="error_prob"):
            ChaosPolicy(error_prob=1.5)

    def test_latency_injection_calls_sleep(self):
        sleeps = []
        policy = ChaosPolicy(
            seed=0, latency_prob=1.0, latency_ms=25.0, sleep=sleeps.append
        )
        policy.before_call("x")
        assert sleeps == [0.025]


class TestChaosEstimator:
    def test_delegates_untouched_attributes(self, vfl_result):
        from repro.serve import StreamingVFLEstimator

        inner = StreamingVFLEstimator(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        wrapped = ChaosEstimator(inner, ChaosPolicy(seed=0))
        assert wrapped.participant_ids == inner.participant_ids
        assert wrapped.n_epochs == 0

    def test_clean_policy_is_transparent(self, vfl_result):
        svc = EvaluationService()
        with svc:
            run_id = svc.register_vfl_log(vfl_result.log, run_id="clean")
            before = svc.contributions(run_id)
            inject_chaos(svc, run_id, ChaosPolicy(seed=0))  # all probs 0
            svc.ingest(run_id, vfl_result.log.records[0])
            # A no-op chaos wrapper changes nothing but the digest path.
            after = svc.contributions("clean")
            assert after["epochs"] == before["epochs"] + 1


class TestDegradedServing:
    """Injected ingest failures ⇒ the last durable answer keeps serving."""

    def _service(self, vfl_result):
        svc = EvaluationService()
        run_id = svc.register_vfl(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        for record in vfl_result.log.records[:2]:
            svc.ingest(run_id, record)
        return svc, run_id

    def test_failure_with_last_good_serves_stale(self, vfl_result):
        """A failed ingest leaves the last good answer, verbatim."""
        svc, run_id = self._service(vfl_result)
        with svc:
            good = svc.contributions(run_id)
            inject_chaos(svc, run_id, ChaosPolicy(seed=0, error_prob=1.0))
            with pytest.raises(ChaosError):
                svc.ingest(run_id, vfl_result.log.records[2])
            assert svc.contributions(run_id) == good
            assert good["epochs"] == 2
            assert svc.health()["status"] == "ok"

    def test_corrupted_payload_is_a_failure_never_cached(self, vfl_result):
        """A poisoned gradient is refused at ingest: nothing NaN is kept
        or served, and the healed ingest lands the true epoch."""
        svc, run_id = self._service(vfl_result)
        with svc:
            good = svc.contributions(run_id)
            policy = ChaosPolicy(seed=0, corrupt_prob=1.0)
            inject_chaos(svc, run_id, policy)
            with pytest.raises(NonFiniteRow, match="epoch 3"):
                svc.ingest(run_id, vfl_result.log.records[2])
            assert policy.injected["corrupt"] == 1
            assert svc.contributions(run_id) == good
            policy.disarm()
            assert svc.ingest(run_id, vfl_result.log.records[2]) == 3
            healed = svc.contributions(run_id)
            assert healed["epochs"] == 3
            assert all(np.isfinite(healed["totals"]))


class TestEnginePublishingUnderChaos:
    def test_dead_letters_become_dlq_events_and_training_survives(
        self, hfl_federation
    ):
        from repro.hfl import HFLTrainer
        from repro.nn import LRSchedule
        from tests.conftest import small_model_factory

        trainer = HFLTrainer(
            small_model_factory, epochs=4, lr_schedule=LRSchedule(0.5)
        )
        runtime = FederatedRuntime(RuntimeConfig())
        with EvaluationService() as svc:
            run_id = svc.register_hfl(
                range(len(hfl_federation.locals)),
                hfl_federation.validation,
                small_model_factory,
            )
            # The sink fails twice: publish #1 burns 1 try + 1 retry and
            # dead-letters; the gap then poisons publishes #2-#4, which
            # dead-letter without an attempt.
            flaky = FlakyProxy(svc, failures=2)
            from repro.serve import ContributionPublisher

            publisher = ContributionPublisher(
                flaky, run_id, max_retries=1, sleep=lambda _s: None
            )
            result = runtime.run_hfl(
                trainer,
                hfl_federation.locals,
                hfl_federation.validation,
                publisher=publisher,
            )
            assert result.log.n_epochs == 4  # training never noticed
            dlq = runtime.event_log.of_kind(PUBLISH_DLQ)
            assert len(dlq) == 4
            assert runtime.event_log.of_kind(CONTRIB_UPDATED) == []
            assert runtime.event_log.summary()["publish_dead_letters"] == 4.0
            assert "ChaosError" in dlq[0].detail["error"]
            for event in dlq[1:]:
                assert event.detail["attempts"] == 0  # poisoned, no attempt
                assert "gap" in event.detail["error"]
            # The remedy: one ingest_log replay backfills the whole gap,
            # and the served numbers are bit-for-bit the batch estimate.
            from repro.core import estimate_hfl_resource_saving

            svc.ingest_log(run_id, result.log)
            batch = estimate_hfl_resource_saving(
                result.log, hfl_federation.validation, small_model_factory
            )
            served = svc.contributions(run_id)
            assert served["epochs"] == 4
            assert served["totals"] == [float(v) for v in batch.totals]

    def test_raising_sink_is_contained_as_a_dlq_event(self, hfl_federation):
        from repro.hfl import HFLTrainer
        from repro.nn import LRSchedule
        from tests.conftest import small_model_factory

        class ExplodingSink:
            def publish(self, record):
                raise RuntimeError("sink on fire")

        trainer = HFLTrainer(
            small_model_factory, epochs=2, lr_schedule=LRSchedule(0.5)
        )
        runtime = FederatedRuntime(RuntimeConfig())
        result = runtime.run_hfl(
            trainer,
            hfl_federation.locals,
            hfl_federation.validation,
            publisher=ExplodingSink(),
        )
        assert result.log.n_epochs == 2
        dlq = runtime.event_log.of_kind(PUBLISH_DLQ)
        assert len(dlq) == 2
        assert "sink on fire" in dlq[0].detail["error"]
