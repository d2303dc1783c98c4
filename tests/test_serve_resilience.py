"""Resilience primitives and their wiring through the evaluation service.

Unit-level: deadlines, the admission queue, the circuit-breaker state
machine (driven by an injected clock, so every transition is asserted
deterministically), and the decorrelated-jitter retry schedule.
Service-level: reads that answer from the published snapshot while an
ingest is stuck, the batched-ingest deadline banking its progress for
the retry, load shedding with a p95-derived ``Retry-After``, idempotent
close with fail-fast :class:`ServiceClosed` everywhere after, the
publisher-outlives-service race, and the concurrent
register/ingest/query/close hammer.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionQueue,
    ChaosPolicy,
    CircuitBreaker,
    ContributionPublisher,
    Deadline,
    DeadlineExceeded,
    EvaluationService,
    RetryPolicy,
    ServiceClosed,
    ServiceOverloaded,
    inject_chaos,
)
from repro.serve.resilience import Backoff, retry_after_seconds

# Inert without the pytest-timeout plugin (CI installs it); a deadlock in
# the close-race hammer then fails instead of wedging the suite.
pytestmark = pytest.mark.timeout(180)


class TestDeadline:
    def test_none_budget_means_no_deadline_object(self):
        assert Deadline.start(None) is None

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0)

    def test_check_passes_then_raises_with_progress(self):
        deadline = Deadline(10_000)
        deadline.check(epochs=3)  # plenty of budget left
        expired = Deadline(0.001)
        while not expired.expired():
            pass
        with pytest.raises(DeadlineExceeded) as excinfo:
            expired.check(epochs=7)
        assert excinfo.value.progress == {"epochs": 7}
        assert excinfo.value.elapsed_ms >= excinfo.value.budget_ms

    def test_remaining_never_negative(self):
        expired = Deadline(0.001)
        while not expired.expired():
            pass
        assert expired.remaining_s() == 0.0


class TestAdmissionQueue:
    def test_unlimited_queue_never_sheds(self):
        queue = AdmissionQueue(None)
        for _ in range(100):
            assert queue.try_acquire()
        assert queue.shed == 0
        assert queue.stats()["depth"] == 100

    def test_limit_sheds_and_release_readmits(self):
        queue = AdmissionQueue(2)
        assert queue.try_acquire()
        assert queue.try_acquire()
        assert not queue.try_acquire()
        assert queue.shed == 1
        queue.release()
        assert queue.try_acquire()
        assert queue.stats()["peak_depth"] == 2

    def test_in_flight_gauge_brackets_execution(self):
        queue = AdmissionQueue(4)
        queue.try_acquire()
        queue.enter()
        assert queue.stats()["in_flight"] == 1
        queue.exit()
        queue.release()
        stats = queue.stats()
        assert stats["in_flight"] == 0
        assert stats["peak_in_flight"] == 1

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            AdmissionQueue(0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, 30.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(2, 30.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(30.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else still refused

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_rearms_the_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_caller_error_cancels_the_probe_without_wedging(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 30.0, clock=clock)
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()  # the probe slot is taken...
        breaker.cancel_probe()  # ...but the probe died of a caller error
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the slot was freed: a new probe may run
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cancel_probe_without_a_probe_is_a_no_op(self):
        breaker = CircuitBreaker(2, 30.0, clock=FakeClock())
        breaker.cancel_probe()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_stats_shape(self):
        breaker = CircuitBreaker(2, 5.0, clock=FakeClock())
        breaker.record_failure()
        assert breaker.stats() == {
            "state": "closed",
            "consecutive_failures": 1,
            "opens": 0,
        }


class TestRetryPolicy:
    def test_schedule_is_seeded_and_bounded(self):
        a = list(RetryPolicy(6, base_delay_s=0.05, max_delay_s=1.0, seed=9).delays())
        b = list(RetryPolicy(6, base_delay_s=0.05, max_delay_s=1.0, seed=9).delays())
        assert a == b
        assert len(a) == 6
        assert all(0.05 <= d <= 1.0 for d in a)

    def test_different_seeds_decorrelate(self):
        a = list(RetryPolicy(6, seed=1).delays())
        b = list(RetryPolicy(6, seed=2).delays())
        assert a != b

    def test_zero_retries_yields_nothing(self):
        assert list(RetryPolicy(0).delays()) == []

    def test_retry_after_is_whole_seconds_floored_at_one(self):
        assert retry_after_seconds(0.0, 0) == 1.0
        assert retry_after_seconds(0.3, 4) == 2.0  # ceil(0.3 * 5)


@pytest.fixture()
def vfl_service(vfl_result):
    with EvaluationService() as svc:
        run_id = svc.register_vfl_log(vfl_result.log, run_id="r")
        yield svc, run_id


def _blocked_ingest(svc, run_id, record):
    """Start an ingest that blocks inside the estimator; returns
    (thread, entered, release)."""
    entered, release = threading.Event(), threading.Event()

    def block(_s):
        entered.set()
        release.wait(timeout=60)

    inject_chaos(
        svc, run_id, ChaosPolicy(latency_prob=1.0, latency_ms=1.0, sleep=block)
    )
    thread = threading.Thread(target=svc.ingest, args=(run_id, record))
    thread.start()
    assert entered.wait(timeout=30)
    return thread, entered, release


class TestServiceDeadlines:
    def test_warm_hits_beat_any_deadline(self, vfl_result):
        """A read takes the published answer, never the run lock: it
        answers at once while an ingest is stuck inside the estimator."""
        with EvaluationService() as svc:
            log = vfl_result.log
            run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
            svc.ingest(run_id, log.records[0])
            first = svc.query("leaderboard", run_id, top=2)
            thread, _, release = _blocked_ingest(svc, run_id, log.records[1])
            try:
                started = time.perf_counter()
                second = svc.query("leaderboard", run_id, top=2)
                assert time.perf_counter() - started < 1.0
                assert second == first
            finally:
                release.set()
                thread.join(timeout=60)
            assert svc.query("leaderboard", run_id, top=2)["epochs"] == 2

    def test_overrunning_compute_is_banked_for_the_retry(self, vfl_result):
        """A batched ingest cut by its deadline keeps and serves the
        epochs it ingested; the retry resumes where the cut landed."""
        k = 3

        class CutAfter:
            def check(self, **progress):
                if progress["epochs_ingested"] >= k:
                    raise DeadlineExceeded(1.0, 2.0, progress)

        with EvaluationService() as svc:
            log = vfl_result.log
            run_id = svc.register_vfl(log.feature_blocks, log.active_parties)
            with pytest.raises(DeadlineExceeded) as cut:
                svc.ingest_log(run_id, log, deadline=CutAfter())
            assert cut.value.progress == {"epochs_ingested": k}
            assert svc.contributions(run_id)["epochs"] == k
            assert svc.ingest_log(run_id, log) == log.n_epochs
            assert svc.contributions(run_id)["epochs"] == log.n_epochs


class TestLoadShedding:
    def test_saturated_pool_sheds_with_retry_hint(self, vfl_result):
        """The admission slot is held here: the next query is shed."""
        svc = EvaluationService(admission_limit=1)
        try:
            run_id = svc.register_vfl_log(vfl_result.log)
            assert svc.admission.try_acquire()  # the one slot, held
            with pytest.raises(ServiceOverloaded) as excinfo:
                svc.query("contributions", run_id)
            assert excinfo.value.retry_after_s >= 1.0
            assert svc.admission.shed == 1
            svc.admission.release()
            # Capacity freed: the same query is admitted again.
            assert svc.query("contributions", run_id)["epochs"] >= 1
        finally:
            svc.close()


class TestClose:
    def test_close_is_idempotent(self, vfl_result):
        svc = EvaluationService()
        svc.register_vfl_log(vfl_result.log)
        svc.close()
        svc.close()  # second close is a no-op, not an error
        assert svc.closed

    def test_everything_fails_fast_after_close(self, vfl_result):
        svc = EvaluationService()
        run_id = svc.register_vfl_log(vfl_result.log)
        record = vfl_result.log.records[0]
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.contributions(run_id)
        with pytest.raises(ServiceClosed):
            svc.query("leaderboard", run_id)
        with pytest.raises(ServiceClosed):
            svc.ingest(run_id, record)
        with pytest.raises(ServiceClosed):
            svc.register_vfl_log(vfl_result.log, run_id="late")
        assert svc.health()["status"] == "closed"

    def test_publisher_outliving_service_dead_letters_immediately(
        self, vfl_result
    ):
        """The race satellite: no retry storm against a closed service."""
        sleeps = []
        svc = EvaluationService()
        run_id = svc.register_vfl(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        publisher = svc.publisher(run_id, sleep=sleeps.append)
        svc.close()
        detail = publisher.publish(vfl_result.log.records[0])
        assert detail["dead_letter"] is True
        assert detail["attempts"] == 1
        assert "ServiceClosed" in detail["error"]
        assert sleeps == []  # closed is permanent: no backoff attempted

    def test_concurrent_query_close_race_has_no_bare_errors(self, vfl_result):
        """Queries racing a close land on a payload or ServiceClosed —
        never on a bare error."""
        unexpected = []
        for _ in range(5):  # several rounds to actually hit the window
            svc = EvaluationService()
            run_id = svc.register_vfl_log(vfl_result.log)
            svc.query("contributions", run_id)  # warm
            start = threading.Barrier(4)

            def hammer():
                start.wait()
                for _ in range(50):
                    try:
                        svc.query("contributions", run_id)
                    except ServiceClosed:
                        return
                    except Exception as exc:  # pragma: no cover
                        unexpected.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            start.wait()
            svc.close()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert not unexpected, unexpected

    def test_concurrent_register_ingest_close_race(self, vfl_result):
        """Registration and ingestion racing a close: every outcome is a
        success or ServiceClosed, and successful ingests stay consistent."""
        unexpected = []
        svc = EvaluationService()
        base = svc.register_vfl_log(vfl_result.log, run_id="base")
        start = threading.Barrier(3)

        def register_loop():
            start.wait()
            for i in range(40):
                try:
                    svc.register_vfl(
                        vfl_result.log.feature_blocks,
                        vfl_result.log.active_parties,
                        run_id=f"race-{i}",
                    )
                except ServiceClosed:
                    return
                except Exception as exc:  # pragma: no cover
                    unexpected.append(exc)
                    return

        def ingest_loop():
            start.wait()
            for record in vfl_result.log.records * 3:
                try:
                    svc.ingest_log(base, vfl_result.log)
                except ServiceClosed:
                    return
                except Exception as exc:  # pragma: no cover
                    unexpected.append(exc)
                    return

        threads = [
            threading.Thread(target=register_loop),
            threading.Thread(target=ingest_loop),
        ]
        for thread in threads:
            thread.start()
        start.wait()
        svc.close()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not unexpected, unexpected


class TestPublisherRetries:
    def _registered(self, vfl_result):
        svc = EvaluationService()
        run_id = svc.register_vfl(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        return svc, run_id

    def test_transient_failures_are_retried_through(self, vfl_result):
        from repro.serve import FlakyProxy

        svc, run_id = self._registered(vfl_result)
        with svc:
            sleeps = []
            flaky = FlakyProxy(svc, failures=2)
            publisher = ContributionPublisher(
                flaky, run_id, max_retries=4, sleep=sleeps.append
            )
            detail = publisher.publish(vfl_result.log.records[0])
            assert detail["epochs"] == 1
            assert "dead_letter" not in detail
            assert publisher.retries == 2
            assert len(sleeps) == 2
            assert publisher.dead_letters == []

    def test_retries_never_double_ingest(self, vfl_result):
        """Sequence numbering: a failure *after* the ingest landed must
        not ingest the epoch again on retry."""
        from repro.serve import FlakyProxy

        svc, run_id = self._registered(vfl_result)
        with svc:
            flaky = FlakyProxy(svc, failures=1, methods=("leaderboard",))
            publisher = ContributionPublisher(
                flaky, run_id, sleep=lambda _s: None
            )
            detail = publisher.publish(vfl_result.log.records[0])
            assert detail["epochs"] == 1  # not 2: the re-sent seq was a no-op
            batch_row = vfl_result.log.records[0]
            assert svc.contributions(run_id)["epochs"] == 1
            del batch_row

    def test_landed_ingest_with_failed_detail_degrades_not_dead_letters(
        self, vfl_result
    ):
        """The epoch *is* being served: only the follow-up leaderboard
        query died.  There is no gap, so the stream must not be poisoned
        and the detail reports the publish as degraded, not dead."""
        from repro.serve import FlakyProxy

        svc, run_id = self._registered(vfl_result)
        with svc:
            flaky = FlakyProxy(svc, failures=100, methods=("leaderboard",))
            publisher = ContributionPublisher(
                flaky, run_id, max_retries=2, sleep=lambda _s: None
            )
            detail = publisher.publish(vfl_result.log.records[0])
            assert detail["detail_degraded"] is True
            assert "dead_letter" not in detail
            assert detail["epochs"] == 1
            assert publisher.dead_letters == []
            # No gap: the next epoch publishes (and is served) normally.
            later = publisher.publish(vfl_result.log.records[1])
            assert "dead_letter" not in later
            assert later["epochs"] == 2
            assert svc.contributions(run_id)["epochs"] == 2

    def test_exhausted_retries_dead_letter_and_poison_the_stream(
        self, vfl_result
    ):
        from repro.serve import FlakyProxy

        svc, run_id = self._registered(vfl_result)
        with svc:
            flaky = FlakyProxy(svc, failures=100)
            publisher = ContributionPublisher(
                flaky, run_id, max_retries=2, sleep=lambda _s: None
            )
            detail = publisher.publish(vfl_result.log.records[0])
            assert detail["dead_letter"] is True
            assert detail["attempts"] == 3  # 1 try + 2 retries
            assert detail["seq"] == 1
            # The gap poisons the stream: later records are dead-lettered
            # without an attempt rather than spliced in out of order.
            later = publisher.publish(vfl_result.log.records[1])
            assert later["dead_letter"] is True
            assert later["attempts"] == 0
            assert "gap" in later["error"]
            assert publisher.dead_letters == [detail, later]
            # The remedy: an ingest_log replay backfills the whole gap.
            assert svc.ingest_log(run_id, vfl_result.log) == (
                vfl_result.log.n_epochs
            )

    def test_out_of_order_seq_is_rejected(self, vfl_result):
        svc, run_id = self._registered(vfl_result)
        with svc:
            with pytest.raises(ValueError, match="out-of-order"):
                svc.ingest(run_id, vfl_result.log.records[0], seq=5)


class TestBackoff:
    def test_first_attempt_is_immediate(self):
        backoff = Backoff(0.5, 30.0, clock=FakeClock())
        assert backoff.ready()
        assert backoff.remaining_s() == 0.0
        assert backoff.attempts == 0

    def test_delays_double_up_to_the_cap_with_bounded_jitter(self):
        clock = FakeClock()
        backoff = Backoff(1.0, 8.0, seed=3, clock=clock)
        delays = [backoff.record_failure() for _ in range(6)]
        for nominal, delay in zip([1.0, 2.0, 4.0, 8.0, 8.0, 8.0], delays):
            assert 0.5 * nominal <= delay < 1.5 * nominal
        assert backoff.attempts == 6

    def test_ready_flips_exactly_at_the_armed_deadline(self):
        clock = FakeClock()
        backoff = Backoff(1.0, 30.0, seed=0, clock=clock)
        delay = backoff.record_failure()
        assert not backoff.ready()
        assert backoff.remaining_s() == pytest.approx(delay)
        clock.advance(delay / 2)
        assert not backoff.ready()
        clock.advance(delay / 2)
        assert backoff.ready()
        assert backoff.remaining_s() == 0.0

    def test_reset_restarts_the_schedule_at_base(self):
        clock = FakeClock()
        backoff = Backoff(1.0, 30.0, seed=0, clock=clock)
        for _ in range(5):
            backoff.record_failure()
        backoff.reset()
        assert backoff.attempts == 0
        assert backoff.ready()
        # The next failure arms a base-scale delay again, not 16s.
        assert backoff.record_failure() < 1.5 * 1.0

    def test_same_seed_same_schedule(self):
        a = Backoff(0.5, 30.0, seed=42, clock=FakeClock())
        b = Backoff(0.5, 30.0, seed=42, clock=FakeClock())
        assert [a.record_failure() for _ in range(4)] == [
            b.record_failure() for _ in range(4)
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="base_s"):
            Backoff(0.0, 1.0)
        with pytest.raises(ValueError, match="base_s"):
            Backoff(2.0, 1.0)


class TestHealthAndStats:
    def test_stats_report_admission_and_breakers(self, vfl_service):
        """Admission is reported; a worker holds no breakers any more."""
        svc, run_id = vfl_service
        svc.query("contributions", run_id)
        stats = svc.stats()
        assert stats["closed"] is False
        assert stats["admission"]["shed"] == 0
        assert "breakers" not in stats
        assert svc.health() == {"status": "ok", "runs": 1}
