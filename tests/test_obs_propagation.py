"""Trace propagation across the serving and runtime thread pools.

The contract under test: one serve request (or one engine run) is ONE
trace, no matter how many thread hops it takes — a query's admission and
snapshot-read phases hang off the request's root span on the caller's
thread, engine pool workers adopt the run context explicitly, and error
exits (:class:`ServiceOverloaded`, :class:`DeadlineExceeded`) close
their spans with ``status="error"`` instead of leaking them open.
"""

import threading

import pytest

from repro.hfl import HFLTrainer
from repro.nn import LRSchedule
from repro.obs import Observability
from repro.runtime import FederatedRuntime, RuntimeConfig
from repro.serve import DeadlineExceeded, EvaluationService, ServiceOverloaded
from tests.conftest import small_model_factory


def traced_obs() -> Observability:
    counter = iter(range(1, 100_000))
    return Observability(trace=True, id_source=lambda: next(counter))


def by_name(spans) -> dict:
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def assert_single_rooted_trace(spans) -> None:
    """Same trace id everywhere; every parent id resolves; one root."""
    assert spans, "expected a non-empty trace"
    trace_ids = {span.trace_id for span in spans}
    assert len(trace_ids) == 1
    ids = {span.span_id for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, f"orphaned span {span.name}"


@pytest.fixture()
def traced_service(vfl_result):
    obs = traced_obs()
    with EvaluationService(obs=obs) as service:
        run_id = service.register_vfl_log(vfl_result.log, run_id="traced")
        yield service, run_id, obs


class TestServeRequestTrace:
    def test_one_request_is_one_trace_with_all_phases(self, traced_service):
        service, run_id, obs = traced_service
        obs.tracer.clear()  # drop registration/ingest traces
        service.query("contributions", run_id)
        (trace,) = [
            spans
            for spans in obs.tracer.traces().values()
            if any(span.name == "serve.query" for span in spans)
        ]
        assert_single_rooted_trace(trace)
        names = by_name(trace)
        # The acceptance contract: admission -> snapshot read, both
        # under one serve.query root.
        for phase in ("serve.query", "serve.admission", "serve.snapshot"):
            assert phase in names, f"missing {phase} span"
        (root,) = names["serve.query"]
        assert root.parent_id is None
        assert names["serve.admission"][0].parent_id == root.span_id
        assert names["serve.snapshot"][0].parent_id == root.span_id
        assert all(span.status == "ok" for span in trace)

    def test_warm_hit_trace_skips_the_pool(self, traced_service):
        """Every read is a snapshot read on the caller's thread."""
        service, run_id, obs = traced_service
        service.query("leaderboard", run_id, top=2)
        obs.tracer.clear()
        service.query("leaderboard", run_id, top=2)
        (trace,) = obs.tracer.traces().values()
        names = by_name(trace)
        (root,) = names["serve.query"]
        assert "serve.compute" not in names
        assert {span.thread for span in trace} == {root.thread}
        assert_single_rooted_trace(trace)

    def test_fanned_out_queries_stay_separate_traces(self, traced_service):
        service, run_id, obs = traced_service
        obs.tracer.clear()
        methods = ("contributions", "leaderboard", "weights")
        threads = [
            threading.Thread(target=service.query, args=(method, run_id))
            for method in methods
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        traces = obs.tracer.traces().values()
        assert len(traces) == 3
        for trace in traces:
            assert_single_rooted_trace(trace)
            roots = [span for span in trace if span.name == "serve.query"]
            assert len(roots) == 1


class TestErrorPathSpans:
    def test_deadline_exceeded_closes_spans_with_error_status(self, vfl_result):
        """A batched ingest cut by its deadline closes its span with
        error status; the epochs it did ingest stay in the one trace."""

        class CutAfter:
            def check(self, **progress):
                if progress["epochs_ingested"] >= 2:
                    raise DeadlineExceeded(1.0, 2.0, progress)

        obs = traced_obs()
        with EvaluationService(obs=obs) as service:
            log = vfl_result.log
            run_id = service.register_vfl(log.feature_blocks, log.active_parties)
            obs.tracer.clear()
            with pytest.raises(DeadlineExceeded):
                service.ingest_log(run_id, log, deadline=CutAfter())
            assert_single_rooted_trace(obs.tracer.spans())
            names = by_name(obs.tracer.spans())
            (root,) = names["serve.ingest_log"]
            assert root.status == "error"
            assert "DeadlineExceeded" in root.attributes["error"]
            ingests = names["serve.ingest"]
            assert len(ingests) == 2
            assert all(span.parent_id == root.span_id for span in ingests)
            assert all(span.status == "ok" for span in ingests)

    def test_shed_read_closes_spans_with_error_status(self, vfl_result):
        """A shed read (the one error exit a query has left) closes its
        spans with error status."""
        obs = traced_obs()
        with EvaluationService(obs=obs, admission_limit=1) as service:
            run_id = service.register_vfl_log(vfl_result.log)
            assert service.admission.try_acquire()  # the one slot, held
            obs.tracer.clear()
            with pytest.raises(ServiceOverloaded):
                service.query("contributions", run_id)
            names = by_name(obs.tracer.spans())
            (root,) = names["serve.query"]
            assert root.status == "error"
            assert "ServiceOverloaded" in root.attributes["error"]
            (admission,) = names["serve.admission"]
            assert admission.attributes["admitted"] is False
            assert admission.parent_id == root.span_id
            service.admission.release()


class TestEngineTrace:
    def test_hfl_run_under_a_thread_pool_is_one_trace(self, hfl_federation):
        obs = traced_obs()
        runtime = FederatedRuntime(
            RuntimeConfig(executor="threads", workers=3), obs=obs
        )
        trainer = HFLTrainer(
            small_model_factory, epochs=3, lr_schedule=LRSchedule(0.5)
        )
        runtime.run_hfl(
            trainer, hfl_federation.locals, hfl_federation.validation
        )
        (trace,) = obs.tracer.traces().values()
        assert_single_rooted_trace(trace)
        names = by_name(trace)
        (run_span,) = names["engine.run"]
        assert run_span.parent_id is None
        assert run_span.status == "ok"
        rounds = names["engine.round"]
        assert len(rounds) == 3
        assert all(span.parent_id == run_span.span_id for span in rounds)
        tasks = names["engine.task"]
        n_parties = len(hfl_federation.locals)
        assert len(tasks) == 3 * n_parties
        round_ids = {span.span_id for span in rounds}
        assert all(span.parent_id in round_ids for span in tasks)
        # Tasks genuinely crossed the pool: some ran off the main thread.
        assert any(span.thread != run_span.thread for span in tasks)

    def test_trainer_epoch_spans_join_a_passed_tracer(self, hfl_federation):
        obs = traced_obs()
        trainer = HFLTrainer(
            small_model_factory, epochs=2, lr_schedule=LRSchedule(0.5)
        )
        trainer.train(
            hfl_federation.locals,
            validation=hfl_federation.validation,
            tracer=obs.tracer,
        )
        epochs = [
            span for span in obs.tracer.spans() if span.name == "trainer.epoch"
        ]
        assert [span.attributes["epoch"] for span in epochs] == [1, 2]
        assert all(span.status == "ok" for span in epochs)
