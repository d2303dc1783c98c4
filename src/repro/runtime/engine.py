"""The federated runtime: existing trainers on an event-driven engine.

:class:`FederatedRuntime` re-plays the exact protocols of
:class:`repro.hfl.trainer.HFLTrainer` and :class:`repro.vfl.trainer.VFLTrainer`
but dispatches every party's per-round work through a
:class:`~repro.runtime.scheduler.Scheduler` — which brings a simulated
clock, pluggable executors (serial or thread-pool), fault injection and
deadline-based partial aggregation to the same training logs the DIG-FL
estimators already consume.

Two guarantees, both covered by tests:

* **Deterministic equivalence** — with the serial executor, the null fault
  plan and no deadline, ``run_hfl``/``run_vfl`` produce the *same log, bit
  for bit* (same ``θ_t``, same ``δ_{t,i}``, same weights) as calling the
  synchronous trainers directly.  This holds by construction: the engine
  has no round loop of its own.  It plugs a runner into the trainers'
  ``train`` (``rounds=``, see :mod:`repro.rounds`) that runs each party's local work
  as a scheduler task and records events around the round; every float
  is computed by the trainers' loop.
* **Honest partial participation** — when faults or deadlines remove a
  party from round ``t``, its update row is zero, the aggregation weights
  are renormalised over the arrivals, and the round's participation mask
  is recorded on the :class:`~repro.hfl.log.EpochRecord` so the
  estimators can zero that party's per-epoch contribution.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.hfl.trainer import HFLResult, HFLTrainer, Reweighter
from repro.metrics.cost import CostLedger
from repro.obs import Observability
from repro.obs.trace import NULL_SPAN
from repro.rounds import LocalRound, SyncRounds
from repro.runtime import events as ev
from repro.runtime.events import EventLog
from repro.runtime.executor import Executor, make_executor
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.scheduler import RoundOutcome, Scheduler
from repro.vfl.trainer import VFLResult, VFLReweighter, VFLTrainer

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.robust.aggregators import Aggregator
    from repro.robust.checkpoint import CheckpointManager
    from repro.robust.screening import UpdateScreener


class ContributionSink(Protocol):
    """Anything the engine can publish finished epoch records into.

    :class:`repro.serve.service.ContributionPublisher` is the shipped
    implementation — it streams each record into a live
    :class:`~repro.serve.service.EvaluationService` run, so contributions
    and leaderboards are queryable *while* training runs.  ``publish``
    returns a detail dict which the engine attaches to the round's
    ``contrib_updated`` event (keeping the dependency pointing from serve
    to runtime, never back).
    """

    def publish(self, record) -> dict: ...


@dataclass(frozen=True)
class RuntimeConfig:
    """How a federation executes: executor, faults, deadline.

    The default config (serial executor, null fault plan, no deadline) is
    the deterministic-equivalence regime.
    """

    executor: str = "serial"  # "serial" | "threads"
    workers: int = 1
    faults: FaultPlan = field(default_factory=FaultPlan)
    round_deadline_ms: float | None = None

    def make_executor(self) -> Executor:
        return make_executor(self.executor, self.workers)

    def is_deterministic_equivalent(self) -> bool:
        """True when the engine promises bit-for-bit sync-trainer logs."""
        return self.faults.is_null() and self.round_deadline_ms is None


class _ModelReplicas:
    """Per-thread model replicas so pool workers never share parameters.

    Replica parameters are overwritten with ``θ_{t-1}`` before every local
    update, so replication is invisible to the numbers — it only removes
    the data race on the shared model object.
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self._local = threading.local()

    def get(self):
        model = getattr(self._local, "model", None)
        if model is None:
            model = self._factory()
            self._local.model = model
        return model


class FederatedRuntime:
    """Executes HFL / VFL federations on the event-driven scheduler."""

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        *,
        event_log: EventLog | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config if config is not None else RuntimeConfig()
        # An empty EventLog is falsy (len == 0) — `or` would discard it.
        self.event_log = event_log if event_log is not None else EventLog()
        # Tracing/metrics are pure bookkeeping on top of the protocols:
        # the bit-for-bit equivalence guarantee is unaffected by obs
        # because spans and counters never touch the training numbers.
        self.obs = obs if obs is not None else Observability()
        self.quarantines_total = self.obs.registry.counter(
            "repro_runtime_quarantines_total",
            help="Updates excluded by the pre-aggregation screening pass",
        )
        if self.obs.logger.enabled and self.event_log.sink is None:
            event_logger = self.obs.logger.bind(source="runtime")
            self.event_log.sink = lambda e: event_logger.log(
                f"runtime.{e.kind}",
                round=e.round,
                party=e.party,
                sim_time=e.sim_time,
                detail=e.detail,
            )

    # ------------------------------------------------------------------ HFL

    def run_hfl(
        self,
        trainer: HFLTrainer,
        locals_: Sequence[Dataset],
        validation: Dataset | None = None,
        *,
        participants: Sequence[int] | None = None,
        reweighter: Reweighter | None = None,
        init_theta: np.ndarray | None = None,
        ledger: CostLedger | None = None,
        track_validation: bool = False,
        weight_by_samples: bool = False,
        aggregator: "Aggregator | None" = None,
        screener: "UpdateScreener | None" = None,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
        publisher: ContributionSink | None = None,
    ) -> HFLResult:
        """FedSGD/FedAvg on the engine; signature mirrors ``HFLTrainer.train``.

        The robust arguments behave exactly as on the synchronous trainer;
        additionally every quarantine incident is emitted as a
        ``quarantine`` event on the runtime's event log, and screening
        composes with the fault plane (an update must both *arrive* and
        *survive screening* to enter ``G_t``).  Resuming restarts the
        simulated clock at zero, but fault fates are keyed on (round,
        party), so the resumed training log is bit-for-bit the
        uninterrupted one.

        ``publisher`` streams every finished round's :class:`EpochRecord`
        into a live contribution service (see :class:`ContributionSink`),
        emitting one ``contrib_updated`` event per round.  Publication is
        read-only bookkeeping — it never changes the training numbers.
        """
        return trainer.train(
            locals_,
            validation,
            participants=participants,
            reweighter=reweighter,
            init_theta=init_theta,
            ledger=ledger,
            track_validation=track_validation,
            weight_by_samples=weight_by_samples,
            aggregator=aggregator,
            screener=screener,
            checkpoint=checkpoint,
            resume=resume,
            rounds=_EngineRounds(self, publisher),
        )

    # ------------------------------------------------------------------ VFL

    def run_vfl(
        self,
        trainer: VFLTrainer,
        train: Dataset,
        validation: Dataset,
        *,
        parties: Sequence[int] | None = None,
        reweighter: VFLReweighter | None = None,
        ledger: CostLedger | None = None,
        track_losses: bool = False,
        screener: "UpdateScreener | None" = None,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
        publisher: ContributionSink | None = None,
    ) -> VFLResult:
        """Vertical training on the engine; mirrors ``VFLTrainer.train``.

        A party that misses round ``t``'s deadline simply does not apply
        its block update that round (its weight is zeroed).  ``screener``
        runs the :mod:`repro.robust` screening pass over the per-party
        gradient blocks of the parties that arrived (cosine rule disabled
        across disjoint blocks); quarantined parties are treated exactly
        like deadline misses and each incident is emitted as a
        ``quarantine`` event.  ``checkpoint`` / ``resume`` / ``publisher``
        behave as on :meth:`run_hfl`.
        """
        return trainer.train(
            train,
            validation,
            parties=parties,
            reweighter=reweighter,
            ledger=ledger,
            track_losses=track_losses,
            screener=screener,
            checkpoint=checkpoint,
            resume=resume,
            rounds=_EngineRounds(self, publisher),
        )


class _EngineRounds(SyncRounds):
    """The engine's round runner for the trainers' shared round loop.

    Each party's local work becomes a scheduler task (fault fate, simulated
    clock, deadline, executor; HFL work runs on a per-thread model
    replica), and around every round the runner records spans, one
    ``quarantine`` event per screening incident and the live publication.
    Spans are opened and closed manually, so an error ends whatever round
    was in flight with ``status="error"``.
    """

    def __init__(
        self, runtime: FederatedRuntime, publisher: ContributionSink | None
    ) -> None:
        super().__init__(runtime.obs.tracer)
        self.runtime = runtime
        self.publisher = publisher
        self._run_span = NULL_SPAN
        self._outcome: RoundOutcome | None = None

    @contextmanager
    def running(self, kind, n_parties, epochs, model_factory=None):
        config = self.runtime.config
        self._replicas = _ModelReplicas(model_factory) if model_factory else None
        executor = config.make_executor()
        self._scheduler = Scheduler(
            executor,
            FaultInjector(config.faults),
            round_deadline_ms=config.round_deadline_ms,
            event_log=self.runtime.event_log,
        )
        self._run_span = self.tracer.span(
            "engine.run", kind=kind, participants=n_parties, epochs=epochs
        )
        try:
            with super().running(kind, n_parties, epochs):
                yield
        except BaseException:
            self._run_span.end(status="error")
            raise
        finally:
            executor.shutdown()
            self._run_span.end()

    def begin_round(self, epoch):
        self._span = self.tracer.span(
            "engine.round", parent=self._run_span, epoch=epoch, kind=self.kind
        )

    def local_work(self, epoch, parties, work, model=None):
        tracer = self.tracer
        ctx = self._span.context
        replicas = self._replicas
        theta = None if model is None else model.get_flat()

        def make_task(i: int):
            def task():
                # Explicit parent: pool workers have no thread-local
                # ancestry, the context handle keeps one trace tree.
                with tracer.span("engine.task", parent=ctx, epoch=epoch, party=i):
                    worker = None
                    if theta is not None:
                        worker = replicas.get()
                        worker.set_flat(theta)
                    return work(worker, i)

            return task

        outcome = self._scheduler.run_round(epoch, [(i, make_task(i)) for i in parties])
        self._outcome = outcome
        return LocalRound(
            [o.result for o in outcome.outcomes],
            [o.arrived for o in outcome.outcomes],
            [o.status != "dropout" for o in outcome.outcomes],
        )

    def screen(self, screener, epoch, parties, updates, mask, *, homogeneous=True):
        """Run the screening pass, emitting one ``quarantine`` event per incident."""
        before = len(screener.ledger)
        verdict = super().screen(
            screener, epoch, parties, updates, mask, homogeneous=homogeneous
        )
        for incident in screener.ledger.incidents[before:]:
            self.runtime.quarantines_total.inc()
            self.runtime.event_log.record(
                ev.QUARANTINE,
                self._outcome.ended_at,
                epoch,
                incident.party,
                rule=incident.rule,
                **incident.detail,
            )
        return verdict

    def end_round(self, record, arrived):
        if self.publisher is not None:
            self._publish(record)
        self._span.set_attribute("arrived", arrived)
        self._span.end()

    def _publish(self, record) -> None:
        """Push one finished round into the sink; emit ``contrib_updated``.

        Publication must never take down training: a sink that raises (a
        retrying :class:`~repro.serve.service.ContributionPublisher`
        never does — it returns a ``{"dead_letter": True}`` detail after
        exhausting its backoff schedule, but arbitrary sinks may) is
        recorded as a ``publish_dlq`` event and the round goes on.
        """
        event_log = self.runtime.event_log
        ended_at = self._outcome.ended_at
        try:
            detail = self.publisher.publish(record)
        except Exception as exc:
            event_log.record(
                ev.PUBLISH_DLQ,
                ended_at,
                record.epoch,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        detail = detail if isinstance(detail, dict) else {}
        kind = ev.PUBLISH_DLQ if detail.get("dead_letter") else ev.CONTRIB_UPDATED
        event_log.record(kind, ended_at, record.epoch, **detail)
