"""In-process contribution evaluation service.

One :class:`EvaluationService` owns a registry of *runs* (streaming
estimator + content digest + lock + circuit breaker), a shared
:class:`~repro.serve.cache.ResultCache`, a request thread pool behind a
bounded admission queue, and latency histograms.  Producers push epochs
in — batched from a saved log, or live from the :mod:`repro.runtime`
engine through a :class:`ContributionPublisher` — and any number of
consumer threads query contributions, leaderboards and Eq. 17 reweight
vectors mid-training.

Concurrency: the registry is guarded by one lock; each run by its own
re-entrant lock, held for every ingest *and* every query touching its
estimator, so a query observes a whole number of epochs.  Query answers
and validation gradients are cached content-addressed (prefix digest +
query parameters) in one thread-safe cache (``benchmarks/bench_serve.py``).

Resilience (:mod:`repro.serve.resilience`): a query may carry a
:class:`~repro.serve.resilience.Deadline`, checked at safe points and at
the ``Future`` boundary of :meth:`query`; a bounded admission queue sheds
load with :class:`~repro.serve.resilience.ServiceOverloaded`; a per-run
circuit breaker, after consecutive estimator failures or timeouts, serves
the run's *last good* answer marked ``"stale": true`` — contribution
scores are volatile across reruns, so a consistent stale answer beats an
error and a nervous recompute.  Non-finite payloads count as failures and
are never cached.  :meth:`close` is idempotent; every public method then
raises :class:`~repro.serve.resilience.ServiceClosed`.  An attached
:class:`~repro.serve.wal.WriteAheadLog` makes every registration and
every epoch's contribution row durable; ``repro serve --recover``
restores runs from those rows alone (:meth:`EvaluationService.restore_run`,
:meth:`~EvaluationService.replay_epoch`).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.backends import HFLRunContext, VFLRunContext, get_backend
from repro.core.contribution import ContributionReport
from repro.core.streaming import _StreamingBase
from repro.data.dataset import Dataset
from repro.hfl.log import EpochRecord, TrainingLog
from repro.metrics.cost import LatencyHistogram
from repro.nn.models import Classifier
from repro.obs import Observability
from repro.obs.profile import NULL_PROFILER
from repro.serve.cache import ResultCache, RunDigest, fingerprint_arrays
from repro.serve.resilience import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    QueryFailed,
    RetryPolicy,
    ServiceClosed,
    ServiceOverloaded,
    retry_after_seconds,
)
from repro.vfl.log import VFLEpochRecord, VFLTrainingLog

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serve.wal import WriteAheadLog

_VAL_GRAD_PREFIX = "valgrad"
# Errors that mean "the caller asked wrong", not "the estimator is sick":
# they pass through untouched and never count against a breaker.
_CALLER_ERRORS = (ValueError, KeyError, TypeError)


class MissingRunInputs(RuntimeError):
    """A live epoch for a WAL-restored run the WAL holds no inputs for."""


class _Run:
    """One registered run: estimator, digest, lock, breaker, last-good answers."""

    def __init__(
        self,
        run_id: str,
        estimator: _StreamingBase,
        digest: RunDigest,
        breaker: CircuitBreaker,
        record: dict,
        rebuild: Callable[[], _StreamingBase] | None = None,
    ) -> None:
        self.run_id = run_id
        self.estimator = estimator
        self.digest = digest
        # The WAL register record (kind, estimator, ...); ``rebuild`` builds
        # a restored HFL run's estimator, inputs included, when it ingests.
        self.record = record
        self.rebuild = rebuild
        self.lock = threading.RLock()
        self.breaker = breaker
        self.profiler = NULL_PROFILER  # the service swaps in the run's own
        # (query name, params) -> the last successfully computed payload,
        # served stale-marked while the breaker refuses fresh computes.
        self.last_good: dict[tuple[str, str], dict] = {}

    def summary(self) -> dict:
        with self.lock:
            return {
                "run_id": self.run_id,
                "kind": self.record["kind"],
                "estimator": self.record["estimator"],
                "epochs": self.estimator.n_epochs,
                "participants": list(self.estimator.participant_ids),
                "breaker": self.breaker.state,
            }


class EvaluationService:
    """Caching, concurrent, failure-isolating query service.

    ``cache_bytes`` bounds the shared result/gradient cache;
    ``max_workers`` sizes the pool behind :meth:`query`/:meth:`submit`;
    ``query_deadline_ms`` is the default per-request deadline (None: no
    deadline); ``admission_limit`` bounds admitted-but-unfinished pool
    requests (None: unbounded — the library default; ``repro serve``
    sets it); ``breaker_failures``/``breaker_reset_s`` parameterise the
    per-run circuit breakers; ``wal`` makes registry mutations durable.
    All public methods are thread-safe.
    """

    def __init__(
        self,
        *,
        cache_bytes: int = 64 * 1024 * 1024,
        max_workers: int = 4,
        query_deadline_ms: float | None = None,
        admission_limit: int | None = None,
        breaker_failures: int = 3,
        breaker_reset_s: float = 30.0,
        wal: "WriteAheadLog | None" = None,
        obs: Observability | None = None,
    ) -> None:
        self.cache = ResultCache(cache_bytes)
        self.ingest_latency = LatencyHistogram()
        self.query_latency = LatencyHistogram()
        self.query_deadline_ms = query_deadline_ms
        self.admission = AdmissionQueue(admission_limit)
        self.breaker_failures = breaker_failures
        self.breaker_reset_s = breaker_reset_s
        self.wal = wal
        # The default bundle keeps tracing off (no per-request spans) but
        # metrics and per-run profiling on — they cost nothing on the warm
        # query path (scrape-time callbacks / phase timers inside
        # millisecond ingests; benchmarks/bench_obs.py holds the line).
        self.obs = obs if obs is not None else Observability()
        # Tracing posture is fixed at construction; the cached flag keeps
        # the disabled query() fast path to a single attribute read.
        self._trace_off = not self.obs.tracer.enabled
        self._runs: dict[str, _Run] = {}
        self._registry_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._auto_ids = itertools.count(1)
        self._started_at = time.perf_counter()
        self._closed = False
        self._close_lock = threading.Lock()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Absorb the service's instruments into the obs metrics registry."""
        reg = self.obs.registry
        reg.register(
            "repro_serve_ingest_latency_seconds",
            self.ingest_latency,
            help="EvaluationService.ingest wall time per epoch record",
            exist_ok=True,
        )
        reg.register(
            "repro_serve_query_latency_seconds",
            self.query_latency,
            help="EvaluationService query wall time per request",
            exist_ok=True,
        )
        self.cache.register_metrics(reg)
        reg.register(
            "repro_serve_admission_depth",
            self.admission.depth,
            help="Admitted-but-unfinished requests",
            exist_ok=True,
        )
        reg.register(
            "repro_serve_admission_in_flight",
            self.admission.in_flight,
            help="Requests currently executing on the pool",
            exist_ok=True,
        )
        reg.register(
            "repro_serve_admission_shed_total",
            lambda: self.admission.shed,
            kind="counter",
            help="Requests refused by the bounded admission queue",
            exist_ok=True,
        )
        reg.register(
            "repro_serve_runs",
            lambda: len(self._runs),
            kind="gauge",
            help="Registered runs",
            exist_ok=True,
        )
        reg.register(
            "repro_serve_uptime_seconds",
            lambda: time.perf_counter() - self._started_at,
            kind="gauge",
            help="Seconds since the service was constructed",
            exist_ok=True,
        )
        # New first-class counters: breaker transitions (fed by the
        # breakers' on_open hook) and publisher dead letters.
        self.breaker_opens_total = reg.counter(
            "repro_serve_breaker_opens_total",
            help="Circuit-breaker closed/half-open to open transitions",
        )
        self.dlq_total = reg.counter(
            "repro_serve_publish_dlq_total",
            help="Epoch records dead-lettered by contribution publishers",
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosed()

    # --------------------------------------------------------- registration

    def register_hfl(
        self,
        participant_ids: Sequence[int],
        validation: Dataset,
        model_factory: Callable[[], Classifier],
        *,
        run_id: str | None = None,
        use_logged_weights: bool = False,
        estimator: str = "digfl",
        estimator_options: dict | None = None,
        spec: dict | None = None,
    ) -> str:
        """Register an (initially empty) HFL run; returns its id.

        ``estimator`` names a registered backend
        (:func:`repro.core.backends.get_backend`); ``estimator_options``
        parameterise it.  The run's content digest is seeded with the
        validation-set hash, the model architecture and the backend's
        digest token (name + options), so cached answers are shared
        exactly between runs that would compute identical numbers — and
        never across backends.  ``spec`` holds the ``POST /runs`` fields
        the run's WAL ``register`` record carries.
        """
        backend = get_backend(estimator, **(estimator_options or {}))
        backend.require("hfl")
        use_logged_weights = bool(use_logged_weights)
        memo = self.cache.memo(_VAL_GRAD_PREFIX)
        ctx = HFLRunContext(
            participant_ids,
            validation,
            model_factory,
            use_logged_weights=use_logged_weights,
            val_grad_memo=memo,
        )
        streaming = backend.streaming_hfl(ctx)
        # The architecture comes off the estimator's own model: one
        # model_factory() call per registration.  Validation gradients are
        # memoised per (validation set, architecture) only, so every
        # backend and option combination over the same data shares them.
        model = streaming.model
        val_fingerprint = fingerprint_arrays(X=validation.X, y=validation.y)
        architecture = f"{type(model).__name__}:{model.num_parameters()}"
        memo.prefix = f"{_VAL_GRAD_PREFIX}:{val_fingerprint}:{architecture}"
        seed = RunDigest(
            "hfl",
            backend.digest_token(),
            f"use_logged_weights={use_logged_weights}",
            val_fingerprint,
            architecture,
        )
        return self._register(
            run_id, "hfl", backend, streaming, seed, spec,
            participant_ids=[int(i) for i in participant_ids],
            use_logged_weights=use_logged_weights,
        )

    def register_vfl(
        self,
        feature_blocks: Sequence[np.ndarray],
        active_parties: Sequence[int],
        *,
        run_id: str | None = None,
        estimator: str = "digfl",
        estimator_options: dict | None = None,
        spec: dict | None = None,
    ) -> str:
        """Register an (initially empty) VFL run; returns its id."""
        backend = get_backend(estimator, **(estimator_options or {}))
        backend.require("vfl")
        blocks = [np.asarray(b) for b in feature_blocks]
        seed = RunDigest(
            "vfl",
            backend.digest_token(),
            fingerprint_arrays(**{f"block_{i}": b for i, b in enumerate(blocks)}),
            repr(list(active_parties)),
        )
        ctx = VFLRunContext(blocks, active_parties)
        return self._register(
            run_id, "vfl", backend, backend.streaming_vfl(ctx), seed, spec,
            feature_blocks=[b.tolist() for b in blocks],
            active_parties=[int(p) for p in active_parties],
        )

    def register_hfl_log(self, log: TrainingLog, validation, model_factory, **kwargs) -> str:
        """Register an HFL run and ingest a complete log in one call."""
        run_id = self.register_hfl(
            log.participant_ids, validation, model_factory, **kwargs
        )
        self.ingest_log(run_id, log)
        return run_id

    def register_vfl_log(self, log: VFLTrainingLog, *, run_id: str | None = None, **kwargs) -> str:
        """Register a VFL run and ingest a complete log in one call."""
        run_id = self.register_vfl(
            log.feature_blocks, log.active_parties, run_id=run_id, **kwargs
        )
        self.ingest_log(run_id, log)
        return run_id

    def restore_run(self, record: dict, validation=None) -> bool:
        """Register a run from its WAL ``register`` record; ``False`` if held.

        Nothing is computed: a restored HFL run holds rows only, and its
        first live epoch builds its estimator over ``validation()`` (a
        (validation set, model factory) pair; none: :class:`MissingRunInputs`).
        A held run must have the record's digest seed (:class:`RecoveryError`).
        """
        from repro.serve.wal import RecoveryError  # lazily: HTTP clients skip it

        with self._registry_lock:
            held = self._runs.get(record["run_id"])
        if held is not None:
            if held.record["digest_seed"] != record["digest_seed"]:
                raise RecoveryError(
                    f"run {record['run_id']!r} is held here with another "
                    "estimator, options or inputs than the WAL record names"
                )
            return False
        backend = get_backend(record["estimator"], **record["estimator_options"])
        rebuild = None
        if record["kind"] == "vfl":
            blocks = [np.asarray(b, dtype=np.int64) for b in record["feature_blocks"]]
            estimator = backend.streaming_vfl(
                VFLRunContext(blocks, record["active_parties"])
            )
        else:
            ids = record["participant_ids"]
            estimator = backend.streaming_hfl(HFLRunContext(ids, None, lambda: None))

            def rebuild() -> _StreamingBase:
                if validation is None:
                    raise MissingRunInputs(
                        f"run {record['run_id']!r}: the WAL holds no validation set"
                    )
                weighted = record["use_logged_weights"]
                ctx = HFLRunContext(ids, *validation(), use_logged_weights=weighted)
                return backend.streaming_hfl(ctx)

        digest = RunDigest.resume(record["digest_seed"])
        self._register(
            record["run_id"], record["kind"], backend, estimator, digest, record, rebuild
        )
        return True

    def _register(
        self,
        run_id: str | None,
        kind: str,
        backend,
        estimator: _StreamingBase,
        digest: RunDigest,
        spec: dict | None,
        rebuild: Callable[[], _StreamingBase] | None = None,
        **fields,
    ) -> str:
        """Add a run; log its WAL ``register`` record: ``spec`` + ``fields``."""
        self._ensure_open()
        breaker = CircuitBreaker(
            self.breaker_failures,
            self.breaker_reset_s,
            on_open=self.breaker_opens_total.inc,
        )
        with self._registry_lock:
            auto = run_id is None
            while auto and (run_id is None or run_id in self._runs):
                run_id = f"{kind}-{next(self._auto_ids)}"  # past restored ids
            if run_id in self._runs:
                raise ValueError(f"run id {run_id!r} already registered")
            record = {
                **(spec or {}),
                **fields,
                "kind": kind,
                "run_id": run_id,
                "estimator": backend.name,
                "estimator_options": backend.options,
                "digest_seed": digest.hexdigest(),
            }
            run = _Run(run_id, estimator, digest, breaker, record, rebuild)
            # Hand the estimator this run's phase profiler so its hot-path
            # timers (valgrad, dot products) aggregate under the run id.
            run.profiler = self.obs.profiles.for_run(run_id)
            estimator.profiler = run.profiler
            self._runs[run_id] = run
            run.lock.acquire()
        try:
            if self.wal is not None:
                from repro.serve.wal import REGISTER

                # Under the run's lock, which every ingest takes: no ingest
                # record of the run can precede this one.  Outside the
                # registry lock: a wait on another thread's fsync stalls no
                # other run.  The run's first commit makes it durable.
                with self.obs.tracer.span("wal.append", kind=REGISTER):
                    self.wal.append(REGISTER, record, sync=False)
        finally:
            run.lock.release()
        return run_id

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Start logging registry mutations to ``wal`` (post-recovery hook)."""
        if self.wal is not None and self.wal is not wal:
            raise ValueError("service already has a WAL attached")
        self.wal = wal

    def runs(self) -> list[dict]:
        """Summaries of every registered run."""
        self._ensure_open()
        with self._registry_lock:
            runs = list(self._runs.values())
        return [run.summary() for run in runs]

    def _run(self, run_id: str) -> _Run:
        with self._registry_lock:
            run = self._runs.get(run_id)
        if run is None:
            raise KeyError(f"unknown run id {run_id!r}")
        return run

    def run_digest(self, run_id: str) -> str:
        """The hex content digest of a run's ingested prefix (WAL recovery)."""
        run = self._run(run_id)
        with run.lock:
            return run.digest.hexdigest()

    # ------------------------------------------------------------ ingestion

    def ingest(
        self,
        run_id: str,
        record: EpochRecord | VFLEpochRecord,
        *,
        seq: int | None = None,
        sync: bool = True,
    ) -> int:
        """Feed one epoch record; returns the epoch count after ingestion.

        ``seq`` makes the call *idempotent*: it names the epoch count the
        record would bring the run to, and a record the run has already
        absorbed (``n_epochs >= seq``) is skipped — which is what lets
        the retrying :class:`ContributionPublisher` re-send after a
        transient failure without double-ingesting.  Ingestion is atomic:
        the next link of the digest chain is committed only after the
        estimator accepts the record, so a failed ingest changes nothing.
        Behind a WAL the epoch's row, counter increments and chain link
        are durable on return (``sync=False`` leaves the fsync to the
        caller's commit).  A WAL-restored run builds its estimator first.
        """
        self._ensure_open()
        run = self._run(run_id)
        started = time.perf_counter()
        tracer = self.obs.tracer
        with tracer.span("serve.ingest", run_id=run_id, seq=seq) as span, run.lock:
            if seq is not None:
                if seq != run.estimator.n_epochs + 1:
                    if run.estimator.n_epochs >= seq:
                        span.set_attribute("replayed", True)
                        return run.estimator.n_epochs  # idempotent replay
                    raise ValueError(
                        f"out-of-order ingest: run {run_id!r} holds "
                        f"{run.estimator.n_epochs} epochs, got seq {seq}"
                    )
            if run.rebuild is not None:
                estimator = run.rebuild()
                estimator.adopt(run.estimator)
                run.estimator, run.rebuild = estimator, None
            with run.profiler.phase("cache.digest"):
                if run.record["kind"] == "hfl":
                    candidate = run.digest.update_hfl(record)
                    # The gradient memo key is the *model state*, not the
                    # run digest: ∇loss^v(θ) depends only on θ (the memo
                    # namespace already pins the validation set and
                    # architecture), so runs that differ in backend or
                    # options — or replay the same log — share gradients.
                    memo_key = fingerprint_arrays(theta=record.theta_before)
                else:
                    candidate = run.digest.update_vfl(record)
                    memo_key = candidate.hexdigest()
            counted = run.estimator.counter_values()
            row = run.estimator.ingest(record, memo_key=memo_key)
            run.digest = candidate
            epochs = run.estimator.n_epochs
            span.set_attribute("epochs", epochs)
            if self.wal is not None:
                from repro.serve.wal import INGEST, encode_row

                increments = {
                    name: value - counted[name]
                    for name, value in run.estimator.counter_values().items()
                }
                with tracer.span("wal.append", kind=INGEST), run.profiler.phase(
                    "wal.fsync"
                ):
                    self.wal.append(
                        INGEST,
                        {
                            "run_id": run_id,
                            "epoch": epochs,
                            "row": encode_row(row),
                            "counters": increments,
                            "hash": candidate.record_hash,
                            "digest": candidate.hexdigest(),
                        },
                        sync=sync,
                    )
        self.ingest_latency.record(time.perf_counter() - started)
        self.obs.logger.debug(
            "serve.ingest", run_id=run_id, epochs=epochs, seq=seq
        )
        return epochs

    def replay_epoch(self, payload: dict) -> bool:
        """Push one WAL ``ingest`` record onto its run; ``False`` if held.

        No estimator work: the logged row and counter increments are
        pushed as they are, once the record's link extends the run's hash
        chain, ``SHA-256(d_{t-1} ‖ h_t) == d_t`` (a redelivered record of
        the latest epoch must carry the digest held), else
        :class:`RecoveryError`.  Behind a WAL the record is re-logged as
        it is, so a standby's own log is a valid replication source.
        """
        from repro.serve.wal import INGEST, RecoveryError, decode_row

        run = self._run(payload["run_id"])
        epoch = int(payload["epoch"])
        with run.lock:
            held = run.estimator.n_epochs
            if epoch < held:
                return False  # redelivered; only the latest link is kept
            link = run.digest if epoch == held else run.digest.extend(payload["hash"])
            if epoch > held + 1 or link.hexdigest() != payload["digest"]:
                raise RecoveryError(
                    f"run {run.run_id!r} epoch {epoch}: digest {payload['digest'][:12]}… "
                    f"does not extend the {held} epoch(s) held; refusing to diverge"
                )
            if epoch == held:
                return False
            run.estimator.restore(decode_row(payload["row"]), payload["counters"])
            run.digest = link
            if self.wal is not None:
                with self.obs.tracer.span("wal.append", kind=INGEST):
                    self.wal.append(INGEST, dict(payload))
        return True

    def ingest_log(
        self,
        run_id: str,
        log: TrainingLog | VFLTrainingLog,
        *,
        deadline: Deadline | None = None,
    ) -> int:
        """Batched ingestion of every not-yet-seen record of ``log``.

        Idempotent for a growing log: records before the run's current
        epoch count are assumed already ingested and skipped, so a
        producer can re-push the whole log each round.  The cooperative
        ``deadline`` is checked between records; expiry surfaces the
        epochs ingested so far as partial progress, and a retry resumes
        where the deadline cut in.

        Behind a WAL the batch is one group commit: every epoch record is
        written and flushed one at a time, as a lone :meth:`ingest` would,
        then one fsync makes them — and any record logged before them with
        ``sync=False``, such as a ``POST /runs`` registration — durable
        before this returns or raises, so no progress reaches a caller,
        not even a deadline's partial count, that a crash could take back.
        """
        self._ensure_open()
        run = self._run(run_id)
        with run.lock:
            try:
                start = run.estimator.n_epochs
                for record in log.records[start:]:
                    if deadline is not None:
                        deadline.check(epochs_ingested=run.estimator.n_epochs)
                    self.ingest(run_id, record, sync=False)
                return run.estimator.n_epochs
            finally:
                if self.wal is not None:
                    with self.obs.tracer.span("wal.commit"), run.profiler.phase(
                        "wal.fsync"
                    ):
                        self.wal.commit()

    def publisher(self, run_id: str, **kwargs) -> "ContributionPublisher":
        """A live-publishing hook for :meth:`repro.runtime.FederatedRuntime.run_hfl`.

        Keyword arguments parameterise the publisher's retry policy
        (``max_retries``, ``base_delay_s``, ``max_delay_s``, ``seed``,
        ``sleep``).
        """
        return ContributionPublisher(self, run_id, **kwargs)

    # -------------------------------------------------------------- queries

    def _cached_query(
        self,
        run: _Run,
        name: str,
        params: str,
        compute,
        deadline: Deadline | None,
    ):
        """Serve from cache; else compute under the breaker's protection.

        The key is the digest of the ingested prefix — content, not run
        id — so identical runs and repeated queries share one entry.
        Cached payloads are therefore run-agnostic; the requesting run's
        id (and staleness) is stamped on per request.  Failure ladder on
        a miss: breaker open → last good answer, ``"stale": true`` (none
        recorded → :class:`CircuitOpen`); compute raises or returns
        non-finite numbers → breaker failure, then the same stale
        fallback (none → :class:`QueryFailed`); compute overruns the
        deadline → the fresh value is still cached (the *next* caller
        gets it warm), the breaker counts a timeout, and
        :class:`DeadlineExceeded` surfaces with partial progress.
        """
        self._ensure_open()
        if deadline is not None:
            deadline.check()
        tracer = self.obs.tracer
        started = time.perf_counter()
        with run.lock:
            if run.estimator.n_epochs == 0:
                raise ValueError(f"run {run.run_id!r} has no epochs ingested yet")
            epochs = run.estimator.n_epochs
            key = ("query", run.digest.hexdigest(), name, params)
            # Parented by the worker's thread-local serve.compute span, so
            # the request trace shows where the time went: cache lookup vs
            # guarded estimator compute.
            with tracer.span("serve.cache", query=name) as cache_span:
                value = self.cache.get(key)
                cache_span.set_attribute("hit", value is not None)
            if value is None:
                with tracer.span("serve.estimator", query=name, epochs=epochs):
                    value = self._compute_guarded(
                        run, name, params, key, compute, deadline, epochs
                    )
        self.query_latency.record(time.perf_counter() - started)
        return self._stamp(run, value)

    @staticmethod
    def _stamp(run: _Run, value: dict) -> dict:
        """Stamp a run-agnostic cached payload with the requesting run's id."""
        return {
            "run_id": run.run_id,
            "estimator": run.record["estimator"],
            "stale": value.get("_stale", False),
            **{k: v for k, v in value.items() if k != "_stale"},
        }

    def _compute_guarded(
        self, run: _Run, name: str, params: str, key, compute, deadline, epochs
    ) -> dict:
        """The cache-miss path: breaker, payload validation, stale fallback."""
        if not run.breaker.allow():
            return self._stale_or_raise(
                run, name, params,
                CircuitOpen(
                    f"breaker for run {run.run_id!r} is open and no previous "
                    f"answer for {name!r} is available"
                ),
            )
        try:
            value = compute()
            self._validate_payload(name, value)
        except _CALLER_ERRORS:
            # The caller's mistake, not the estimator's health: no success
            # or failure recorded — but a held half-open probe slot must be
            # released, or the breaker would stay probing forever.
            run.breaker.cancel_probe()
            raise
        except DeadlineExceeded:
            run.breaker.record_failure()
            raise
        except Exception as exc:
            run.breaker.record_failure()
            return self._stale_or_raise(
                run, name, params,
                QueryFailed(
                    f"{name} query failed for run {run.run_id!r}: "
                    f"{type(exc).__name__}: {exc}"
                ),
                cause=exc,
            )
        run.breaker.record_success()
        self.cache.put(key, value)
        run.last_good[(name, params)] = value
        if deadline is not None and deadline.expired():
            # Too late for this caller, but the work is banked: the value
            # is cached and last-good, so the retry is a warm hit.
            run.breaker.record_failure()
            raise deadline.exceeded(epochs=epochs, computed=True)
        return value

    def _stale_or_raise(self, run: _Run, name: str, params: str, error, *, cause=None):
        stale = run.last_good.get((name, params))
        if stale is None:
            raise error from cause
        return {**stale, "_stale": True}

    @staticmethod
    def _validate_payload(name: str, value: dict) -> None:
        """Refuse non-finite numbers — a corrupted payload must never be cached."""
        numbers = []
        for field in ("totals", "weights"):
            numbers.extend(value.get(field, ()))
        numbers.extend(
            row["contribution"] for row in value.get("leaderboard", ())
        )
        if not np.all(np.isfinite(numbers)):
            raise QueryFailed(
                f"{name} produced non-finite values (corrupted payload)"
            )

    def report(self, run_id: str, *, deadline: Deadline | None = None) -> ContributionReport:
        """The full :class:`ContributionReport` (uncached: callers mutate it)."""
        self._ensure_open()
        run = self._run(run_id)
        if deadline is not None:
            deadline.check()
        started = time.perf_counter()
        with run.lock:
            if run.estimator.n_epochs == 0:
                raise ValueError(f"run {run_id!r} has no epochs ingested yet")
            report = run.estimator.report()
        self.query_latency.record(time.perf_counter() - started)
        return report

    def contributions(self, run_id: str, *, deadline: Deadline | None = None) -> dict:
        """Totals (and per-epoch shape metadata) as a JSON-ready dict."""
        run = self._run(run_id)

        def compute() -> dict:
            estimator = run.estimator
            return {
                "method": estimator.method,
                "epochs": estimator.n_epochs,
                "participant_ids": list(estimator.participant_ids),
                "totals": [float(v) for v in estimator.totals()],
            }

        return self._cached_query(run, "contributions", "", compute, deadline)

    def leaderboard(
        self, run_id: str, *, top: int | None = None, deadline: Deadline | None = None
    ) -> dict:
        """Ranked (participant, contribution) rows, best first."""
        run = self._run(run_id)

        def compute() -> dict:
            rows = run.estimator.leaderboard(top)
            return {
                "epochs": run.estimator.n_epochs,
                "leaderboard": [
                    {"rank": i + 1, "participant": pid, "contribution": total}
                    for i, (pid, total) in enumerate(rows)
                ],
            }

        return self._cached_query(run, "leaderboard", f"top={top}", compute, deadline)

    def weights(
        self, run_id: str, *, scheme: str = "rectified", deadline: Deadline | None = None
    ) -> dict:
        """The Eq. 17–18 reweight vector after the latest ingested epoch."""
        run = self._run(run_id)

        def compute() -> dict:
            vector = run.estimator.current_weights(scheme)
            return {
                "epochs": run.estimator.n_epochs,
                "scheme": scheme,
                "participant_ids": list(run.estimator.participant_ids),
                "weights": [float(w) for w in vector],
            }

        return self._cached_query(run, "weights", f"scheme={scheme}", compute, deadline)

    def query(self, method: str, /, *args, **kwargs):
        """The HTTP request path: admit, pool-execute, bound by the deadline.

        Admission is checked *before* the pool sees the request: a full
        queue sheds immediately with
        :class:`~repro.serve.resilience.ServiceOverloaded` (HTTP 429)
        whose ``retry_after_s`` comes from the query-latency p95 and the
        current depth.  The per-request
        :class:`~repro.serve.resilience.Deadline` is threaded into the
        compute *and* enforced at the ``Future`` boundary, so a request
        stuck behind a wedged worker still answers 504 on time.

        Warm cache hits skip the pool round-trip entirely: a non-blocking
        probe of the run lock answers them inline (a held lock — compute
        in progress — falls through to the pool path, so the caller is
        never stalled past its deadline).  The per-request deadline is
        only started on a miss; a hit pays nothing for resilience.
        """
        self._ensure_open()
        allowed = {"contributions", "leaderboard", "weights"}
        if method not in allowed:
            raise ValueError(f"method must be one of {sorted(allowed)}, got {method!r}")
        if self._trace_off:
            # Warm path stays span-free: one attribute read is the entire
            # cost of disabled tracing (the bench_obs.py contract).
            return self._admit_and_run(method, args, kwargs, None)
        tracer = self.obs.tracer
        with tracer.span(
            "serve.query", method=method, run_id=args[0] if args else None
        ) as root:
            return self._admit_and_run(method, args, kwargs, root)

    def _admit_and_run(self, method: str, args: tuple, kwargs: dict, root):
        """The admission → warm-peek → pool → deadline ladder behind query().

        ``root`` is the request's ``serve.query`` span (or ``None`` when
        tracing is off); admission, cache outcome and the pool-side
        compute hang off it as children/events, and the worker thread
        parents its spans explicitly on the root's context — the handle
        that survives the hop onto the pool thread.
        """
        if root is None:
            tracer = None
            admitted_now = self.admission.try_acquire()
        else:
            tracer = self.obs.tracer
            with tracer.span("serve.admission", parent=root) as admission_span:
                admitted_now = self.admission.try_acquire()
                admission_span.set_attribute("admitted", admitted_now)
        if not admitted_now:
            raise ServiceOverloaded(
                self.admission.depth.value,
                self.admission.limit,
                self._retry_after_s(),
            )
        try:
            warm = self._warm_peek(method, args, kwargs)
        except BaseException:
            self.admission.release()
            raise
        if warm is not None:
            self.admission.release()
            if root is not None:
                root.set_attribute("cache", "warm_hit")
            return warm
        deadline = Deadline.start(self.query_deadline_ms)
        ctx = root.context if root is not None else None

        def admitted():
            self.admission.enter()
            try:
                if ctx is None:
                    return getattr(self, method)(*args, deadline=deadline, **kwargs)
                # Explicit parenting: the pool thread has no thread-local
                # ancestry, so the compute span adopts the request's
                # context handle and the trace stays one tree.
                with tracer.span("serve.compute", parent=ctx, method=method):
                    return getattr(self, method)(*args, deadline=deadline, **kwargs)
            finally:
                self.admission.exit()
                self.admission.release()

        try:
            future = self._pool.submit(admitted)
        except RuntimeError:
            self.admission.release()
            raise ServiceClosed() from None
        timeout = deadline.remaining_s() if deadline is not None else None
        if root is None:
            try:
                return future.result(timeout=timeout)
            except FutureTimeout:
                raise deadline.exceeded(stage="future boundary") from None
        with tracer.span("serve.response", parent=root) as response_span:
            try:
                result = future.result(timeout=timeout)
            except FutureTimeout:
                raise deadline.exceeded(stage="future boundary") from None
            response_span.set_attribute("stale", result.get("stale", False))
            return result

    # Cache-key param strings per query method; must mirror the params
    # each method hands to _cached_query.
    _QUERY_PARAMS = {
        "contributions": lambda kwargs: "",
        "leaderboard": lambda kwargs: f"top={kwargs.get('top')}",
        "weights": lambda kwargs: f"scheme={kwargs.get('scheme', 'rectified')}",
    }

    def _warm_peek(self, method: str, args: tuple, kwargs: dict):
        """Answer a warm cache hit inline, or ``None`` for the pool path.

        Strictly non-blocking: an unknown run, a held run lock (a compute
        is in progress), unexpected call shapes, or a cache miss all fall
        through to the pool path, which owns every slow or error case.
        """
        if len(args) != 1 or "deadline" in kwargs:
            return None
        with self._registry_lock:
            run = self._runs.get(args[0])
        if run is None:
            return None
        params = self._QUERY_PARAMS[method](kwargs)
        if not run.lock.acquire(blocking=False):
            return None
        try:
            if run.estimator.n_epochs == 0:
                return None
            started = time.perf_counter()
            value = self.cache.get(
                ("query", run.digest.hexdigest(), method, params)
            )
        finally:
            run.lock.release()
        if value is None:
            return None
        self.query_latency.record(time.perf_counter() - started)
        return self._stamp(run, value)

    def _retry_after_s(self) -> float:
        return retry_after_seconds(
            self.query_latency.percentile(0.95), self.admission.depth.value
        )

    def submit(self, method: str, /, *args, **kwargs) -> Future:
        """Thread-pool request handling: run a query method asynchronously.

        ``service.submit("leaderboard", run_id, top=3)`` returns a
        :class:`~concurrent.futures.Future` resolving to the same payload
        the synchronous call would; bulk consumers use it to overlap
        independent queries.  (The HTTP layer goes through :meth:`query`,
        which adds admission control and the deadline boundary.)
        """
        self._ensure_open()
        allowed = {"contributions", "leaderboard", "weights", "report", "ingest_log"}
        if method not in allowed:
            raise ValueError(f"method must be one of {sorted(allowed)}, got {method!r}")
        return self._pool.submit(getattr(self, method), *args, **kwargs)

    # ------------------------------------------------------------ metrics

    def health(self) -> dict:
        """The ``/healthz`` payload: ok / degraded / closed, plus why.

        ``degraded`` means at least one run's breaker is not closed —
        its queries are being answered from last-good state, stale-marked.
        """
        if self._closed:
            return {"status": "closed", "runs": 0, "degraded_runs": []}
        with self._registry_lock:
            runs = list(self._runs.values())
        degraded = [
            run.run_id
            for run in runs
            if run.breaker.state != CircuitBreaker.CLOSED
        ]
        return {
            "status": "degraded" if degraded else "ok",
            "runs": len(runs),
            "degraded_runs": degraded,
        }

    def stats(self) -> dict:
        """Everything ``/metricz`` serves: cache, latency, load, breakers."""
        with self._registry_lock:
            runs = list(self._runs.values())
        breakers = {
            run.run_id: run.breaker.stats()
            for run in runs
            if run.breaker.opens or run.breaker.state != CircuitBreaker.CLOSED
        }
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "runs": len(runs),
            "closed": self._closed,
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
            "breakers": breakers,
            "latency": {
                "ingest": self.ingest_latency.summary(),
                "query": self.query_latency.summary(),
            },
            "obs": self.obs.stats(),
        }

    def profile(self, run_id: str) -> dict:
        """Per-run phase-timer report (``GET /runs/{id}/profile``).

        Rows come from the run's :class:`repro.obs.profile.Profiler`
        (valgrad, dot products, digest, WAL fsync); empty when the
        service was built with profiling disabled.
        """
        self._ensure_open()
        run = self._run(run_id)
        return {
            "run_id": run_id,
            "epochs": run.estimator.n_epochs,
            "enabled": self.obs.profiles.enabled,
            "phases": self.obs.profiles.report(run_id),
        }

    def close(self) -> None:
        """Shut down: idempotent, and everything after it fails fast.

        The closed flag flips *before* the pool drains, so requests
        arriving mid-shutdown get :class:`ServiceClosed` (HTTP 503)
        instead of queueing behind a dying pool — and a publisher that
        outlives the service dead-letters immediately instead of
        retrying into the void.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ContributionPublisher:
    """Engine-side sink: pushes each finished round into a service run.

    Matches the ``publisher`` hook of
    :meth:`repro.runtime.engine.FederatedRuntime.run_hfl` /
    :meth:`~repro.runtime.engine.FederatedRuntime.run_vfl`: the engine
    calls :meth:`publish` after appending each epoch record and emits a
    ``contrib_updated`` event carrying the returned detail — so the event
    log shows the leaderboard evolving while training runs, and any other
    thread can query the same service concurrently.

    Publishing is resilient so the *engine* never has to be: transient
    sink failures are retried with decorrelated-jitter backoff
    (:class:`~repro.serve.resilience.RetryPolicy`), each publish is
    sequence-numbered so a retry after a half-completed attempt cannot
    double-ingest the epoch, and a record that exhausts its retries (or
    hits a closed service, which is permanent) becomes a *dead letter*:
    recorded on :attr:`dead_letters`, returned as a
    ``{"dead_letter": True}`` detail, and logged by the engine as a
    ``publish_dlq`` event — training continues regardless.
    """

    def __init__(
        self,
        service: EvaluationService,
        run_id: str,
        *,
        max_retries: int = 4,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.service = service
        self.run_id = run_id
        self.retry = RetryPolicy(
            max_retries,
            base_delay_s=base_delay_s,
            max_delay_s=max_delay_s,
            seed=seed,
        )
        self._sleep = sleep
        self._published = service._run(run_id).estimator.n_epochs
        self._poisoned = False
        self.retries = 0
        self.dead_letters: list[dict] = []

    def publish(self, record: EpochRecord | VFLEpochRecord) -> dict:
        """Ingest one live epoch; returns event detail for the runtime log.

        Never raises: when the *ingest itself* is unrecoverable the
        detail is a dead letter and the epoch is not served.  A dead
        letter also *poisons the stream* — later records are
        dead-lettered without an attempt, because ingesting them would
        splice a hole into the served prefix and silently change the
        contribution numbers.  The training log still holds every record,
        so one ``ingest_log`` replay after the sink heals backfills the
        whole gap.

        An ingest that *landed* whose follow-up leaderboard query then
        exhausted its retries is different: the epoch **is** being
        served, there is no gap, so the detail reports the publish as
        successful but ``detail_degraded`` (no leader fields) and the
        stream is not poisoned.
        """
        seq = self._published + 1
        if self._poisoned:
            return self._dead_letter(
                record, seq, 0,
                RuntimeError(
                    "an earlier epoch was dead-lettered; refusing to publish "
                    "past the gap (backfill with ingest_log)"
                ),
            )
        attempts = 0
        delays = self.retry.delays()
        while True:
            attempts += 1
            try:
                return self._attempt(record, seq)
            except ServiceClosed as exc:
                return self._resolve_failure(record, seq, attempts, exc)
            except Exception as exc:
                try:
                    delay = next(delays)
                except StopIteration:
                    return self._resolve_failure(record, seq, attempts, exc)
                self.retries += 1
                self._sleep(delay)

    def _attempt(self, record, seq: int) -> dict:
        epochs = self.service.ingest(self.run_id, record, seq=seq)
        self._published = epochs
        leader = self.service.leaderboard(self.run_id, top=1)["leaderboard"][0]
        return {
            "run_id": self.run_id,
            "epochs": epochs,
            "leader": leader["participant"],
            "leader_contribution": leader["contribution"],
        }

    def _resolve_failure(self, record, seq: int, attempts: int, exc: Exception) -> dict:
        """Out of retries (or the service closed): dead-letter or degrade.

        ``self._published`` only advances once :meth:`EvaluationService.ingest`
        returns, so ``_published >= seq`` means this record's epoch is in
        the served prefix and only the leaderboard detail failed — report
        it published-but-degraded rather than punching a phantom gap.
        """
        if self._published >= seq:
            return {
                "run_id": self.run_id,
                "epochs": self._published,
                "detail_degraded": True,
                "attempts": attempts,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return self._dead_letter(record, seq, attempts, exc)

    def _dead_letter(self, record, seq: int, attempts: int, exc: Exception) -> dict:
        self._poisoned = True
        detail = {
            "run_id": self.run_id,
            "dead_letter": True,
            "seq": seq,
            "epoch": getattr(record, "epoch", None),
            "attempts": attempts,
            "error": f"{type(exc).__name__}: {exc}",
        }
        self.dead_letters.append(detail)
        self.service.dlq_total.inc()
        self.service.obs.logger.error(
            "publish.dead_letter", run_id=self.run_id, seq=seq, error=detail["error"]
        )
        return detail
