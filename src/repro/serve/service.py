"""In-process contribution evaluation service.

One :class:`EvaluationService` owns a registry of *runs* (streaming
estimator + content digest + lock + published answer), a shared
:class:`~repro.serve.cache.ResultCache` for validation gradients and
loaded logs, a bounded admission queue, and latency histograms.
Producers push epochs in — batched from a saved log, or live from the
:mod:`repro.runtime` engine through a :class:`ContributionPublisher` —
and any number of consumer threads query contributions, leaderboards and
Eq. 17 reweight vectors mid-training.

Readers never wait.  Lemma 3 (Eq. 15) makes a run's whole answer a pure
function of its per-epoch rows, so each time an epoch becomes durable
the run swaps in an immutable :class:`_Answer` (epochs, digest, totals,
ranking, latest row): at the end of a lone :meth:`~EvaluationService.ingest`,
at the commit of :meth:`~EvaluationService.ingest_log` (a deadline's
partial exit included) and at the end of
:meth:`~EvaluationService.replay_epoch`.  Queries read that snapshot
without the run lock, which serialises writers only; no answer reflects
an epoch a crash could take back.

Failures are refused where they enter: an epoch whose row holds NaN or
±inf raises :class:`~repro.core.streaming.NonFiniteRow` and changes
nothing — rows, counters, digest, WAL and answer stay as they were.
:meth:`query` keeps admission at the door: a full queue sheds with
:class:`~repro.serve.resilience.ServiceOverloaded` (HTTP 429 +
``Retry-After``).  :meth:`close` is idempotent; every public method then
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
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.backends import HFLRunContext, VFLRunContext, get_backend
from repro.core.contribution import ContributionReport
from repro.core.streaming import NonFiniteRow, _StreamingBase, reweight
from repro.data.dataset import Dataset
from repro.hfl.log import EpochRecord, TrainingLog
from repro.metrics.cost import LatencyHistogram
from repro.nn.models import Classifier
from repro.obs import Observability
from repro.obs.profile import NULL_PROFILER
from repro.serve.cache import ResultCache, RunDigest, fingerprint_arrays
from repro.serve.resilience import (
    AdmissionQueue,
    Deadline,
    RetryPolicy,
    ServiceClosed,
    ServiceOverloaded,
    retry_after_seconds,
)
from repro.vfl.log import VFLEpochRecord, VFLTrainingLog

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serve.wal import WriteAheadLog

_VAL_GRAD_PREFIX = "valgrad"
_READERS = ("contributions", "leaderboard", "weights")


class MissingRunInputs(RuntimeError):
    """A live epoch for a WAL-restored run the WAL holds no inputs for."""


class _Answer:
    """A run's answer after its latest durable epoch; never mutated.

    Holds a read-only view of the run's first ``epochs`` rows — rows the
    estimator never writes again — so publishing one costs O(1), even on
    every replayed WAL record.  The first read reduces the view to the
    totals (``per_epoch().sum(axis=0)``, bit for bit) and the ranking,
    and keeps them; racing first readers compute the same arrays.
    """

    __slots__ = ("epochs", "digest", "method", "participant_ids", "rows", "_reduced")

    def __init__(self, rows: np.ndarray, digest: str, method: str, ids: tuple) -> None:
        rows.setflags(write=False)
        self.epochs = len(rows)
        self.digest = digest
        self.method = method
        self.participant_ids = ids
        self.rows = rows
        self._reduced: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def latest(self) -> np.ndarray:
        """The latest epoch's row (read-only)."""
        return self.rows[-1]

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """(read-only totals, participant columns best total first)."""
        reduced = self._reduced
        if reduced is None:
            totals = self.rows.sum(axis=0)
            totals.setflags(write=False)
            reduced = self._reduced = (totals, np.argsort(totals)[::-1])
        return reduced


class _Run:
    """One registered run: estimator, digest, writer lock, published answer."""

    def __init__(
        self,
        run_id: str,
        estimator: _StreamingBase,
        digest: RunDigest,
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
        self.lock = threading.RLock()  # writers only; readers take ``answer``
        self.profiler = NULL_PROFILER  # the service swaps in the run's own
        self.answer: _Answer | None = None  # None until an epoch is durable
        self._ids = tuple(estimator.participant_ids)

    @property
    def epochs(self) -> int:
        """Epochs in the published answer (durable ones only)."""
        answer = self.answer
        return answer.epochs if answer is not None else 0

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.record["kind"],
            "estimator": self.record["estimator"],
            "epochs": self.epochs,
            "participants": list(self._ids),
        }

    def publish(self) -> None:
        """Swap in the answer of the epochs held; call once they are durable."""
        estimator = self.estimator
        if estimator.n_epochs != self.epochs:
            self.answer = _Answer(
                estimator.rows(), self.digest.hexdigest(), estimator.method, self._ids
            )


class EvaluationService:
    """Concurrent contribution service whose readers never wait.

    ``cache_bytes`` bounds the shared gradient/log cache;
    ``admission_limit`` bounds in-flight :meth:`query` requests (None:
    unbounded — the library default; ``repro serve --max-queue`` sets
    it); ``wal`` makes registry mutations durable.  All public methods
    are thread-safe.
    """

    def __init__(
        self,
        *,
        cache_bytes: int = 64 * 1024 * 1024,
        admission_limit: int | None = None,
        wal: "WriteAheadLog | None" = None,
        obs: Observability | None = None,
    ) -> None:
        self.cache = ResultCache(cache_bytes)
        self.ingest_latency = LatencyHistogram()
        self.query_latency = LatencyHistogram()
        self.admission = AdmissionQueue(admission_limit)
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
            help="Admitted queries currently executing",
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
        digest token (name + options), so runs share a digest exactly when
        they would compute identical numbers — and never across backends.
        ``spec`` holds the ``POST /runs`` fields the run's WAL ``register``
        record carries.
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
            run = _Run(run_id, estimator, digest, record, rebuild)
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
        estimator accepts the record, and a refused epoch
        (:class:`~repro.core.streaming.NonFiniteRow`, named by run and
        epoch) or a failed one puts the work counters back, so it changes
        nothing.  Behind a WAL the epoch's row, counter increments and
        chain link are durable on return, and the run's answer is then
        published; ``sync=False`` leaves the fsync and the publish to the
        caller's commit (:meth:`ingest_log`).  A WAL-restored run builds
        its estimator first.
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
            try:
                row = run.estimator.ingest(record, memo_key=memo_key)
            except Exception as exc:
                run.estimator.rewind_counters(counted)
                if isinstance(exc, NonFiniteRow):
                    raise NonFiniteRow(f"run {run_id!r}: {exc}") from None
                raise
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
            if sync:
                run.publish()
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
        :class:`RecoveryError`; a non-finite row raises
        :class:`~repro.core.streaming.NonFiniteRow`.  Behind a WAL the
        record is re-logged as it is, so a standby's own log is a valid
        replication source.  The run's answer is published on return.
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
            run.publish()
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
        The run's answer is published after that commit, so readers see
        the batch's epochs only once they are durable.
        """
        self._ensure_open()
        run = self._run(run_id)
        with self.obs.tracer.span("serve.ingest_log", run_id=run_id), run.lock:
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
                run.publish()

    def publisher(self, run_id: str, **kwargs) -> "ContributionPublisher":
        """A live-publishing hook for :meth:`repro.runtime.FederatedRuntime.run_hfl`.

        Keyword arguments parameterise the publisher's retry policy
        (``max_retries``, ``base_delay_s``, ``max_delay_s``, ``seed``,
        ``sleep``).
        """
        return ContributionPublisher(self, run_id, **kwargs)

    # -------------------------------------------------------------- queries

    def _read(self, run_id: str) -> tuple[_Run, _Answer]:
        """The run and its published answer; no lock is taken."""
        self._ensure_open()
        run = self._run(run_id)
        answer = run.answer
        if answer is None:
            raise ValueError(f"run {run_id!r} has no epochs ingested yet")
        return run, answer

    def report(self, run_id: str) -> ContributionReport:
        """The full :class:`ContributionReport` (under the run lock)."""
        self._ensure_open()
        run = self._run(run_id)
        started = time.perf_counter()
        with run.lock:
            if run.estimator.n_epochs == 0:
                raise ValueError(f"run {run_id!r} has no epochs ingested yet")
            report = run.estimator.report()
        self.query_latency.record(time.perf_counter() - started)
        return report

    def contributions(self, run_id: str) -> dict:
        """Totals (and per-epoch shape metadata) as a JSON-ready dict."""
        started = time.perf_counter()
        run, answer = self._read(run_id)
        payload = {
            "run_id": run.run_id,
            "estimator": run.record["estimator"],
            "method": answer.method,
            "epochs": answer.epochs,
            "participant_ids": list(answer.participant_ids),
            "totals": answer.reduced()[0].tolist(),
        }
        self.query_latency.record(time.perf_counter() - started)
        return payload

    def leaderboard(self, run_id: str, *, top: int | None = None) -> dict:
        """Ranked (participant, contribution) rows, best first."""
        started = time.perf_counter()
        run, answer = self._read(run_id)
        totals, order = answer.reduced()
        if top is not None:
            order = order[:top]
        ids = answer.participant_ids
        payload = {
            "run_id": run.run_id,
            "estimator": run.record["estimator"],
            "epochs": answer.epochs,
            "leaderboard": [
                {"rank": rank, "participant": ids[i], "contribution": float(totals[i])}
                for rank, i in enumerate(order, start=1)
            ],
        }
        self.query_latency.record(time.perf_counter() - started)
        return payload

    def weights(self, run_id: str, *, scheme: str = "rectified") -> dict:
        """The Eq. 17–18 reweight vector after the latest ingested epoch."""
        started = time.perf_counter()
        run, answer = self._read(run_id)
        payload = {
            "run_id": run.run_id,
            "estimator": run.record["estimator"],
            "epochs": answer.epochs,
            "scheme": scheme,
            "participant_ids": list(answer.participant_ids),
            "weights": reweight(answer.latest, scheme).tolist(),
        }
        self.query_latency.record(time.perf_counter() - started)
        return payload

    def query(self, method: str, /, *args, **kwargs):
        """The HTTP read path: admission at the door, then a snapshot read.

        A full admission queue sheds immediately with
        :class:`~repro.serve.resilience.ServiceOverloaded` (HTTP 429)
        whose ``retry_after_s`` comes from the query-latency p95 and the
        current depth.  An admitted read runs on the caller's thread and
        takes no run lock, so it never waits behind an ingest.
        """
        self._ensure_open()
        if method not in _READERS:
            raise ValueError(f"method must be one of {sorted(_READERS)}, got {method!r}")
        read = getattr(self, method)
        if self._trace_off:
            # Warm path stays span-free: one attribute read is the entire
            # cost of disabled tracing (the bench_obs.py contract).
            return self._admitted(read, args, kwargs, None)
        tracer = self.obs.tracer
        with tracer.span("serve.query", method=method, run_id=args[0] if args else None):
            return self._admitted(read, args, kwargs, tracer)

    def _admitted(self, read, args: tuple, kwargs: dict, tracer):
        """Admit one read (or shed it), run it, release the slot."""
        if tracer is None:
            admitted = self.admission.try_acquire()
        else:
            with tracer.span("serve.admission") as admission_span:
                admitted = self.admission.try_acquire()
                admission_span.set_attribute("admitted", admitted)
        if not admitted:
            raise ServiceOverloaded(
                self.admission.depth.value,
                self.admission.limit,
                self._retry_after_s(),
            )
        self.admission.enter()
        try:
            if tracer is None:
                return read(*args, **kwargs)
            with tracer.span("serve.snapshot"):
                return read(*args, **kwargs)
        finally:
            self.admission.exit()
            self.admission.release()

    def _retry_after_s(self) -> float:
        return retry_after_seconds(
            self.query_latency.percentile(0.95), self.admission.depth.value
        )

    # ------------------------------------------------------------ metrics

    def health(self) -> dict:
        """The ``/healthz`` payload: ``ok`` or ``closed``, and the run count."""
        if self._closed:
            return {"status": "closed", "runs": 0}
        return {"status": "ok", "runs": len(self._runs)}

    def stats(self) -> dict:
        """Everything ``/metricz`` serves: cache, latency, load."""
        return {
            "uptime_seconds": time.perf_counter() - self._started_at,
            "runs": len(self._runs),
            "closed": self._closed,
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
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
            "epochs": run.epochs,
            "enabled": self.obs.profiles.enabled,
            "phases": self.obs.profiles.report(run_id),
        }

    def close(self) -> None:
        """Shut down: idempotent, and everything after it fails fast.

        Requests arriving after the flag flips get :class:`ServiceClosed`
        (HTTP 503), and a publisher that outlives the service
        dead-letters immediately instead of retrying into the void.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
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
    hits a permanent error — a closed service, or an epoch refused as
    :class:`~repro.core.streaming.NonFiniteRow`) becomes a *dead letter*:
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
            except (ServiceClosed, NonFiniteRow) as exc:
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
