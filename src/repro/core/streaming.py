"""Incremental DIG-FL estimators: one epoch in, contributions out.

The paper's per-epoch decomposition (Lemma 3, Eq. 13–15) makes the
whole-process contribution a plain sum of per-epoch terms, so evaluation
does not have to be a batch job: ingesting epoch ``τ+1`` costs exactly one
validation gradient and ``n`` dot products (Algorithm 2's per-epoch step),
never a re-read of epochs ``1..τ``.

These classes are the *only* implementation of the first-order DIG-FL
terms: the batch estimators
:func:`repro.core.digfl_hfl.estimate_hfl_resource_saving` and
:func:`repro.core.digfl_vfl.estimate_vfl_first_order` fold a whole log
through :meth:`_StreamingBase.ingest_log`, so streaming and batch answers
agree bit for bit by construction.  :meth:`_StreamingBase.report` builds
totals via :func:`repro.core.contribution.from_per_epoch` on the stacked
matrix, so a mid-training query equals a batch estimate of the prefix.

:class:`_StreamingBase` is also the base of the other streaming backends
in :mod:`repro.estimators` (GTG-Shapley, DPVS): anything that produces one
per-epoch row per record gets totals, leaderboards, reweight vectors and
whole-log ingestion from it.

Running state is O(τ·n): the per-epoch score rows (``n`` floats each, no
gradients), kept in one contiguous ``(τ, n)`` buffer that doubles when
full, plus one transient ``p``-vector per ingest for the validation
gradient.  A row holding NaN or ±inf is refused (:class:`NonFiniteRow`)
before it is kept.  Thread safety is the caller's job —
:class:`repro.serve.service.EvaluationService` holds a per-run lock around
every ingest.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.contribution import ContributionReport, from_per_epoch
from repro.core.reweight import rectified_weights, softmax_weights
from repro.core.valgrad import GradientMemo, epoch_validation_gradient
from repro.data.dataset import Dataset
from repro.hfl.log import EpochRecord
from repro.metrics.cost import CostLedger
from repro.nn.models import Classifier
from repro.obs.profile import NULL_PROFILER
from repro.vfl.log import VFLEpochRecord


class NonFiniteRow(ValueError):
    """An epoch's contribution row holds NaN or ±inf; it is not kept."""


class _StreamingBase:
    """Shared bookkeeping: per-epoch rows, totals, whole-log ingestion.

    Subclasses set ``method`` and implement ``ingest(record, *,
    memo_key=None)``, which computes one per-epoch row and returns
    ``self._push(row)``.
    """

    method: str
    #: Work counters ``report()`` shows that the rows do not determine.
    #: The WAL logs each epoch's increments, so a replay restores them.
    counters: tuple[str, ...] = ()

    def __init__(self, participant_ids: Sequence[int]) -> None:
        self.participant_ids = list(participant_ids)
        self.ledger = CostLedger()
        # Rows 0..τ-1 of one C-contiguous buffer; a prefix of it is laid
        # out exactly as ``np.vstack`` of the rows, so sums match bit for bit.
        self._buf = np.empty((4, len(self.participant_ids)))
        self._t = 0
        # Phase timers around the ingest hot path (valgrad, dot products).
        # The service swaps in the run's profiler at registration; the
        # default records nothing.
        self.profiler = NULL_PROFILER

    @property
    def n_participants(self) -> int:
        return len(self.participant_ids)

    @property
    def n_epochs(self) -> int:
        return self._t

    def rows(self) -> np.ndarray:
        """A view of the ingested rows, not a copy.

        Rows are only ever appended, so the view's contents never change;
        callers must not write to it.
        """
        return self._buf[: self._t]

    def ingest_log(self, log, *, start: int = 0, memo_key: str | None = None) -> int:
        """Ingest ``log.records[start:]`` in order; returns epochs consumed.

        ``memo_key`` is handed to every ``ingest`` (the validation-gradient
        memo key of :mod:`repro.core.valgrad`; estimators that never touch
        validation gradients ignore it).
        """
        if list(log.participant_ids) != self.participant_ids:
            raise ValueError(
                f"log participants {log.participant_ids} do not match "
                f"{self.participant_ids}"
            )
        for record in log.records[start:]:
            self.ingest(record, memo_key=memo_key)
        return log.n_epochs - start

    def per_epoch(self) -> np.ndarray:
        """A copy of the (τ, n) per-epoch contribution matrix ingested so far."""
        return self.rows().copy()

    def totals(self) -> np.ndarray:
        """Whole-process contributions (Eq. 15) over the ingested prefix.

        Summed column-wise over a view of the row buffer — the identical
        reduction :func:`from_per_epoch` performs on the same layout — so
        totals never drift from what :meth:`report` says about the prefix.
        """
        return self.rows().sum(axis=0)

    def latest_row(self) -> np.ndarray:
        """A copy of the latest ingested epoch's row."""
        if not self._t:
            raise ValueError("no epochs ingested yet")
        return self._buf[self._t - 1].copy()

    def report(self) -> ContributionReport:
        """The whole-process :class:`ContributionReport` of the prefix."""
        if not self._t:
            raise ValueError("no epochs ingested yet")
        return from_per_epoch(
            self.method, self.participant_ids, self.per_epoch(), ledger=self.ledger
        )

    def leaderboard(self, top: int | None = None) -> list[tuple[int, float]]:
        """(participant, total) pairs, best first; mid-training queryable."""
        totals = self.totals()
        order = np.argsort(totals)[::-1]
        if top is not None:
            order = order[:top]
        return [(self.participant_ids[i], float(totals[i])) for i in order]

    def current_weights(self, scheme: str = "rectified", temperature: float = 1.0) -> np.ndarray:
        """Eq. 17–18 aggregation weights from the latest ingested epoch.

        Exactly what the reweight mechanism would apply next round: the
        latest per-epoch contributions pushed through the rectified
        projection (or the softmax ablation).
        """
        return reweight(self.latest_row(), scheme, temperature)

    def weight_history(self) -> np.ndarray:
        """(τ, n) matrix of the Eq. 17 weights after each ingested epoch."""
        if not self._t:
            return np.empty((0, self.n_participants))
        return np.vstack([rectified_weights(row) for row in self.rows()])

    def counter_values(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.counters}

    def restore(self, row: np.ndarray, increments: dict) -> None:
        """Push a logged epoch's row and counter increments: no estimator work."""
        if np.shape(row) != (self.n_participants,):
            raise ValueError(
                f"row of shape {np.shape(row)} for {self.n_participants} parties"
            )
        steps = {name: int(increments[name]) for name in self.counters}
        self._push(row)
        for name, step in steps.items():
            setattr(self, name, getattr(self, name) + step)

    def rewind_counters(self, values: dict[str, int]) -> None:
        """Put back counter values read before a refused or failed ingest."""
        for name, value in values.items():
            setattr(self, name, value)

    def adopt(self, other: "_StreamingBase") -> None:
        """Take over ``other``'s epochs: its rows, counters and profiler."""
        self.profiler = other.profiler
        for row in other.rows():
            self._push(row)
        for name in self.counters:
            setattr(self, name, getattr(other, name))

    def _push(self, row: np.ndarray) -> np.ndarray:
        if not np.isfinite(row).all():
            raise NonFiniteRow(
                f"epoch {self._t + 1} holds a non-finite contribution "
                f"(NaN or ±inf) in row {np.asarray(row).tolist()}; refused"
            )
        if self._t == len(self._buf):
            grown = np.empty((2 * len(self._buf), self._buf.shape[1]))
            grown[: self._t] = self._buf
            self._buf = grown
        self._buf[self._t] = row
        self._t += 1
        return row


def reweight(row: np.ndarray, scheme: str, temperature: float = 1.0) -> np.ndarray:
    """Eq. 17–18 weights from one epoch's row: rectified or softmax."""
    if scheme == "rectified":
        return rectified_weights(row)
    if scheme == "softmax":
        return softmax_weights(row, temperature)
    raise ValueError(f"scheme must be 'rectified' or 'softmax', got {scheme!r}")


def fold_log(
    estimator: _StreamingBase,
    log,
    *,
    ledger: CostLedger | None = None,
    profiler=None,
    memo_key: str | None = None,
) -> ContributionReport:
    """The batch estimate: stream the whole of ``log`` and report.

    Every whole-log estimate in the repo is this fold, so a batch answer
    and a streamed one are the same computation, not two that agree.
    ``ledger`` / ``profiler`` replace the estimator's own when given.
    """
    if log.n_epochs == 0:
        raise ValueError("training log is empty")
    if ledger is not None:
        estimator.ledger = ledger
    if profiler is not None:
        estimator.profiler = profiler
    estimator.ingest_log(log, memo_key=memo_key)
    return estimator.report()


def check_update_rows(record: EpochRecord, n: int) -> None:
    """The shape guard every HFL streaming ingest performs."""
    if record.local_updates.shape[0] != n:
        raise ValueError(
            f"record carries {record.local_updates.shape[0]} update rows, "
            f"expected {n}"
        )


class StreamingHFLEstimator(_StreamingBase):
    """Algorithm 2 (Eq. 16), one :class:`EpochRecord` at a time.

    ``φ̂_{t,i} = (1/n) ⟨∇loss^v(θ_{t-1}), δ_{t,i}⟩``: one validation
    gradient and ``n`` dot products per epoch, zero extra communication.

    ``use_logged_weights`` replaces the paper's uniform ``1/n`` with the
    aggregation weights the server actually applied (recorded per epoch in
    the log) — the consistent choice when training used FedAvg data-size
    weights or the reweight mechanism, since removing participant ``i``
    then removes ``ω_{t,i}·δ_{t,i}`` from the aggregate.

    Records produced under faults or screening carry a participation mask.
    A participant absent from round ``t`` shipped no update, so its
    per-epoch contribution for that round is zero, and the uniform divisor
    becomes the number of updates the server actually aggregated.

    ``val_grad_memo`` plus a per-ingest ``memo_key`` plug into the
    content-addressed gradient memo of :mod:`repro.core.valgrad`.
    """

    method = "digfl-resource-saving"

    def __init__(
        self,
        participant_ids: Sequence[int],
        validation: Dataset,
        model_factory: Callable[[], Classifier],
        *,
        use_logged_weights: bool = False,
        val_grad_memo: GradientMemo | None = None,
    ) -> None:
        super().__init__(participant_ids)
        self.validation = validation
        self.model = model_factory()
        self.use_logged_weights = use_logged_weights
        self.val_grad_memo = val_grad_memo

    def ingest(self, record: EpochRecord, *, memo_key: str | None = None) -> np.ndarray:
        """Consume one epoch: one validation gradient, ``n`` dot products."""
        n = self.n_participants
        check_update_rows(record, n)
        with self.ledger.computing():
            with self.profiler.phase("estimator.valgrad"):
                val_grad = epoch_validation_gradient(
                    self.model,
                    record.theta_before,
                    self.validation,
                    memo=self.val_grad_memo,
                    key=memo_key,
                    epoch=self.n_epochs,
                )
            with self.profiler.phase("estimator.dot_products"):
                raw = record.local_updates @ val_grad
                if self.use_logged_weights:
                    # Absent participants were renormalised to weight 0, so
                    # the logged weights already zero their round share.
                    row = record.weights * raw
                elif record.participation is None:
                    row = raw / n
                else:
                    mask = record.participation
                    arrived = int(mask.sum())
                    if arrived == 0:
                        row = np.zeros(n)
                    else:
                        row = np.where(mask, raw, 0.0) / arrived
        return self._push(row)


class StreamingVFLEstimator(_StreamingBase):
    """Eq. 27, one :class:`VFLEpochRecord` at a time.

    Needs no validation set or model: the VFL log already carries both
    gradient factors of every per-epoch term.  A party whose block update
    missed round ``t`` applied nothing that round, so its per-epoch
    contribution is zero — the block term of Eq. 27 only exists for
    updates that entered ``G_t``.
    """

    method = "digfl-vfl"

    def __init__(
        self,
        feature_blocks: Sequence[np.ndarray],
        active_parties: Sequence[int],
    ) -> None:
        super().__init__(active_parties)
        self.feature_blocks = [np.asarray(b) for b in feature_blocks]

    def ingest(self, record: VFLEpochRecord, *, memo_key: str | None = None) -> np.ndarray:
        """Consume one epoch: one scalar product per participating party."""
        del memo_key  # Eq. 27 reads the record only; nothing to memoise
        with self.ledger.computing(), self.profiler.phase("estimator.dot_products"):
            row = np.zeros(self.n_participants)
            for col, party in enumerate(self.participant_ids):
                if not record.participated(party):
                    continue  # the row entry stays 0 for the missed round
                block = self.feature_blocks[party]
                row[col] = record.lr * float(
                    record.val_gradient[block] @ record.train_gradient[block]
                )
        return self._push(row)
