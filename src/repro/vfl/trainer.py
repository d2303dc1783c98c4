"""Plaintext VFL trainer (the simulation fast path).

Trains a vertically partitioned linear/logistic regression by full-batch
gradient descent.  The encrypted protocol in :mod:`repro.vfl.encrypted`
computes byte-for-byte the same numbers through Paillier; benchmarks use
this plaintext path because the exact-Shapley baselines retrain the model
``2^n`` times.

Coalitions follow the paper's removal semantics (Sec. II-C2): the model is
initialised to **zero**, and removing party ``z`` means its block is never
updated, so its local output stays identically zero and the remaining
parties train exactly the model they would have trained alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.metrics.cost import FLOAT64_BYTES, CostLedger
from repro.models.linear import make_vfl_model
from repro.nn.optim import LRSchedule
from repro.obs.trace import Tracer
from repro.rounds import SyncRounds
from repro.utils.validation import check_positive_int
from repro.vfl.log import VFLEpochRecord, VFLTrainingLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (robust -> io -> log)
    from repro.robust.checkpoint import CheckpointManager
    from repro.robust.screening import UpdateScreener


class VFLReweighter(Protocol):
    """Hook returning per-party weights for the tuned gradient of Eq. 31."""

    def weights(
        self,
        theta_before: np.ndarray,
        train_gradient: np.ndarray,
        val_gradient: np.ndarray,
        lr: float,
        epoch: int,
        active_parties: Sequence[int],
    ) -> np.ndarray: ...


@dataclass
class VFLResult:
    """Outcome of one vertical training run."""

    theta: np.ndarray
    log: VFLTrainingLog
    model: object  # LinearRegressionModel | LogisticRegressionModel


class VFLTrainer:
    """Vertical FL over one tabular dataset split into feature blocks."""

    def __init__(
        self,
        task: str,
        feature_blocks: Sequence[np.ndarray],
        epochs: int,
        lr_schedule: LRSchedule,
        *,
        n_classes: int = 0,
    ) -> None:
        """``feature_blocks`` index the flat coefficient vector.

        For ``multiclass`` pass ``n_classes`` and expand per-party feature
        blocks with :func:`repro.models.expand_feature_blocks` first.
        """
        self.model = make_vfl_model(task, n_classes=n_classes)
        self.feature_blocks = [np.asarray(b) for b in feature_blocks]
        self.epochs = check_positive_int(epochs, "epochs")
        self.lr_schedule = lr_schedule
        self._check_blocks()

    def _check_blocks(self) -> None:
        all_cols = np.concatenate(self.feature_blocks) if self.feature_blocks else np.array([])
        if len(np.unique(all_cols)) != len(all_cols):
            raise ValueError("feature blocks must be disjoint")
        for i, block in enumerate(self.feature_blocks):
            if len(block) == 0:
                raise ValueError(f"party {i} owns no features")

    @property
    def n_parties(self) -> int:
        return len(self.feature_blocks)

    def party_mask(self, parties: Sequence[int]) -> np.ndarray:
        """Boolean coefficient mask covering the given parties' blocks."""
        mask = np.zeros(int(max(b.max() for b in self.feature_blocks)) + 1, dtype=bool)
        for i in parties:
            mask[self.feature_blocks[i]] = True
        return mask

    def train(
        self,
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
        tracer: Tracer | None = None,
        rounds: SyncRounds | None = None,
    ) -> VFLResult:
        """Gradient-descent training restricted to a coalition of parties.

        This is the one VFL round loop.  A party's round work is picking up
        its gradient block; one whose block did not arrive (a runtime
        fault) is treated like a quarantined party below.  A frozen block
        leaves that party's local outputs unchanged, so the coordinator's
        single full-gradient evaluation stays exact under partial rounds.

        The recorded ``train_gradient``/``val_gradient`` are the *full*
        vectors with excluded parties' blocks zeroed — matching the
        ``diag(v_z)`` masking of Lemma 2.

        ``screener`` runs the :mod:`repro.robust` screening pass on each
        party's gradient block before the block update is applied (the
        non-finite and norm rules; the cosine rule is meaningless across
        disjoint feature blocks and is disabled).  A quarantined party's
        block stays frozen that round, its weight is zeroed and it is
        marked absent in the round's participation mask — exactly the
        dropout semantics Eq. 27 already handles.  ``checkpoint`` /
        ``resume`` persist the log per round and continue from the last
        complete round, as in :meth:`repro.hfl.trainer.HFLTrainer.train`.
        ``tracer`` emits one ``trainer.epoch`` span per round (defaults to
        the shared no-op tracer).  ``rounds`` is the round runner
        (:mod:`repro.rounds`), ``SyncRounds(tracer)`` by default; the
        runtime engine passes its scheduler-backed runner.
        """
        rounds = rounds if rounds is not None else SyncRounds(tracer)
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        if parties is None:
            parties = list(range(self.n_parties))
        else:
            parties = sorted(set(parties))
        bad = [i for i in parties if not 0 <= i < self.n_parties]
        if bad:
            raise ValueError(f"unknown party indices {bad}")
        if not parties:
            raise ValueError("coalition must contain at least one party")

        d = self.model.n_coefficients(train.X)
        blocks = self.feature_blocks
        all_blocks = np.concatenate(blocks)
        if len(all_blocks) != d or all_blocks.max() >= d:
            raise ValueError(
                f"party blocks cover {len(all_blocks)} coefficients but the "
                f"model has {d}; multiclass blocks must be expanded with "
                "expand_feature_blocks"
            )
        theta = np.zeros(d)  # θ_0 = 0, required by the removal argument
        active_mask = np.zeros(d, dtype=bool)
        for i in parties:
            active_mask[blocks[i]] = True

        log = VFLTrainingLog(feature_blocks=list(blocks), active_parties=list(parties))
        m = len(train)
        start_epoch = 1
        if resume:
            prior = checkpoint.resume()
            if prior is not None:
                if list(prior.active_parties) != list(parties):
                    raise ValueError(
                        f"checkpoint trained parties {prior.active_parties}, "
                        f"cannot resume with {parties}"
                    )
                log = prior
                theta = log.final_theta
                start_epoch = log.n_epochs + 1
                if screener is not None:
                    screener.warm_start(log)

        with rounds.running("vfl", len(parties), self.epochs):
            for epoch in range(start_epoch, self.epochs + 1):
                rounds.begin_round(epoch)
                lr = self.lr_schedule.lr_at(epoch)
                grad = self.model.gradient(theta, train.X, train.y)
                grad = np.where(active_mask, grad, 0.0)
                val_grad = self.model.gradient(theta, validation.X, validation.y)
                val_grad = np.where(active_mask, val_grad, 0.0)

                def work(_model, i: int, grad=grad) -> np.ndarray:
                    # In the deployed protocol the party computes its block
                    # from the coordinator's residual.
                    return grad[blocks[i]]

                local = rounds.local_work(epoch, parties, work)
                present = local.arrived
                if screener is not None:
                    verdict = rounds.screen(
                        screener,
                        epoch,
                        parties,
                        [grad[blocks[i]] for i in parties],
                        np.array(present, dtype=bool),
                        homogeneous=False,
                    ).tolist()
                    for i, was, now in zip(parties, present, verdict):
                        if was and not now:
                            # Freeze the quarantined block: zero its recorded
                            # gradient so reconstructed θ never multiplies a
                            # non-finite value by its zero weight.
                            grad[blocks[i]] = 0.0
                    present = verdict
                if ledger is not None:
                    # Each party that took part ships its local result u_i
                    # (m values); each arrival receives its gradient block.
                    for i, sent, got in zip(parties, local.dispatched, local.arrived):
                        if sent:
                            ledger.record_bytes("party->coordinator", m * FLOAT64_BYTES)
                        if got:
                            ledger.record_bytes(
                                "coordinator->party", len(blocks[i]) * FLOAT64_BYTES
                            )

                weights = np.ones(self.n_parties)
                if reweighter is not None:
                    weights = np.asarray(
                        reweighter.weights(theta, grad, val_grad, lr, epoch, parties),
                        dtype=np.float64,
                    )
                    if weights.shape != (self.n_parties,):
                        raise ValueError(
                            f"reweighter returned shape {weights.shape}, "
                            f"expected ({self.n_parties},)"
                        )

                participation = None
                if not all(present):
                    # A missing block applies nothing: zero its weight and
                    # mark the party absent, so the estimators give it zero
                    # contribution this round.
                    participation = np.zeros(self.n_parties, dtype=bool)
                    for i, ok in zip(parties, present):
                        if ok:
                            participation[i] = True
                        else:
                            weights[i] = 0.0

                train_loss = val_loss = float("nan")
                if track_losses:
                    train_loss = self.model.loss(theta, train.X, train.y)
                    val_loss = self.model.loss(theta, validation.X, validation.y)

                log.records.append(
                    VFLEpochRecord(
                        epoch=epoch,
                        lr=lr,
                        theta_before=theta.copy(),
                        train_gradient=grad,
                        val_gradient=val_grad,
                        weights=weights,
                        train_loss=train_loss,
                        val_loss=val_loss,
                        participation=participation,
                    )
                )

                update = np.zeros(d)
                for i, ok, block_grad in zip(parties, present, local.results):
                    if ok:
                        update[blocks[i]] = weights[i] * block_grad
                theta = theta - lr * update
                if checkpoint is not None:
                    checkpoint.save(log)
                rounds.end_round(log.records[-1], sum(present))

        return VFLResult(theta=theta, log=log, model=self.model)
