"""FedSGD / FedAvg trainer for horizontal federated learning.

Implements the protocol of Sec. III-A: in epoch ``t`` every participant
computes a local update ``δ_{t,i} = θ_{t-1} - θ_{t-1,i}`` from the current
global model and its local dataset, the server aggregates
``G_t = Σ_i ω_{t,i} δ_{t,i}`` (uniform ``1/n`` for plain FedSGD) and applies
``θ_t = θ_{t-1} - G_t``.

By default a participant takes a single full-batch gradient step
(``δ_{t,i} = α_t ∇loss(i, θ_{t-1})`` — FedSGD, the algorithm the paper
evaluates).  Passing a :class:`LocalTrainingConfig` turns this into FedAvg
(McMahan et al.): several mini-batch SGD steps per round, after which the
*accumulated* local update is shipped.  DIG-FL is agnostic to the choice —
it consumes ``δ_{t,i}`` whatever produced it.

The trainer doubles as the retraining engine for the exact-Shapley and
TMC/GT baselines via the ``participants`` coalition argument, and hosts the
DIG-FL reweight mechanism via the ``reweighter`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from repro.autodiff.grad import grad
from repro.data.dataset import Dataset
from repro.hfl.log import EpochRecord, TrainingLog
from repro.metrics.cost import FLOAT64_BYTES, CostLedger
from repro.nn.models import Classifier
from repro.nn.optim import LRSchedule
from repro.obs.trace import Tracer
from repro.rounds import SyncRounds
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (robust -> io -> log)
    from repro.robust.aggregators import Aggregator
    from repro.robust.checkpoint import CheckpointManager
    from repro.robust.screening import UpdateScreener


class Reweighter(Protocol):
    """Server-side hook choosing per-epoch aggregation weights.

    Receives the state the DIG-FL reweight mechanism needs (Sec. II-F) and
    returns one non-negative weight per active participant, summing to 1.
    """

    def weights(
        self,
        model: Classifier,
        theta_before: np.ndarray,
        local_updates: np.ndarray,
        lr: float,
        epoch: int,
    ) -> np.ndarray: ...


def resolve_coalition(
    locals_: Sequence[Dataset], participants: Sequence[int] | None
) -> list[int]:
    """Validate a coalition against the federation (default: everyone)."""
    if participants is None:
        participants = list(range(len(locals_)))
    else:
        participants = list(participants)
    if not participants:
        raise ValueError("coalition must contain at least one participant")
    bad = [i for i in participants if not 0 <= i < len(locals_)]
    if bad:
        raise ValueError(f"unknown participant indices {bad}")
    return participants


def masked_weights(mask: np.ndarray, base_weights: np.ndarray) -> np.ndarray:
    """Zero absent/quarantined parties and renormalise the survivors.

    An all-zero surviving mass returns zero weights (the round applies no
    update).
    """
    weights = np.where(mask, base_weights, 0.0)
    total = weights.sum()
    if total > 0.0:
        weights = weights / total
    return weights


def flat_gradient(model: Classifier, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the model's loss on (X, y), flattened to one vector."""
    loss = model.loss(X, y)
    grads = grad(loss, model.parameters(), allow_unused=True)
    return np.concatenate([g.data.ravel() for g in grads])


def validation_gradient(
    model: Classifier, theta: np.ndarray, validation: Dataset
) -> np.ndarray:
    """``∇loss^v(θ)`` evaluated by temporarily loading ``θ`` into the model."""
    saved = model.get_flat()
    model.set_flat(theta)
    try:
        return flat_gradient(model, validation.X, validation.y)
    finally:
        model.set_flat(saved)


@dataclass(frozen=True)
class LocalTrainingConfig:
    """FedAvg-style local training: several mini-batch steps per round.

    ``local_steps=1`` with ``batch_size=None`` reproduces FedSGD exactly.
    Mini-batch sampling is seeded per (epoch, participant), so runs are
    reproducible and coalitions see identical local draws.
    """

    local_steps: int = 1
    batch_size: int | None = None
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.local_steps, "local_steps")
        if self.batch_size is not None:
            check_positive_int(self.batch_size, "batch_size")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class HFLResult:
    """Outcome of one federated training run."""

    model: Classifier
    log: TrainingLog

    @property
    def final_theta(self) -> np.ndarray:
        return self.model.get_flat()


class HFLTrainer:
    """FedSGD (default) or FedAvg over a fixed federation of local datasets."""

    def __init__(
        self,
        model_factory: Callable[[], Classifier],
        epochs: int,
        lr_schedule: LRSchedule,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        self.model_factory = model_factory
        self.epochs = check_positive_int(epochs, "epochs")
        self.lr_schedule = lr_schedule
        self.local_config = local_config

    def local_update(
        self,
        model: Classifier,
        theta_before: np.ndarray,
        data: Dataset,
        lr: float,
        epoch: int,
        participant: int,
    ) -> np.ndarray:
        """One participant's update ``δ = θ_{t-1} − θ_{t-1,i}`` for this round.

        Pure in its inputs: the result depends only on ``theta_before`` (the
        model must already hold it), the local data and the (epoch,
        participant)-seeded mini-batch draw — which is what lets
        :mod:`repro.runtime` evaluate participants on worker-local model
        replicas and still match this trainer bit for bit.
        """
        config = self.local_config
        if config is None or (config.local_steps == 1 and config.batch_size is None):
            # FedSGD fast path: one full-batch gradient step.
            return lr * flat_gradient(model, data.X, data.y)
        rng = np.random.default_rng(
            derive_seed(config.seed, epoch, participant)
        )
        theta = theta_before.copy()
        velocity = np.zeros_like(theta)
        for _ in range(config.local_steps):
            if config.batch_size is not None and config.batch_size < len(data):
                idx = rng.choice(len(data), size=config.batch_size, replace=False)
                X, y = data.X[idx], data.y[idx]
            else:
                X, y = data.X, data.y
            model.set_flat(theta)
            g = flat_gradient(model, X, y)
            if config.momentum:
                velocity = config.momentum * velocity + g
                g = velocity
            theta = theta - lr * g
        model.set_flat(theta_before)  # restore the global model
        return theta_before - theta

    def train(
        self,
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
        tracer: Tracer | None = None,
        rounds: SyncRounds | None = None,
    ) -> HFLResult:
        """Run FedSGD and return the final model plus the training log.

        This is the one HFL round loop: it computes every float of the log.
        A party whose result did not arrive has a zero update row,
        screening clears more mask bits, the weights are renormalised over
        the survivors, and the round's mask is logged whenever someone is
        missing.

        Parameters
        ----------
        locals_:
            Local datasets, one per participant in the full federation.
        validation:
            Server-held validation set; required when ``track_validation``
            or a reweighter needs it.
        participants:
            Coalition to train with (defaults to everyone).  Used by the
            leave-one-out / exact Shapley baselines.
        reweighter:
            Optional DIG-FL reweight mechanism; defaults to uniform 1/n.
        init_theta:
            Starting global model; defaults to the factory's fresh
            initialisation.  Passing the same vector across runs makes
            coalition utilities comparable (same ``θ_0`` in Eq. 2).
        ledger:
            Optional cost ledger; model up/downloads are recorded on it.
        track_validation:
            Record validation loss/accuracy per epoch (used for Fig. 7
            convergence curves).
        weight_by_samples:
            Aggregate with FedAvg's data-size weights ``|D_i| / Σ|D_j|``
            instead of the paper's uniform ``1/n``.  Ignored when a
            reweighter is supplied (it owns the weights).  The weights are
            recorded in the log, and the DIG-FL estimators read them from
            there, so contribution accounting stays consistent.
        aggregator:
            Server-side aggregation rule from :mod:`repro.robust` (default
            and ``WeightedMean``: the seed ``weights @ updates``, bit for
            bit).  Non-linear rules store their applied ``G_t`` on the
            :class:`~repro.hfl.log.EpochRecord`.
        screener:
            Pre-aggregation :class:`~repro.robust.screening.UpdateScreener`;
            quarantined updates are zeroed, weight-renormalised away and
            marked absent in the round's participation mask (so DIG-FL
            attributes them zero for that round), with each incident on
            the screener's quarantine ledger.
        checkpoint:
            :class:`~repro.robust.checkpoint.CheckpointManager`; when set,
            the training log is atomically persisted after every round.
        resume:
            Continue from ``checkpoint``'s last complete round instead of
            round 1 (fresh start when no checkpoint file exists yet).
            Deterministic local updates make the resumed run bit-for-bit
            identical to an uninterrupted one.
        tracer:
            Optional :class:`repro.obs.trace.Tracer`; one
            ``trainer.epoch`` span is emitted per round.  The default is
            the shared no-op tracer, which costs one predicate per epoch.
        rounds:
            The round runner (:mod:`repro.rounds`) that runs each round's
            local work; defaults to ``SyncRounds(tracer)``.  The runtime
            engine passes its scheduler-backed runner.
        """
        rounds = rounds if rounds is not None else SyncRounds(tracer)
        participants = resolve_coalition(locals_, participants)
        if (track_validation or reweighter is not None) and validation is None:
            raise ValueError("validation dataset required for tracking / reweighting")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")

        model = self.model_factory()
        if init_theta is not None:
            model.set_flat(init_theta)
        p = model.num_parameters()
        k = len(participants)
        log = TrainingLog(participant_ids=participants)
        start_epoch = 1
        if resume:
            prior = checkpoint.resume()
            if prior is not None:
                if list(prior.participant_ids) != list(participants):
                    raise ValueError(
                        f"checkpoint trained participants {prior.participant_ids}, "
                        f"cannot resume with {participants}"
                    )
                log = prior
                model.set_flat(log.final_theta)
                start_epoch = log.n_epochs + 1
                if screener is not None:
                    screener.warm_start(log)

        with rounds.running("hfl", k, self.epochs, self.model_factory):
            for epoch in range(start_epoch, self.epochs + 1):
                rounds.begin_round(epoch)
                lr = self.lr_schedule.lr_at(epoch)
                theta_before = model.get_flat()

                def work(worker: Classifier, i: int) -> np.ndarray:
                    return self.local_update(
                        worker, theta_before, locals_[i], lr, epoch, i
                    )

                local = rounds.local_work(epoch, participants, work, model)
                mask = np.array(local.arrived, dtype=bool)
                local_updates = np.zeros((k, p), dtype=np.float64)
                for row, update in enumerate(local.results):
                    if local.arrived[row]:
                        local_updates[row] = update
                if ledger is not None:
                    # Every dispatched party downloads θ; every arrival
                    # uploads its local model.
                    size = p * FLOAT64_BYTES
                    ledger.record_bytes(
                        "server->participant", sum(local.dispatched) * size
                    )
                    ledger.record_bytes(
                        "participant->server", sum(local.arrived) * size
                    )

                if screener is not None:
                    mask = rounds.screen(
                        screener, epoch, participants, local_updates, mask
                    )
                    local_updates[~mask] = 0.0

                if reweighter is not None:
                    weights = np.asarray(
                        reweighter.weights(model, theta_before, local_updates, lr, epoch),
                        dtype=np.float64,
                    )
                    if weights.shape != (k,):
                        raise ValueError(
                            f"reweighter returned shape {weights.shape}, expected ({k},)"
                        )
                    if not mask.all():
                        weights = masked_weights(mask, weights)
                elif weight_by_samples:
                    sizes = np.array([len(locals_[i]) for i in participants], dtype=float)
                    weights = masked_weights(mask, sizes)
                else:
                    arrived = int(mask.sum())
                    weights = mask / arrived if arrived else np.zeros(k, dtype=np.float64)

                applied = None
                if aggregator is None:
                    global_update = weights @ local_updates
                else:
                    global_update = aggregator.aggregate(local_updates, weights, mask)
                    if not aggregator.linear:
                        applied = global_update
                model.set_flat(theta_before - global_update)

                val_loss = val_acc = float("nan")
                if track_validation:
                    val_loss = model.loss(validation.X, validation.y).item()
                    val_acc = model.accuracy(validation.X, validation.y)

                log.records.append(
                    EpochRecord(
                        epoch=epoch,
                        lr=lr,
                        theta_before=theta_before,
                        local_updates=local_updates,
                        weights=weights,
                        val_loss=val_loss,
                        val_accuracy=val_acc,
                        participation=None if mask.all() else mask,
                        applied_update=applied,
                    )
                )
                if checkpoint is not None:
                    checkpoint.save(log)
                rounds.end_round(log.records[-1], int(mask.sum()))
        return HFLResult(model=model, log=log)
