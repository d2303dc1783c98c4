"""VFL training-log records.

For vertical FL the "training log" is the sequence of full-model gradients
``∇loss(θ_{t-1})`` (block-partitioned across parties) plus the validation
gradients ``∇loss^v(θ_{t-1})`` the parties jointly compute (Algorithm 3,
line 4).  DIG-FL's VFL estimator (Eq. 27) needs nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VFLEpochRecord:
    """State of one VFL training round.

    ``participation`` is the per-round arrival mask over *all* parties
    written by :mod:`repro.runtime`: ``participation[party]`` is False when
    that party's block update missed the round (its weight was zeroed, its
    block stayed frozen).  ``None`` — the synchronous trainer's value —
    means every coalition party applied its update.
    """

    epoch: int  # 1-indexed
    lr: float
    theta_before: np.ndarray  # full coefficient vector θ_{t-1}
    train_gradient: np.ndarray  # ∇loss(θ_{t-1}), no learning rate applied
    val_gradient: np.ndarray  # ∇loss^v(θ_{t-1})
    weights: np.ndarray  # per-party aggregation weights applied
    train_loss: float = float("nan")
    val_loss: float = float("nan")
    participation: np.ndarray | None = None  # (n_parties,) bool; None = all

    def participated(self, party: int) -> bool:
        """Did ``party`` apply its block update this round?"""
        if self.participation is None:
            return True
        return bool(self.participation[party])

    def participation_mask(self) -> np.ndarray:
        """The arrival mask over all parties (all-True when ``None``)."""
        if self.participation is None:
            return np.ones(len(self.weights), dtype=bool)
        return np.asarray(self.participation, dtype=bool)


@dataclass
class VFLTrainingLog:
    """Full history for one vertical training run."""

    feature_blocks: list[np.ndarray]  # party -> coefficient indices
    active_parties: list[int]
    records: list[VFLEpochRecord] = field(default_factory=list)

    @property
    def n_parties(self) -> int:
        return len(self.feature_blocks)

    @property
    def participant_ids(self) -> list[int]:
        """The evaluated parties — the HFL log's name for ``active_parties``."""
        return self.active_parties

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    @property
    def final_theta(self) -> np.ndarray:
        if not self.records:
            raise ValueError("log has no records")
        last = self.records[-1]
        update = np.zeros_like(last.theta_before)
        for party, block in enumerate(self.feature_blocks):
            update[block] = last.weights[party] * last.train_gradient[block]
        return last.theta_before - last.lr * update

    def val_loss_curve(self) -> np.ndarray:
        return np.array([r.val_loss for r in self.records])

    def participation_matrix(self) -> np.ndarray:
        """(τ, n_parties) boolean matrix of who applied each round.

        Mirrors :meth:`repro.hfl.log.TrainingLog.participation_matrix`;
        holes come from runtime faults or :mod:`repro.robust` quarantine.
        """
        return np.stack([r.participation_mask() for r in self.records])
