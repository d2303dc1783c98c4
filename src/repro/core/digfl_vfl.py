"""DIG-FL contribution estimation for vertical FL (Sec. IV, Eq. 26–27).

The VFL estimator reads the vertical training log — full-model training and
validation gradients per epoch, block-partitioned across parties — and
computes per-epoch contributions.

**First-order (Eq. 27, the deployed form):**

    φ̂_{t,i} = ⟨∇loss^v(θ_{t-1}), (E − diag(v_i))·G_t⟩
             = α_t · ⟨∇loss^v(θ_{t-1}), ∇loss(θ_{t-1})⟩  restricted to block i

Party ``i`` owns both factors of its block, so it can compute its own φ̂
locally — the reason the paper's VFL algorithm adds no privacy exposure.

**With the second-order correction (Eq. 26, evaluated for Table II):**

    ΔG_t^{-z} = −(E − diag(v_z))·G_t − α_t·diag(v_z)·H_{θ_{t-1}}·(Σ_{j<t} ΔG_j^{-z})
    φ_{t,z}   = −⟨∇loss^v(θ_{t-1}), ΔG_t^{-z}⟩

The Hessian term needs HVPs of the *training* loss; in a deployed VFL
system the model is distributed and encrypted so this is unavailable
(Sec. II-E) — here it is computed by the simulator to quantify the error
of dropping it.
"""

from __future__ import annotations

import numpy as np

from repro.core.contribution import ContributionReport, from_per_epoch
from repro.core.streaming import StreamingVFLEstimator, fold_log
from repro.data.dataset import Dataset
from repro.metrics.cost import CostLedger
from repro.vfl.log import VFLTrainingLog


def estimate_vfl_first_order(
    log: VFLTrainingLog,
    *,
    ledger: CostLedger | None = None,
) -> ContributionReport:
    """Eq. 27 contributions straight from the vertical training log.

    The whole-log fold of :class:`repro.core.streaming.StreamingVFLEstimator`,
    which owns the per-epoch term and its participation-mask rule.
    """
    estimator = StreamingVFLEstimator(log.feature_blocks, log.active_parties)
    return fold_log(estimator, log, ledger=ledger)


def estimate_vfl_second_order(
    log: VFLTrainingLog,
    model,
    train: Dataset,
    *,
    ledger: CostLedger | None = None,
) -> ContributionReport:
    """Eq. 26 contributions including the Hessian correction.

    ``model`` is the analytic VFL model (linear/logistic); ``train`` the
    full training dataset — experimenter-side knowledge used only to
    measure the second-term error (Fig. 2 / Table II).
    """
    if log.n_epochs == 0:
        raise ValueError("training log is empty")
    ledger = ledger or CostLedger()
    parties = log.active_parties
    n = len(parties)
    d = log.records[0].theta_before.size
    per_epoch = np.zeros((log.n_epochs, n))
    with ledger.computing():
        delta_g_sum = np.zeros((n, d))
        for t, record in enumerate(log.records):
            g_t = record.lr * record.train_gradient  # G_t includes α_t
            v_t = record.val_gradient
            for col, party in enumerate(parties):
                present = record.participated(party)
                block = log.feature_blocks[party]
                removed_mask = np.zeros(d, dtype=bool)
                removed_mask[block] = True
                # A party that missed this round applied nothing, so there
                # is nothing to remove — only the trajectory drift remains.
                first = (
                    np.where(removed_mask, g_t, 0.0)  # (E - diag(v_i))·G_t
                    if present
                    else np.zeros(d)
                )
                omega = np.zeros(d)
                if t > 0 and np.any(delta_g_sum[col]):
                    hv = model.hvp(
                        record.theta_before, train.X, train.y, delta_g_sum[col]
                    )
                    omega = np.where(removed_mask, 0.0, hv)  # diag(v_i)·H·(Σ ΔG)
                delta_g = -first - record.lr * omega
                per_epoch[t, col] = -float(v_t @ delta_g) if present else 0.0
                delta_g_sum[col] += delta_g
    return from_per_epoch(
        "digfl-vfl-second-order", parties, per_epoch, ledger=ledger
    )
