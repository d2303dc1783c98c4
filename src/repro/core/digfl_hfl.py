"""DIG-FL contribution estimation for horizontal FL (Algorithms 1 and 2).

Both estimators consume the FedSGD :class:`~repro.hfl.log.TrainingLog` and
the server's validation set — no retraining, no access to local data.

**Algorithm 2 — resource-saving** (Eq. 16):

    φ̂_{t,i} = (1/n) ⟨∇loss^v(θ_{t-1}), δ_{t,i}⟩

The server already holds every δ, so the only extra work is one validation
gradient per epoch and ``n`` dot products: O(τ·n·p) server-side, zero extra
communication (level-2 privacy).

**Algorithm 1 — interactive** adds the second-order correction.  Expanding
the removal of participant ``z`` to first order around the joint training
trajectory (the paper's Eq. 6 with ε = −1/n) gives the recursion

    ΔG_t^{-z} = −(1/n)·δ_{t,z} − α_t · H_{θ_{t-1}} ( Σ_{j<t} ΔG_j^{-z} )
    φ_{t,z}   = −⟨∇loss^v(θ_{t-1}), ΔG_t^{-z}⟩

(The paper's Lemma 1 / Eq. 19 / Algorithm 1 disagree with each other on the
sign of the Hessian term — a typo chain; the form above is the one all
three reduce to when re-derived from Eq. 6, and it is what we implement.)

Each participant evaluates the Hessian-vector product ``Ĥ_i·v`` on its own
local data (cheap HVPs, never a p×p matrix) as an unbiased estimator of the
global ``H·v``, and uploads the p-vector — level-1 privacy, O(τ·n·p) compute.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.grad import hvp
from repro.autodiff.tensor import Tensor
from repro.core.contribution import ContributionReport, from_per_epoch
from repro.core.streaming import StreamingHFLEstimator, fold_log
from repro.core.valgrad import GradientMemo, validation_gradients
from repro.data.dataset import Dataset
from repro.hfl.log import TrainingLog
from repro.metrics.cost import FLOAT64_BYTES, CostLedger
from repro.nn.models import Classifier
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.utils.packing import unflatten_params


def estimate_hfl_resource_saving(
    log: TrainingLog,
    validation: Dataset,
    model_factory: Callable[[], Classifier],
    *,
    use_logged_weights: bool = False,
    ledger: CostLedger | None = None,
    val_grad_memo: GradientMemo | None = None,
    val_grad_key: str | None = None,
    profiler: Profiler | None = None,
) -> ContributionReport:
    """Algorithm 2: first-order per-epoch contributions from the log only.

    The whole-log fold of :class:`repro.core.streaming.StreamingHFLEstimator`,
    which owns the per-epoch term, the ``use_logged_weights`` choice and
    the participation-mask rule.

    ``val_grad_memo`` / ``val_grad_key`` thread an optional gradient memo
    through :func:`repro.core.valgrad.epoch_validation_gradient`, so a
    caching layer (:mod:`repro.serve`) computes each epoch's validation
    gradient once per (log, epoch) no matter how many estimators consume
    it.  ``profiler`` attributes the two hot phases (validation gradients,
    the per-epoch dot products) to :mod:`repro.obs` phase timers.
    """
    estimator = StreamingHFLEstimator(
        log.participant_ids,
        validation,
        model_factory,
        use_logged_weights=use_logged_weights,
        val_grad_memo=val_grad_memo,
    )
    return fold_log(
        estimator, log, ledger=ledger, profiler=profiler, memo_key=val_grad_key
    )


def estimate_hfl_interactive(
    log: TrainingLog,
    validation: Dataset,
    model_factory: Callable[[], Classifier],
    locals_: Sequence[Dataset],
    *,
    ledger: CostLedger | None = None,
    profiler: Profiler | None = None,
) -> ContributionReport:
    """Algorithm 1: adds the Hessian correction via participant-local HVPs.

    ``locals_`` indexes the full federation; only the participants present
    in the log are queried (they compute ``Ĥ_{θ_{t-1}}·Σ_{j<t}ΔG_j^{-i}`` on
    their own data, exactly the quantity they upload in Algorithm 1).

    Under partial participation (runtime logs), a participant absent from
    round ``t`` contributes no direct ``−δ_{t,i}/m_t`` term and earns zero
    per-epoch contribution that round; the Hessian term still propagates
    its earlier rounds' influence along the trajectory.
    """
    if log.n_epochs == 0:
        raise ValueError("training log is empty")
    ledger = ledger or CostLedger()
    profiler = profiler if profiler is not None else NULL_PROFILER
    model = model_factory()
    spec = model.param_spec()
    n = log.n_participants
    p = log.records[0].theta_before.size

    def local_hvp(participant: int, theta: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Participant-side HVP of its local loss at θ against ``vector``."""
        with profiler.phase("estimator.hvp"):
            data = locals_[participant]
            model.set_flat(theta)
            params = model.parameters()
            v_parts = unflatten_params(vector, spec)

            def loss_fn(ps):
                del ps  # hvp re-reads the live parameters
                return model.loss(data.X, data.y)

            hv = hvp(loss_fn, params, [Tensor(vp) for vp in v_parts])
            return np.concatenate([h.data.ravel() for h in hv])

    with ledger.computing():
        with profiler.phase("estimator.valgrad"):
            val_grads = validation_gradients(log, validation, model)
        per_epoch = np.empty((log.n_epochs, n))
        # running Σ_j ΔG_j^{-i} per participant
        delta_g_sum = np.zeros((n, p))
        for t, record in enumerate(log.records):
            v_t = val_grads[t]
            mask = record.participation
            divisor = n if mask is None else max(int(mask.sum()), 1)
            for row, participant in enumerate(log.participant_ids):
                present = mask is None or bool(mask[row])
                omega = np.zeros(p)
                if t > 0 and np.any(delta_g_sum[row]):
                    omega = local_hvp(
                        participant, record.theta_before, delta_g_sum[row]
                    )
                    # Participant uploads the HVP vector (the only extra
                    # communication of Algorithm 1).
                    ledger.record_bytes("participant->server", p * FLOAT64_BYTES)
                direct = (
                    -record.local_updates[row] / divisor
                    if present
                    else np.zeros(p)
                )
                delta_g = direct - record.lr * omega
                per_epoch[t, row] = -float(v_t @ delta_g) if present else 0.0
                delta_g_sum[row] += delta_g
    return from_per_epoch(
        "digfl-interactive", log.participant_ids, per_epoch, ledger=ledger
    )
