"""The ``digfl`` backend: the paper's estimators behind the registry.

A *rebinding*, not a reimplementation: the streaming classes are
:class:`repro.core.streaming.StreamingHFLEstimator` /
:class:`~repro.core.streaming.StreamingVFLEstimator`, and the batch entry
points are the base class's whole-log fold over them — the same fold
:func:`repro.core.digfl_hfl.estimate_hfl_resource_saving` /
:func:`repro.core.digfl_vfl.estimate_vfl_first_order` perform, so every
number this backend produces is the core estimators' number.
"""

from __future__ import annotations

from repro.core.backends import (
    EstimatorBackend,
    HFLRunContext,
    VFLRunContext,
    register_backend,
)
from repro.core.streaming import StreamingHFLEstimator, StreamingVFLEstimator


@register_backend
class DigFLBackend(EstimatorBackend):
    """First-order DIG-FL (Alg. 2 / Eq. 16 for HFL, Eq. 27 for VFL)."""

    name = "digfl"
    kinds = ("hfl", "vfl")
    summary = "per-epoch gradient inner products (the paper's Alg. 2 / Eq. 27)"
    option_defaults: dict = {}

    def streaming_hfl(self, ctx: HFLRunContext) -> StreamingHFLEstimator:
        return StreamingHFLEstimator(
            ctx.participant_ids,
            ctx.validation,
            ctx.model_factory,
            use_logged_weights=ctx.use_logged_weights,
            val_grad_memo=ctx.val_grad_memo,
        )

    def streaming_vfl(self, ctx: VFLRunContext) -> StreamingVFLEstimator:
        return StreamingVFLEstimator(ctx.feature_blocks, ctx.active_parties)
