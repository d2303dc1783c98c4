"""Validation gradients of a training log — the shared DIG-FL hot loop.

Every log-based estimator needs ``∇loss^v(θ_{t-1})`` for each epoch: the
streaming estimators of :mod:`repro.core.streaming` (whose whole-log fold
is the batch first-order estimate) take one epoch at a time, Algorithm 1
(:func:`repro.core.digfl_hfl.estimate_hfl_interactive`) loops over the
whole log, and the reweight mechanism evaluates the same gradient
mid-training.  This module is that computation, extracted once, so every
path computes the same floats through the same expressions.

Both entry points accept an optional *memo* — any ``MutableMapping`` from
``(key, epoch)`` to the gradient vector, e.g. the adapter returned by
:meth:`repro.serve.cache.ResultCache.memo` — so a service answering many
queries over the same log computes each epoch's validation gradient once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, MutableMapping

import numpy as np

from repro.data.dataset import Dataset
from repro.hfl.trainer import flat_gradient
from repro.nn.models import Classifier

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.hfl.log import TrainingLog

GradientMemo = MutableMapping


def epoch_validation_gradient(
    model: Classifier,
    theta: np.ndarray,
    validation: Dataset,
    *,
    memo: GradientMemo | None = None,
    key: str | None = None,
    epoch: int | None = None,
) -> np.ndarray:
    """``∇loss^v(θ)`` for one epoch; the model is left loaded with ``θ``.

    With ``memo`` and ``key`` given, the result is looked up / stored under
    ``(key, epoch)``.  Callers that need the model's previous parameters
    back must save and restore them (see
    :func:`repro.hfl.trainer.validation_gradient` for the restoring
    variant) — the batch loop deliberately skips that round-trip.
    """
    if memo is not None and key is not None:
        cached = memo.get((key, epoch))
        if cached is not None:
            return cached
    model.set_flat(theta)
    gradient = flat_gradient(model, validation.X, validation.y)
    if memo is not None and key is not None:
        memo[(key, epoch)] = gradient
    return gradient


def validation_gradients(
    log: "TrainingLog",
    validation: Dataset,
    model: Classifier,
    *,
    memo: GradientMemo | None = None,
    key: str | None = None,
) -> np.ndarray:
    """``∇loss^v(θ_{t-1})`` for every epoch of an HFL log, shape (τ, p)."""
    grads = np.empty((log.n_epochs, log.records[0].theta_before.size))
    for t, record in enumerate(log.records):
        grads[t] = epoch_validation_gradient(
            model, record.theta_before, validation, memo=memo, key=key, epoch=t
        )
    return grads
