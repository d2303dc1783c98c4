"""Multi-Rounds reconstruction Shapley — MR (Song et al., IEEE Big Data 2019).

MR avoids retraining by *reconstructing*, in every round ``t``, the model a
coalition ``S`` would have produced from the stored updates:

    θ_t(S) = θ_{t-1} − (1/|S|) Σ_{i∈S} δ_{t,i}

The round utility is the validation improvement
``u_t(S) = loss^v(θ_{t-1}) − loss^v(θ_t(S))`` — priced by the
:class:`~repro.estimators._coalitions.CoalitionValuer` that GTG-Shapley and
DPVS share — and the round Shapley values follow Eq. 1 exactly; totals
are summed over rounds.  No retraining — but
``2^n`` validation evaluations *per round*, the exponential cost the paper
criticises (Sec. VI-B).

The same computation yields the "actual per-epoch Shapley value" of
Fig. 6, where a participant leaving an epoch means ignoring its uploaded
gradient in that round's aggregation.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from repro.core.contribution import ContributionReport, from_per_epoch
from repro.data.dataset import Dataset
from repro.estimators._coalitions import CoalitionValuer, present_rows
from repro.hfl.log import TrainingLog
from repro.metrics.cost import CostLedger
from repro.nn.models import Classifier


def per_round_exact_shapley(
    log: TrainingLog,
    validation: Dataset,
    model_factory: Callable[[], Classifier],
    *,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Exact per-round Shapley matrix (τ, n) from reconstructed aggregates.

    Each round's game is played over the participants whose update
    entered that round's aggregate (:func:`present_rows`): a participant
    absent or quarantined in round ``t`` shipped nothing and scores
    exactly zero there, and the grand coalition is the model the server
    actually applied.  Logs without participation masks play every round
    over everyone.
    """
    if log.n_epochs == 0:
        raise ValueError("training log is empty")
    ledger = ledger or CostLedger()
    model = model_factory()
    per_epoch = np.zeros((log.n_epochs, log.n_participants))

    with ledger.computing():
        for t, record in enumerate(log.records):
            valuer = CoalitionValuer(model, record, validation, phase="mr.reconstruct")
            players = [int(i) for i in present_rows(record)]
            m = len(players)
            for i in players:
                others = [j for j in players if j != i]
                for size in range(m):
                    weight = 1.0 / (m * comb(m - 1, size))
                    for subset in combinations(others, size):
                        s = frozenset(subset)
                        per_epoch[t, i] += weight * (
                            valuer.value(s | {i}) - valuer.value(s)
                        )
    return per_epoch


def mr_shapley(
    log: TrainingLog,
    validation: Dataset,
    model_factory: Callable[[], Classifier],
) -> ContributionReport:
    """MR estimate: per-round exact Shapley values summed over rounds."""
    ledger = CostLedger()
    per_epoch = per_round_exact_shapley(log, validation, model_factory, ledger=ledger)
    report = from_per_epoch("mr", log.participant_ids, per_epoch, ledger=ledger)
    report.extra["validation_evaluations"] = log.n_epochs * (2**log.n_participants)
    return report
