"""GTG-Shapley: guided truncation Monte-Carlo over reconstructed models.

Liu et al. (arXiv:2109.02053) make per-round Shapley estimation cheap
with three ideas, all implemented here on top of the training log the
repo already records:

* **Reconstruction, not retraining** — coalition ``S``'s round-``t``
  model is rebuilt from the stored updates (the MR scheme of
  :mod:`repro.shapley.reconstruction`), so utility evaluations cost one
  validation forward pass each.
* **Truncation, twice** — *between rounds*: a round whose full-coalition
  improvement ``u_t(N)`` is negligible against the loss scale is skipped
  outright (every participant scores zero there); *within a round*: a
  permutation walk stops charging marginals once the running prefix
  value is within tolerance of ``u_t(N)`` — the remaining players'
  marginals are treated as zero, saving their model reconstructions.
* **Guidance + convergence** — the first permutation visits
  participants in descending order of their contribution so far (so the
  truncation point arrives early), later permutations are seeded-random,
  and sampling stops when the running Shapley means move less than a
  relative tolerance for two consecutive permutations.

Everything is deterministic under a fixed ``seed``: round ``t`` draws
its permutations from ``make_rng(derive_seed(seed, t))``, so the same
log ingested in any batching yields bit-identical estimates — the same
streaming/batch contract the DIG-FL estimators honour.

Per-round participation masks are respected the DIG-FL way: a
participant absent from round ``t`` shipped nothing, is excluded from
the round's game, and scores exactly zero that round.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.backends import EstimatorBackend, HFLRunContext, register_backend
from repro.core.streaming import _StreamingBase, check_update_rows
from repro.data.dataset import Dataset
from repro.estimators._coalitions import CoalitionValuer, present_rows
from repro.hfl.log import EpochRecord
from repro.nn.models import Classifier
from repro.utils.rng import derive_seed, make_rng

_EPS = 1e-12


class StreamingGTGShapley(_StreamingBase):
    """GTG-Shapley, one :class:`EpochRecord` at a time.

    Tolerances: ``round_tolerance`` gates the between-round truncation
    (relative to the round's base validation loss),
    ``truncation_tolerance`` the within-round walk cutoff (relative to
    ``u_t(N)``), ``convergence_tolerance`` the early stop on the running
    means.  ``max_permutations`` bounds the Monte-Carlo loop;
    ``min_permutations`` is the floor before the convergence criterion
    may fire.
    """

    method = "gtg-shapley"

    def __init__(
        self,
        participant_ids: Sequence[int],
        validation: Dataset,
        model_factory: Callable[[], Classifier],
        *,
        seed: int = 0,
        max_permutations: int = 16,
        min_permutations: int = 2,
        round_tolerance: float = 1e-4,
        truncation_tolerance: float = 0.01,
        convergence_tolerance: float = 0.05,
    ) -> None:
        super().__init__(participant_ids)
        if max_permutations < 1:
            raise ValueError(f"max_permutations must be >= 1, got {max_permutations}")
        self.validation = validation
        self.model = model_factory()
        self.seed = int(seed)
        self.max_permutations = int(max_permutations)
        self.min_permutations = max(1, int(min_permutations))
        self.round_tolerance = float(round_tolerance)
        self.truncation_tolerance = float(truncation_tolerance)
        self.convergence_tolerance = float(convergence_tolerance)
        self.permutations_run = 0
        self.coalition_evaluations = 0
        self.rounds_truncated = 0
        self.walks_truncated = 0

    def ingest(self, record: EpochRecord, *, memo_key: str | None = None) -> np.ndarray:
        """Consume one epoch: reconstruct, sample, truncate, converge."""
        del memo_key  # utilities are losses, not validation gradients
        n = self.n_participants
        check_update_rows(record, n)
        with self.ledger.computing():
            present = present_rows(record)
            row = np.zeros(n)
            if present.size:
                row = self._evaluate_round(record, present)
        return self._push(row)

    # ------------------------------------------------------------ internals

    def _evaluate_round(self, record: EpochRecord, present: np.ndarray) -> np.ndarray:
        t = self.n_epochs  # 0-based round index; fixes this round's rng
        valuer = CoalitionValuer(
            self.model, record, self.validation, profiler=self.profiler
        )
        grand = frozenset(int(i) for i in present)
        v_full = valuer.value(grand)
        row = np.zeros(self.n_participants)
        # Between-round truncation: a converged round moves the loss so
        # little that splitting its credit is noise — skip it wholesale.
        if abs(v_full) <= self.round_tolerance * max(abs(valuer.base_loss), _EPS):
            self.rounds_truncated += 1
            self.coalition_evaluations += valuer.evaluations
            return row
        with self.profiler.phase("gtg.eval_round"):
            means = self._sample_round(valuer, present, v_full, t)
        row[present] = means
        self.coalition_evaluations += valuer.evaluations
        return row

    def _sample_round(
        self,
        valuer: CoalitionValuer,
        present: np.ndarray,
        v_full: float,
        t: int,
    ) -> np.ndarray:
        rng = make_rng(derive_seed(self.seed, t))
        m = present.size
        index_of = {int(p): j for j, p in enumerate(present)}
        sums = np.zeros(m)
        mean = np.zeros(m)
        cutoff = self.truncation_tolerance * abs(v_full)
        streak = 0
        walks = 0
        for perm_idx in range(self.max_permutations):
            if perm_idx == 0:
                # Guided first walk: strongest contributors so far go
                # first, so the prefix reaches u_t(N) (and truncates)
                # as early as possible.
                totals = self.totals()
                order = sorted(
                    (int(i) for i in present), key=lambda i: (-totals[i], i)
                )
            else:
                order = [int(i) for i in present[rng.permutation(m)]]
            prefix: frozenset[int] = frozenset()
            prev = 0.0
            truncated = False
            for i in order:
                if not truncated and abs(v_full - prev) <= cutoff:
                    truncated = True
                    self.walks_truncated += 1
                if truncated:
                    continue  # marginal treated as zero past the cutoff
                prefix = prefix | {i}
                value = valuer.value(prefix)
                sums[index_of[i]] += value - prev
                prev = value
            walks += 1
            new_mean = sums / walks
            spread = float(np.max(np.abs(new_mean - mean)))
            scale = float(np.max(np.abs(new_mean)))
            mean = new_mean
            # Convergence criterion: two consecutive permutations that
            # barely move the running means end the round's sampling.
            if walks >= self.min_permutations and spread <= (
                self.convergence_tolerance * max(scale, _EPS)
            ):
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
        self.permutations_run += walks
        return mean

    def report(self):
        report = super().report()
        report.extra["gtg"] = {
            "seed": self.seed,
            "permutations_run": self.permutations_run,
            "coalition_evaluations": self.coalition_evaluations,
            "rounds_truncated": self.rounds_truncated,
            "walks_truncated": self.walks_truncated,
        }
        return report


@register_backend
class GTGShapleyBackend(EstimatorBackend):
    """Guided truncation Monte-Carlo Shapley over reconstructed models."""

    name = "gtg_shapley"
    kinds = ("hfl",)
    summary = "guided-truncation MC Shapley on reconstructed round models"
    option_defaults = {
        "seed": 0,
        "max_permutations": 16,
        "min_permutations": 2,
        "round_tolerance": 1e-4,
        "truncation_tolerance": 0.01,
        "convergence_tolerance": 0.05,
    }

    def streaming_hfl(self, ctx: HFLRunContext) -> StreamingGTGShapley:
        return StreamingGTGShapley(
            ctx.participant_ids,
            ctx.validation,
            ctx.model_factory,
            **self.options,
        )
