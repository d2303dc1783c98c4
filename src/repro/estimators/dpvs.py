"""DPVS-style dynamic pruning: stop paying full price for low-impact parties.

DPVS-Shapley (arXiv:2410.15093) observes that most permutation-sampling
budget is spent re-measuring participants whose contribution is already
known to be negligible.  This backend applies the idea to the per-round
reconstruction game: participants whose running |total| has fallen below
a fraction of the current leader's are *pruned* — in every sampled
permutation they occupy a fixed, sorted prefix, so their coalition
prefixes repeat across permutations and the round's coalition cache
answers them for one model evaluation each, while the still-active
participants keep getting genuinely random positions (and fresh
marginals) in the suffix.

Pruning is dynamic with hysteresis: it starts only after
``warmup_rounds`` ingested epochs, a pruned participant is revived when
its running |total| climbs back above ``revive_above`` × leader, and at
least ``min_active`` participants always remain active.  Pruned
participants still receive per-round scores (their cached prefix
marginals), so totals stay comparable across backends — the point is
saved model evaluations, not frozen estimates; the savings are reported
in ``report().extra["dpvs"]``.

Determinism matches GTG: round ``t`` draws from
``make_rng(derive_seed(seed, t))``, so streaming and batch ingestion of
the same log agree bit-for-bit.
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


class StreamingDPVSEstimator(_StreamingBase):
    """Permutation-sampling Shapley with dynamically pruned participants."""

    method = "dpvs-pruning"

    def __init__(
        self,
        participant_ids: Sequence[int],
        validation: Dataset,
        model_factory: Callable[[], Classifier],
        *,
        seed: int = 0,
        permutations: int = 8,
        warmup_rounds: int = 2,
        prune_below: float = 0.05,
        revive_above: float = 0.15,
        min_active: int = 2,
    ) -> None:
        super().__init__(participant_ids)
        if permutations < 1:
            raise ValueError(f"permutations must be >= 1, got {permutations}")
        if not 0.0 <= prune_below <= revive_above:
            raise ValueError(
                "need 0 <= prune_below <= revive_above, got "
                f"{prune_below} / {revive_above}"
            )
        self.validation = validation
        self.model = model_factory()
        self.seed = int(seed)
        self.permutations = int(permutations)
        self.warmup_rounds = int(warmup_rounds)
        self.prune_below = float(prune_below)
        self.revive_above = float(revive_above)
        self.min_active = max(1, int(min_active))
        self._pruned: set[int] = set()  # row indices currently pruned
        self.coalition_evaluations = 0
        self.evaluations_saved = 0
        self.prune_events = 0

    @property
    def pruned_participants(self) -> list[int]:
        """Participant ids currently pruned, sorted."""
        return sorted(self.participant_ids[i] for i in self._pruned)

    def ingest(self, record: EpochRecord, *, memo_key: str | None = None) -> np.ndarray:
        del memo_key
        n = self.n_participants
        check_update_rows(record, n)
        with self.ledger.computing():
            present = present_rows(record)
            row = np.zeros(n)
            if present.size:
                row = self._evaluate_round(record, present)
        pushed = self._push(row)
        self._update_pruned()
        return pushed

    # ------------------------------------------------------------ internals

    def _evaluate_round(self, record: EpochRecord, present: np.ndarray) -> np.ndarray:
        t = self.n_epochs
        rng = make_rng(derive_seed(self.seed, t))
        valuer = CoalitionValuer(
            self.model,
            record,
            self.validation,
            profiler=self.profiler,
            phase="dpvs.reconstruct",
        )
        # Pruned-but-present participants form a fixed sorted prefix of
        # every permutation: their prefix coalitions repeat, so each
        # costs one evaluation in the whole round instead of one per
        # permutation.
        prefix_rows = sorted(int(i) for i in present if i in self._pruned)
        active_rows = np.array(
            [int(i) for i in present if i not in self._pruned], dtype=int
        )
        index_of = {int(p): j for j, p in enumerate(present)}
        sums = np.zeros(present.size)
        with self.profiler.phase("dpvs.eval_round"):
            for _ in range(self.permutations):
                order = prefix_rows + [
                    int(i) for i in active_rows[rng.permutation(active_rows.size)]
                ]
                prefix: frozenset[int] = frozenset()
                prev = 0.0
                for i in order:
                    prefix = prefix | {i}
                    value = valuer.value(prefix)
                    sums[index_of[i]] += value - prev
                    prev = value
        row = np.zeros(self.n_participants)
        row[present] = sums / self.permutations
        self.coalition_evaluations += valuer.evaluations
        self.evaluations_saved += valuer.cache_hits
        return row

    def _update_pruned(self) -> None:
        """Re-draw the pruned set from running totals, with hysteresis."""
        if self.n_epochs < self.warmup_rounds:
            return
        totals = self.totals()
        scale = float(np.max(np.abs(totals)))
        if scale <= _EPS:
            return
        for i in range(self.n_participants):
            share = abs(totals[i]) / scale
            if i in self._pruned:
                if share >= self.revive_above:
                    self._pruned.discard(i)
            elif share < self.prune_below:
                self._pruned.add(i)
                self.prune_events += 1
        # Never prune the problem away: keep the strongest participants
        # active until at least ``min_active`` remain unpruned.
        while self.n_participants - len(self._pruned) < self.min_active:
            best = max(self._pruned, key=lambda i: (abs(totals[i]), -i))
            self._pruned.discard(best)

    def report(self):
        report = super().report()
        report.extra["dpvs"] = {
            "seed": self.seed,
            "pruned": self.pruned_participants,
            "prune_events": self.prune_events,
            "coalition_evaluations": self.coalition_evaluations,
            "evaluations_saved": self.evaluations_saved,
        }
        return report


@register_backend
class DPVSBackend(EstimatorBackend):
    """Permutation Shapley with dynamic pruning of low-impact parties."""

    name = "dpvs"
    kinds = ("hfl",)
    summary = "permutation-sampling Shapley, low-impact parties pruned"
    option_defaults = {
        "seed": 0,
        "permutations": 8,
        "warmup_rounds": 2,
        "prune_below": 0.05,
        "revive_above": 0.15,
        "min_active": 2,
    }

    def streaming_hfl(self, ctx: HFLRunContext) -> StreamingDPVSEstimator:
        return StreamingDPVSEstimator(
            ctx.participant_ids,
            ctx.validation,
            ctx.model_factory,
            **self.options,
        )
