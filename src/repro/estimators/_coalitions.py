"""Coalition utilities over reconstructed models — the one coalition pricer.

GTG-Shapley, DPVS and the MR baseline
(:func:`repro.shapley.reconstruction.per_round_exact_shapley`) all price a
coalition ``S`` in round ``t`` here: rebuild the model the coalition would
have produced from the stored updates,

    θ_t(S) = θ_{t-1} − (1/|S|) Σ_{i∈S} δ_{t,i}

and take the validation improvement ``u_t(S) = loss^v(θ_{t-1}) −
loss^v(θ_t(S))``.  :class:`CoalitionValuer` owns one round's base loss
and a ``frozenset``-keyed cache of coalition values, so permutation
walks that revisit a prefix (the whole point of DPVS's fixed pruned
prefix, and common under GTG's guided first walk) pay one model
evaluation per *distinct* coalition.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import NULL_PROFILER


class CoalitionValuer:
    """Cached ``u_t(S)`` for one epoch record's reconstruction game."""

    def __init__(
        self,
        model,
        record,
        validation,
        *,
        profiler=NULL_PROFILER,
        phase: str = "gtg.reconstruct",
    ) -> None:
        self.model = model
        self.record = record
        self.validation = validation
        self.profiler = profiler
        self.phase = phase
        self.evaluations = 0
        self.cache_hits = 0
        with profiler.phase(phase):
            model.set_flat(record.theta_before)
            self.base_loss = float(
                model.loss(validation.X, validation.y).item()
            )
        self._cache: dict[frozenset[int], float] = {frozenset(): 0.0}

    def value(self, coalition: frozenset[int]) -> float:
        got = self._cache.get(coalition)
        if got is not None:
            self.cache_hits += 1
            return got
        with self.profiler.phase(self.phase):
            members = sorted(coalition)
            update = self.record.local_updates[members].mean(axis=0)
            self.model.set_flat(self.record.theta_before - update)
            after = float(self.model.loss(self.validation.X, self.validation.y).item())
        got = self.base_loss - after
        self._cache[coalition] = got
        self.evaluations += 1
        return got


def present_rows(record) -> np.ndarray:
    """Row indices whose update actually entered this round's aggregate."""
    return np.flatnonzero(record.participation_mask())
