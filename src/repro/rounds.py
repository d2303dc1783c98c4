"""How a training round's local work runs: the trainers' pluggable step.

:meth:`repro.hfl.trainer.HFLTrainer.train` and
:meth:`repro.vfl.trainer.VFLTrainer.train` are the only round loops in
the repo: they compute every float of a training log (updates, masks,
weights, aggregates, records).  What a round loop does *not* own is how
each party's local work gets run and what is recorded around a round.
That is a round runner:

* :class:`SyncRounds` (this module, the default ``rounds=``) runs every
  party in turn, in process, and everyone arrives;
* :class:`repro.runtime.engine.FederatedRuntime` plugs in a runner that
  dispatches the same work through its scheduler (simulated clock, fault
  fates, deadlines, thread pools) and records events, quarantine
  incidents and live publications around each round.

Because both paths share one loop, an engine run with the serial
executor, the null fault plan and no deadline produces the synchronous
trainers' log by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer

#: One party's local work: ``work(model, party) -> result``.  ``model`` is
#: the model instance to compute on (already holding ``θ_{t-1}``); VFL
#: work needs none and receives ``None``.
LocalWork = Callable[[Any, int], Any]


@dataclass
class LocalRound:
    """What one round's local work delivered, in party order."""

    results: list  # each party's result; None where nothing arrived
    arrived: list[bool]  # per party: its result reached the server
    dispatched: list[bool]  # per party: it downloaded the round's model


class SyncRounds:
    """The synchronous round runner: every party runs in turn and arrives.

    ``tracer`` gets one ``trainer.epoch`` span per round (the shared no-op
    tracer by default, which costs one predicate per round).
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.kind = ""
        self._span = NULL_SPAN

    @contextmanager
    def running(
        self, kind: str, n_parties: int, epochs: int, model_factory=None
    ) -> Iterator[None]:
        """Scope of one training run.

        A round left open by an error ends with ``status="error"``.
        ``model_factory`` builds per-worker model replicas for runners that
        compute off the calling thread.
        """
        del n_parties, epochs, model_factory
        self.kind = kind
        try:
            yield
        except BaseException:
            self._span.end(status="error")
            raise

    def begin_round(self, epoch: int) -> None:
        self._span = self.tracer.span("trainer.epoch", epoch=epoch, kind=self.kind)

    def local_work(
        self, epoch: int, parties: Sequence[int], work: LocalWork, model=None
    ) -> LocalRound:
        """Run ``work`` for every party, in order, on ``model``."""
        del epoch
        everyone = [True] * len(parties)
        return LocalRound([work(model, i) for i in parties], everyone, everyone)

    def screen(
        self,
        screener,
        epoch: int,
        parties: Sequence[int],
        updates,
        mask: np.ndarray,
        *,
        homogeneous: bool = True,
    ) -> np.ndarray:
        """The pre-aggregation screening pass; returns the surviving mask."""
        return screener.screen(epoch, parties, updates, mask, homogeneous=homogeneous)

    def end_round(self, record, arrived: int) -> None:
        """Called once the round's record is logged (and checkpointed)."""
        del record, arrived
        self._span.end()
