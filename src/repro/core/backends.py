"""Estimator backend registry: one interface, many contribution methods.

DIG-FL is one answer to "what did each participant contribute?"; the
literature has others (GTG-Shapley's guided truncation Monte-Carlo over
reconstructed models, DPVS-style dynamic pruning), and comparing them is
itself an experiment the serving stack should run.  This module is the
seam: an :class:`EstimatorBackend` names a method, says which log kinds
it supports, and builds the streaming estimator the
:class:`~repro.serve.service.EvaluationService` feeds epoch records —
so ``POST /runs`` can carry an ``estimator:`` field and every backend
rides the same cache, WAL, breaker and cluster machinery.

The registry lives here in :mod:`repro.core` (imported by everything) and
the backend *implementations* live in :mod:`repro.estimators` (which
subclasses :mod:`repro.core.streaming`'s base).  :func:`get_backend`
breaks that cycle lazily: the first lookup imports :mod:`repro.estimators`,
whose module-level :func:`register_backend` decorators populate the
table.  Dependencies point one way, ``core`` ← ``estimators`` ←
``serve``; that lazy import is the only place ``core`` names
``estimators``.

Cache identity: :meth:`EstimatorBackend.digest_token` folds the backend
name and its *options* into the run's content digest, so two runs over
the same log with different backends (or the same backend differently
parameterised) never share a cached query answer — while the validation
*gradients* they may have in common are shared through a separate
content-addressed memo (see :meth:`repro.serve.service.EvaluationService.register_hfl`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.contribution import ContributionReport
from repro.core.streaming import fold_log
from repro.metrics.cost import CostLedger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.data.dataset import Dataset
    from repro.hfl.log import TrainingLog
    from repro.nn.models import Classifier
    from repro.vfl.log import VFLTrainingLog


class UnknownBackendError(ValueError):
    """An ``estimator:`` name no registered backend answers to."""

    def __init__(self, name: str, registered: Sequence[str]) -> None:
        super().__init__(
            f"unknown estimator backend {name!r}; registered backends: "
            f"{', '.join(registered)}"
        )
        self.name = name
        self.registered = list(registered)


class UnsupportedLogKind(ValueError):
    """A backend asked to evaluate a log kind it has no algorithm for.

    The message names the backends that *do* support the kind — "gtg
    can't do vfl" is only actionable if the error also says which
    registered backends can.
    """

    def __init__(
        self,
        backend: str,
        kind: str,
        supported: Sequence[str],
        capable: Sequence[str] | None = None,
    ) -> None:
        if capable is None:
            capable = kind_capable_backends(kind)
        capable = [name for name in capable if name != backend]
        message = (
            f"estimator backend {backend!r} does not support {kind!r} logs "
            f"(supported: {', '.join(supported)})"
        )
        if capable:
            message += (
                f"; backends supporting {kind!r}: {', '.join(capable)}"
            )
        super().__init__(message)
        self.backend = backend
        self.kind = kind
        self.capable = list(capable)


@dataclass
class HFLRunContext:
    """Everything a backend may need to stream-evaluate one HFL run.

    ``val_grad_memo`` is the service's cross-run validation-gradient memo
    (any ``MutableMapping``); backends that never touch validation
    gradients ignore it.
    """

    participant_ids: Sequence[int]
    validation: "Dataset"
    model_factory: Callable[[], "Classifier"]
    use_logged_weights: bool = False
    val_grad_memo: dict | None = None


@dataclass
class VFLRunContext:
    """Constructor inputs for a streaming VFL estimator."""

    feature_blocks: Sequence[np.ndarray]
    active_parties: Sequence[int]


@dataclass
class BackendInfo:
    """One registry row, as ``repro estimate``/``/runs`` report it."""

    name: str
    kinds: tuple[str, ...]
    summary: str
    option_defaults: dict = field(default_factory=dict)


class EstimatorBackend:
    """Base class: a named, optioned factory for streaming estimators.

    Subclasses set ``name`` (the registry key), ``kinds`` (the log kinds
    they can evaluate) and ``option_defaults`` (every tunable with its
    default — unknown option names are refused at construction, which is
    what turns a typo'd ``estimator_options`` into an HTTP 400 instead
    of a silently ignored knob).  They implement :meth:`streaming_hfl` /
    :meth:`streaming_vfl` for the kinds they support; the batch entry
    points below are the whole-log fold
    (:func:`repro.core.streaming.fold_log`) over those, for every backend.
    """

    name: str = ""
    kinds: tuple[str, ...] = ()
    summary: str = ""
    option_defaults: dict = {}

    def __init__(self, **options) -> None:
        unknown = sorted(set(options) - set(self.option_defaults))
        if unknown:
            raise ValueError(
                f"backend {self.name!r} has no option(s) {unknown}; "
                f"available: {sorted(self.option_defaults) or 'none'}"
            )
        self.options = {**self.option_defaults, **options}

    # ------------------------------------------------------------- identity

    def digest_token(self) -> str:
        """Deterministic cache-key component: backend name + options."""
        return json.dumps(
            {"backend": self.name, "options": self.options},
            sort_keys=True,
            default=str,
        )

    def supports(self, kind: str) -> bool:
        return kind in self.kinds

    def require(self, kind: str) -> None:
        if not self.supports(kind):
            raise UnsupportedLogKind(self.name, kind, self.kinds)

    # ------------------------------------------------------------ streaming

    def streaming_hfl(self, ctx: HFLRunContext):
        """A fresh streaming estimator for one HFL run."""
        raise UnsupportedLogKind(self.name, "hfl", self.kinds)

    def streaming_vfl(self, ctx: VFLRunContext):
        """A fresh streaming estimator for one VFL run."""
        raise UnsupportedLogKind(self.name, "vfl", self.kinds)

    # ---------------------------------------------------------------- batch

    def estimate_hfl(
        self,
        log: "TrainingLog",
        validation: "Dataset",
        model_factory: Callable[[], "Classifier"],
        *,
        use_logged_weights: bool = False,
        ledger: CostLedger | None = None,
        val_grad_memo: dict | None = None,
        profiler=None,
    ) -> ContributionReport:
        """Whole-log estimate: build the streaming estimator, feed it all."""
        self.require("hfl")
        ctx = HFLRunContext(
            log.participant_ids,
            validation,
            model_factory,
            use_logged_weights=use_logged_weights,
            val_grad_memo=val_grad_memo,
        )
        return fold_log(
            self.streaming_hfl(ctx), log, ledger=ledger, profiler=profiler
        )

    def estimate_vfl(
        self,
        log: "VFLTrainingLog",
        *,
        ledger: CostLedger | None = None,
        profiler=None,
    ) -> ContributionReport:
        """Whole-log VFL estimate via the streaming path."""
        self.require("vfl")
        ctx = VFLRunContext(log.feature_blocks, log.active_parties)
        return fold_log(
            self.streaming_vfl(ctx), log, ledger=ledger, profiler=profiler
        )

    def info(self) -> BackendInfo:
        return BackendInfo(
            name=self.name,
            kinds=self.kinds,
            summary=self.summary,
            option_defaults=dict(self.option_defaults),
        )


_REGISTRY: dict[str, type[EstimatorBackend]] = {}


def register_backend(cls: type[EstimatorBackend]) -> type[EstimatorBackend]:
    """Class decorator adding ``cls`` to the registry under ``cls.name``.

    Duplicate names are refused — two algorithms answering to one name
    would make ``estimator:`` fields ambiguous — except for the exact
    same class, so re-importing :mod:`repro.estimators` stays harmless.
    """
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty 'name'")
    if not cls.kinds:
        raise ValueError(f"{cls.__name__} must declare supported log kinds")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"estimator backend name {cls.name!r} is already registered "
            f"by {existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_populated() -> None:
    """Lazy bootstrap: importing the implementations fills the table."""
    if not _REGISTRY:
        import repro.estimators  # noqa: F401 - imported for its decorators


def backend_names() -> list[str]:
    """Registered backend names, sorted (CLI choices, 400 bodies)."""
    _ensure_populated()
    return sorted(_REGISTRY)


def backend_infos() -> list[BackendInfo]:
    """One :class:`BackendInfo` per registered backend, name-sorted."""
    _ensure_populated()
    return [_REGISTRY[name]().info() for name in sorted(_REGISTRY)]


def kind_capable_backends(kind: str) -> list[str]:
    """Names of registered backends supporting ``kind``, sorted.

    This is what :class:`UnsupportedLogKind` embeds in its message, and
    what the robustness matrix uses to enumerate the backend axis for a
    scenario's log kind.
    """
    _ensure_populated()
    return sorted(name for name, cls in _REGISTRY.items() if kind in cls.kinds)


#: BENCH_estimators.json lives at the repo root, three levels above this file.
_BENCH_ESTIMATORS = "BENCH_estimators.json"


def _crossover_parties(bench_path=None) -> int | None:
    """The gtg→dpvs crossover party count recorded by the benchmark, if any.

    Reads ``bench_path`` when given, else the repo's own
    ``BENCH_estimators.json`` — never the working directory, so the
    answer does not depend on where a server was started.
    """
    from pathlib import Path

    if bench_path is None:
        bench_path = Path(__file__).resolve().parents[3] / _BENCH_ESTIMATORS
    try:
        payload = json.loads(Path(bench_path).read_text())
    except (OSError, ValueError):
        return None
    crossover = payload.get("crossover")
    if isinstance(crossover, dict):
        n = crossover.get("n_parties")
        if isinstance(n, (int, float)) and n > 0:
            return int(n)
    return None


def choose_backend(n_parties: int, kind: str, *, bench_path=None) -> str:
    """Auto-select a backend name for a federation of ``n_parties``.

    Policy: ``digfl`` is the safe default (the only VFL-capable backend,
    and the cheapest HFL one).  For HFL, when ``BENCH_estimators.json``
    records a measured ``gtg_shapley``/``dpvs`` crossover, Shapley-style
    answers come from ``gtg_shapley`` below the crossover party count and
    ``dpvs`` at or above it; with no benchmark file (or a pre-crossover
    format) the choice falls back to ``digfl``.
    """
    if n_parties < 1:
        raise ValueError(f"n_parties must be positive, got {n_parties}")
    if kind not in ("hfl", "vfl"):
        raise ValueError(f"kind must be 'hfl' or 'vfl', got {kind!r}")
    if kind == "vfl":
        return "digfl"
    crossover = _crossover_parties(bench_path)
    if crossover is None:
        return "digfl"
    names = set(backend_names())
    if not {"gtg_shapley", "dpvs"} <= names:
        return "digfl"
    return "gtg_shapley" if n_parties < crossover else "dpvs"


def get_backend(name: str, **options) -> EstimatorBackend:
    """Construct the backend registered under ``name`` with ``options``.

    Raises :class:`UnknownBackendError` (a ``ValueError``, so the HTTP
    ladder answers 400) for an unregistered name, and plain
    ``ValueError`` for an unknown option of a known backend.
    """
    _ensure_populated()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise UnknownBackendError(name, sorted(_REGISTRY))
    return cls(**options)
