"""Pluggable contribution-estimator backends behind one registry.

The registry interface (:class:`~repro.core.backends.EstimatorBackend`,
:func:`~repro.core.backends.register_backend`,
:func:`~repro.core.backends.get_backend`) lives in :mod:`repro.core`;
this package holds the implementations, registered at import time:

* ``digfl`` (:mod:`~repro.estimators.digfl`) — the paper's estimators,
  rebinding the streaming classes of :mod:`repro.core.streaming`, whose
  whole-log fold is also the core batch estimate;
* ``gtg_shapley`` (:mod:`~repro.estimators.gtg`) — guided truncation
  Monte-Carlo Shapley over models reconstructed from the update log
  (Liu et al., arXiv:2109.02053), seeded and deterministic;
* ``dpvs`` (:mod:`~repro.estimators.dpvs`) — permutation-sampling
  Shapley with dynamic pruning of low-impact participants
  (DPVS-Shapley, arXiv:2410.15093).

:mod:`~repro.estimators.volatility` compares any set of backends on one
log: per-participant coefficient of variation, per-backend rank
stability across epochs, and pairwise cross-backend Spearman agreement —
the artifact ``repro compare`` prints and
``examples/backend_faceoff.py`` demonstrates.

Every backend serves through the same
:class:`~repro.serve.service.EvaluationService`: ``POST /runs`` takes an
``estimator:`` field (default ``digfl``), the backend name and options
are folded into the run's content digest (so runs of different backends
never share one), and query payloads carry the answering backend.
"""

from repro.core.backends import (
    BackendInfo,
    EstimatorBackend,
    HFLRunContext,
    UnknownBackendError,
    UnsupportedLogKind,
    VFLRunContext,
    backend_infos,
    backend_names,
    get_backend,
    register_backend,
)
from repro.estimators.digfl import DigFLBackend
from repro.estimators.dpvs import DPVSBackend, StreamingDPVSEstimator
from repro.estimators.gtg import GTGShapleyBackend, StreamingGTGShapley
from repro.estimators.volatility import VolatilityReport, volatility_report

__all__ = [
    "BackendInfo",
    "DPVSBackend",
    "DigFLBackend",
    "EstimatorBackend",
    "GTGShapleyBackend",
    "HFLRunContext",
    "StreamingDPVSEstimator",
    "StreamingGTGShapley",
    "UnknownBackendError",
    "UnsupportedLogKind",
    "VFLRunContext",
    "VolatilityReport",
    "backend_infos",
    "backend_names",
    "get_backend",
    "register_backend",
    "volatility_report",
]
