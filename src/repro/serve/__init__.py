"""Streaming contribution evaluation: estimators, cache, service, HTTP API.

The batch DIG-FL estimators re-read the whole training log and recompute
every validation gradient per call; at serving scale that cost — not the
estimation math — is the bottleneck.  This package exploits the paper's
per-epoch additivity (Lemma 3, Eq. 13–15) to make contributions
*incrementally* computable and cheaply *queryable*:

* the streaming estimators it serves live in :mod:`repro.core.streaming`
  (:class:`StreamingHFLEstimator` / :class:`StreamingVFLEstimator`,
  re-exported here) and consume one epoch record at a time — the batch
  estimators are their whole-log fold; these are the default ``digfl``
  backend of the :mod:`repro.estimators` registry, and ``POST /runs``
  accepts any registered backend via its ``estimator:`` field
  (``gtg_shapley``, ``dpvs``, ...), folding the backend name and options
  into the run's cache digest;
* :mod:`~repro.serve.cache` — :class:`ResultCache`, a content-addressed
  LRU keyed on the same SHA-256 array hashes :mod:`repro.io` embeds in
  saved logs;
* :mod:`~repro.serve.service` — :class:`EvaluationService`, the
  thread-safe in-process registry the :mod:`repro.runtime` engine
  publishes live epochs into (``contrib_updated`` events);
* :mod:`~repro.serve.http` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``repro serve --port``);
* :mod:`~repro.serve.resilience` — deadlines, admission control /
  load shedding, per-run circuit breakers serving stale-but-consistent
  answers, and the typed error family behind 429/503/504;
* :mod:`~repro.serve.wal` — an fsync'd, checksummed write-ahead log and
  :func:`~repro.serve.wal.recover`, which rebuilds the registry after a
  crash to the exact ingested epoch (``repro serve --wal-dir --recover``);
* :mod:`~repro.serve.chaos` — seeded fault injection (latency spikes,
  raised errors, corrupted payloads) that proves every degraded-mode
  behaviour deterministically;
* :mod:`~repro.serve.ring` — :class:`HashRing`, consistent hashing of
  run ids onto shards with minimal movement under membership change;
* :mod:`~repro.serve.cluster` — sharded multi-process serving
  (``repro serve --cluster N``): a :class:`ClusterSupervisor` of worker
  processes, each owning one ring shard and its own WAL, behind a
  :class:`ClusterRouter` that proxies by run id, aggregates
  ``/healthz``/``/metricz``, and on worker death respawns the shard and
  replays its WAL for bit-identical answers;
* :mod:`~repro.serve.replication` — warm standby workers that tail
  their primary's WAL over ``GET /wal/stream`` (:class:`WalFollower` /
  :class:`WalApplier`) so failover is catch-up-the-lag instead of
  replay-the-world, plus the ``/control/*`` plane the supervisor uses
  for promotion and for shipping WAL subsets during an online
  ``POST /cluster/resize`` rebalance.
"""

from repro.core.streaming import StreamingHFLEstimator, StreamingVFLEstimator
from repro.serve.cache import CacheMemo, ResultCache, RunDigest, fingerprint_arrays
from repro.serve.chaos import ChaosError, ChaosPolicy, FlakyProxy, inject_chaos
from repro.serve.cluster import (
    ClusterRouter,
    ClusterSupervisor,
    ShardTimeout,
    ShardUnavailable,
    StaticTopology,
    WorkerSpec,
    serve_cluster,
)
from repro.serve.http import EvaluationHTTPServer, register_from_spec, serve
from repro.serve.replication import (
    ReplicationError,
    WalApplier,
    WalFollower,
    WorkerController,
)
from repro.serve.resilience import (
    AdmissionQueue,
    Backoff,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    QueryFailed,
    RetryPolicy,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.ring import HashRing, ResizePlan
from repro.serve.service import ContributionPublisher, EvaluationService
from repro.serve.wal import (
    RecoveryReport,
    WriteAheadLog,
    recover,
    scan_wal,
    validate_wal_record,
)

__all__ = [
    "AdmissionQueue",
    "Backoff",
    "CacheMemo",
    "ChaosError",
    "ChaosPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "ClusterRouter",
    "ClusterSupervisor",
    "ContributionPublisher",
    "Deadline",
    "DeadlineExceeded",
    "EvaluationHTTPServer",
    "EvaluationService",
    "FlakyProxy",
    "HashRing",
    "QueryFailed",
    "RecoveryReport",
    "ReplicationError",
    "ResizePlan",
    "ResultCache",
    "RetryPolicy",
    "RunDigest",
    "ServiceClosed",
    "ServiceOverloaded",
    "ShardTimeout",
    "ShardUnavailable",
    "StaticTopology",
    "StreamingHFLEstimator",
    "StreamingVFLEstimator",
    "WalApplier",
    "WalFollower",
    "WorkerController",
    "WorkerSpec",
    "WriteAheadLog",
    "fingerprint_arrays",
    "inject_chaos",
    "recover",
    "register_from_spec",
    "scan_wal",
    "serve",
    "serve_cluster",
    "validate_wal_record",
]
