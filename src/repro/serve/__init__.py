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
  into the run's content digest; an epoch whose row holds NaN or ±inf
  is refused (:class:`~repro.core.streaming.NonFiniteRow`);
* :mod:`~repro.serve.cache` — :class:`ResultCache`, a content-addressed
  LRU keyed on the same SHA-256 array hashes :mod:`repro.io` embeds in
  saved logs;
* :mod:`~repro.serve.service` — :class:`EvaluationService`, the
  thread-safe in-process registry the :mod:`repro.runtime` engine
  publishes live epochs into (``contrib_updated`` events); each durable
  epoch publishes an immutable answer that readers take without a lock;
* :mod:`~repro.serve.http` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``repro serve --port``);
* :mod:`~repro.serve.resilience` — the ingest deadline, admission
  control / load shedding, the router's per-shard circuit breakers, and
  the typed error family behind 429/503/504;
* :mod:`~repro.serve.wal` — an fsync'd, checksummed write-ahead log and
  :func:`~repro.serve.wal.recover`, which rebuilds the registry after a
  crash to the exact ingested epoch (``repro serve --wal-dir --recover``);
* :mod:`~repro.serve.chaos` — seeded fault injection at ingest (latency
  spikes, raised errors, poisoned gradients) that proves every refusal
  deterministically;
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

import importlib

# Public name -> the module that defines it.  Imported on first access
# (PEP 562), so ``import repro.serve.http`` for one client call does not
# load the cluster, replication and chaos modules too.
_EXPORTS = {
    "StreamingHFLEstimator": "repro.core.streaming",
    "StreamingVFLEstimator": "repro.core.streaming",
    **dict.fromkeys(
        ("CacheMemo", "ResultCache", "RunDigest", "fingerprint_arrays"),
        "repro.serve.cache",
    ),
    **dict.fromkeys(
        ("ChaosError", "ChaosPolicy", "FlakyProxy", "inject_chaos"),
        "repro.serve.chaos",
    ),
    **dict.fromkeys(
        (
            "ClusterRouter",
            "ClusterSupervisor",
            "ShardTimeout",
            "ShardUnavailable",
            "StaticTopology",
            "WorkerSpec",
            "serve_cluster",
        ),
        "repro.serve.cluster",
    ),
    **dict.fromkeys(
        ("EvaluationHTTPServer", "register_from_spec", "serve"), "repro.serve.http"
    ),
    **dict.fromkeys(
        ("ReplicationError", "WalApplier", "WalFollower", "WorkerController"),
        "repro.serve.replication",
    ),
    **dict.fromkeys(
        (
            "AdmissionQueue",
            "Backoff",
            "CircuitBreaker",
            "Deadline",
            "DeadlineExceeded",
            "RetryPolicy",
            "ServiceClosed",
            "ServiceOverloaded",
        ),
        "repro.serve.resilience",
    ),
    "HashRing": "repro.serve.ring",
    "ResizePlan": "repro.serve.ring",
    "ContributionPublisher": "repro.serve.service",
    "EvaluationService": "repro.serve.service",
    **dict.fromkeys(
        (
            "RecoveryReport",
            "WriteAheadLog",
            "recover",
            "scan_wal",
            "validate_wal_record",
        ),
        "repro.serve.wal",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
