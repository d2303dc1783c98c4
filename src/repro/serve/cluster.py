"""Sharded multi-process serving: consistent-hash routing + WAL failover.

One :class:`~repro.serve.service.EvaluationService` process tops out at
its GIL: concurrent leaderboard queries and streaming ingests contend on
one interpreter no matter how many threads the pool holds.  This module
scales the serving layer *out* instead of up, stdlib-only:

* :class:`ClusterSupervisor` spawns N worker processes
  (``multiprocessing`` + the existing
  :class:`~repro.serve.http.EvaluationHTTPServer` in each), every worker
  owning a :class:`~repro.serve.ring.HashRing` shard of the run-id space
  and its *own* :class:`~repro.serve.wal.WriteAheadLog` directory.
* :class:`ClusterRouter` is a thin HTTP front: it maps ``run_id →
  shard`` on the ring and proxies the request, carrying the trace across
  the hop (:func:`repro.obs.trace.context_headers`) so one client
  request is one trace across two processes.  Cluster ``/healthz`` and
  ``/metricz`` aggregate every worker — the Prometheus view folds all
  per-worker registry snapshots into one via
  :meth:`~repro.obs.registry.MetricsRegistry.merge`, labelled
  ``worker="0" … worker="router"``.
* Failure is typed, never a bare 500.  A downed or unreachable shard
  answers 503 with ``Retry-After`` (the expected respawn time); a proxy
  read that overruns its budget answers 504; worker-side 429/503/504
  pass through untouched.  The router's per-shard
  :class:`~repro.serve.resilience.CircuitBreaker` stops it hammering a
  dead port between probes.
* The supervisor's monitor thread detects worker death
  (``Process.is_alive`` + ``/healthz`` probes through the same
  breakers), respawns the shard on its old port, and the replacement
  replays its WAL — :func:`repro.serve.wal.recover` guarantees the
  revived shard serves contributions bit-identical to an uninterrupted
  run of the same prefix.  ``tests/test_cluster_chaos.py`` SIGKILLs a
  worker mid-ingest to hold the cluster to exactly that.

Run it with ``python -m repro.cli serve --cluster 3 --router-port 8733``;
``benchmarks/bench_cluster.py`` measures the single-process-vs-sharded
throughput gap this module exists for.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import re
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from http.client import HTTPException
from pathlib import Path
from typing import Hashable, Mapping

from repro.metrics.cost import Gauge
from repro.obs import Observability
from repro.obs.registry import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.obs.trace import context_headers
from repro.serve.http import (
    ROUTER_ROUTES,
    ApiError,
    FrontDoor,
    RawResponse,
    RequestCore,
    describe_routes,
    http_request,
    query_param,
    read_json_body,
    resolve_robustness_file,
)
from repro.serve.resilience import Backoff, CircuitBreaker
from repro.serve.ring import HashRing
from repro.serve.wal import REGISTER, WriteAheadLog, scan_wal


class ShardUnavailable(ApiError):
    """A shard is down or unreachable: 503, retry after ``retry_after_s``."""

    kind = "unavailable"

    def __init__(self, shard, reason: str, retry_after_s: float) -> None:
        super().__init__(
            503,
            f"shard {shard} is unavailable ({reason}); "
            f"retry in {retry_after_s:.0f}s",
            headers={"Retry-After": str(max(1, int(retry_after_s)))},
            fields={"shard": str(shard), "retry_after_s": retry_after_s},
        )
        self.shard = shard
        self.retry_after_s = retry_after_s


class ShardTimeout(ApiError):
    """A proxied request to a live shard overran the router's budget: 504."""

    kind = "timeout"

    def __init__(self, shard, timeout_s: float) -> None:
        super().__init__(
            504,
            f"shard {shard} did not answer within {timeout_s:.1f}s",
            fields={"shard": str(shard), "timeout_s": timeout_s},
        )
        self.shard = shard
        self.timeout_s = timeout_s


# --------------------------------------------------------------------- workers


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one shard worker needs; picklable for ``spawn``.

    A respawned replacement is started from the *same* spec — same port,
    same WAL directory — which is what makes failover transparent to the
    ring: the shard's identity is its spec, not its pid.
    """

    shard: int
    host: str
    port: int
    wal_dir: str
    cache_bytes: int = 64 * 1024 * 1024
    max_workers: int = 4
    query_deadline_ms: float | None = None
    admission_limit: int | None = None
    breaker_failures: int = 3
    breaker_reset_s: float = 30.0
    chaos_ingest_ms: float = 0.0
    trace: bool = False
    verbose: bool = False
    # Ring epoch the worker boots fenced at (see _check_ring_epoch).
    ring_epoch: int = 0
    # None → primary.  (host, port, wal_dir) of a primary → this worker
    # is that primary's warm standby: it tails the primary's WAL over
    # /wal/stream and applies every record to its own live service, so
    # promotion costs only the replication lag.  wal_dir is kept for the
    # final catch-up read of the (dead) primary's WAL *file*.
    follow: tuple[str, int, str] | None = None
    follow_poll_s: float = 0.05
    # Scenario-matrix verdict file served by GET /robustness; the
    # supervisor resolves it to an absolute path once, for every spawn.
    robustness_file: str | None = None


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of one shard process (top-level: ``spawn`` pickles it).

    Boot order matters: recover from the shard's WAL *before* attaching
    it (so replayed ingests are not re-logged), then serve.  SIGTERM is
    the supervisor's clean-shutdown signal; SIGKILL is what the chaos
    harness throws, and the WAL is the only thing that survives it.
    """
    import signal

    from repro.serve.http import EvaluationHTTPServer
    from repro.serve.replication import WalApplier, WalFollower, WorkerController
    from repro.serve.service import EvaluationService
    from repro.serve.wal import recover

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    obs = Observability(
        trace=spec.trace,
        # Disjoint id blocks per shard: merged trace exports from several
        # workers (and the router, which keeps the small default ids)
        # must never collide on span ids within one propagated trace.
        id_source=itertools.count((spec.shard + 1) * 2**48 + 1).__next__,
    )
    service = EvaluationService(
        cache_bytes=spec.cache_bytes,
        max_workers=spec.max_workers,
        query_deadline_ms=spec.query_deadline_ms,
        admission_limit=spec.admission_limit,
        breaker_failures=spec.breaker_failures,
        breaker_reset_s=spec.breaker_reset_s,
        obs=obs,
    )
    if spec.chaos_ingest_ms:
        # Chaos hook (mirrors repro.cli serve --chaos-ingest-ms): slow
        # each epoch ingest so a SIGKILL reliably lands mid-ingest.
        from repro.serve.service import EvaluationService as _ES

        _orig_ingest = _ES.ingest

        def _slow_ingest(self, run_id, record, *, seq=None):
            time.sleep(spec.chaos_ingest_ms / 1e3)
            return _orig_ingest(self, run_id, record, seq=seq)

        service.ingest = _slow_ingest.__get__(service, _ES)
    wal = WriteAheadLog(spec.wal_dir)
    # One applier per worker, shared by boot recovery, the streaming
    # follower (standbys) and /control/adopt (all roles — rebalance
    # ships runs to primaries too).  Recovery warms its run-spec cache;
    # once the WAL is attached, everything it applies is re-logged.
    applier = WalApplier(service)
    report = recover(service, wal, applier=applier)
    service.attach_wal(wal)
    if spec.verbose or report.runs_restored:
        print(f"[shard {spec.shard}] recovery: {report.summary()}", flush=True)
    server = EvaluationHTTPServer(
        (spec.host, spec.port),
        service,
        verbose=spec.verbose,
        robustness_file=spec.robustness_file,
    )
    server.ring_epoch = spec.ring_epoch
    follower = None
    if spec.follow is not None:
        primary_host, primary_port, primary_wal_dir = spec.follow
        follower = WalFollower(
            applier,
            primary_host,
            primary_port,
            primary_wal_dir=primary_wal_dir,
            # Resume from our own WAL length: every applied record was
            # re-logged, so this is a safe (at worst conservative) bound
            # on the primary sequence already absorbed.
            start_seq=wal.next_seq,
            poll_s=spec.follow_poll_s,
            registry=service.obs.registry,
        )
        follower.start()
    server.controller = WorkerController(server, service, applier, follower=follower)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        if follower is not None:
            follower.stop()
        server.server_close()
        service.close()
        wal.close()


def _control(
    spec: WorkerSpec, verb: str, payload: dict, timeout_s: float
) -> tuple[int, dict]:
    """POST ``/control/{verb}`` to a worker: its status and decoded answer."""
    status, _, body = http_request(
        spec.host,
        spec.port,
        "POST",
        f"/control/{verb}",
        body=json.dumps(payload).encode(),
        timeout_s=timeout_s,
    )
    return status, json.loads(body)


def _free_port(host: str) -> int:
    """An OS-assigned free TCP port (bound briefly, then released)."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


# -------------------------------------------------------------------- topology


class StaticTopology:
    """A fixed routing table over already-running workers.

    The router only needs four things from its topology — the ring, an
    address per shard, a circuit breaker per shard, and a failure hint —
    so tests (and embeddings that manage worker processes themselves)
    can hand it this instead of a full :class:`ClusterSupervisor`.
    """

    def __init__(
        self,
        workers: Mapping[Hashable, tuple[str, int]],
        *,
        replicas: int = 64,
        breaker_failures: int = 2,
        breaker_reset_s: float = 1.0,
        retry_after_hint_s: float = 1.0,
    ) -> None:
        if not workers:
            raise ValueError("a topology needs at least one worker")
        self.ring = HashRing(workers, replicas=replicas)
        self._addresses = {
            shard: (str(host), int(port))
            for shard, (host, port) in workers.items()
        }
        self._breakers = {
            shard: CircuitBreaker(breaker_failures, breaker_reset_s)
            for shard in workers
        }
        self.retry_after_hint_s = retry_after_hint_s
        self.ring_epoch = 0

    def address(self, shard) -> tuple[str, int]:
        return self._addresses[shard]

    def breaker(self, shard) -> CircuitBreaker:
        return self._breakers[shard]

    def notify_failure(self, shard) -> None:
        """No supervisor behind this topology; nothing to wake."""

    def retry_after_s(self, shard) -> float:
        return self.retry_after_hint_s

    def dual_target(self, key: str):
        """No rebalance machinery here; writes never need a second copy."""
        return None

    def describe(self) -> dict:
        return {
            "replicas": self.ring.replicas,
            "supervised": False,
            "ring_epoch": self.ring_epoch,
            "shards": {
                str(shard): {
                    "address": list(self._addresses[shard]),
                    "breaker": self._breakers[shard].stats(),
                }
                for shard in sorted(self._addresses, key=str)
            },
        }


class ClusterSupervisor:
    """Owns N shard worker processes: spawn, probe, respawn, stop.

    The monitor thread wakes every ``probe_interval_s`` (or immediately,
    when the router reports a proxy failure through
    :meth:`notify_failure`) and walks the shards: a dead process is
    respawned from its spec — the replacement replays the shard's WAL,
    so the revived shard answers bit-identically for every acknowledged
    epoch; a live process that fails enough ``/healthz`` probes to open
    its breaker is presumed wedged, killed, and respawned the same way.
    The per-shard breakers are *shared* with the router: proxy failures
    and probe failures count against the same threshold, and a breaker
    that opens both stops the router hammering the port and triggers the
    monitor's replacement path.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        wal_root: str | Path,
        host: str = "127.0.0.1",
        worker_ports: list[int] | None = None,
        replicas: int = 64,
        standby_replicas: int = 0,
        cache_bytes: int = 64 * 1024 * 1024,
        max_workers: int = 4,
        query_deadline_ms: float | None = None,
        admission_limit: int | None = None,
        breaker_failures: int = 3,
        breaker_reset_s: float = 30.0,
        chaos_ingest_ms: float = 0.0,
        trace: bool = False,
        probe_interval_s: float = 0.5,
        probe_timeout_s: float = 2.0,
        probe_failures: int = 2,
        probe_reset_s: float = 2.0,
        ready_timeout_s: float = 60.0,
        max_respawns: int = 20,
        retry_after_hint_s: float = 3.0,
        respawn_backoff_base_s: float = 0.5,
        respawn_backoff_cap_s: float = 30.0,
        backoff_stability_s: float = 5.0,
        backoff_seed: int = 0,
        follow_poll_s: float = 0.05,
        robustness_file: str | None = None,
        verbose: bool = False,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if standby_replicas not in (0, 1):
            raise ValueError(
                f"standby_replicas must be 0 or 1, got {standby_replicas}"
            )
        if worker_ports is not None and len(worker_ports) != n_shards:
            raise ValueError(
                f"worker_ports has {len(worker_ports)} entries "
                f"for {n_shards} shards"
            )
        # spawn, not fork: the supervisor runs threads (monitor, router
        # handlers) and a forked child inheriting their locked locks
        # mid-operation can deadlock before it ever reaches exec.
        self._ctx = multiprocessing.get_context("spawn")
        self.ring = HashRing(range(n_shards), replicas=replicas)
        self.ring_epoch = 0
        self.standby_replicas = standby_replicas
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.ready_timeout_s = ready_timeout_s
        self.max_respawns = max_respawns
        self.retry_after_hint_s = retry_after_hint_s
        self.follow_poll_s = follow_poll_s
        self.robustness_file = resolve_robustness_file(robustness_file)
        self.verbose = verbose
        self._wal_root = Path(wal_root)
        self._host = host
        self._spec_defaults = dict(
            cache_bytes=cache_bytes,
            max_workers=max_workers,
            query_deadline_ms=query_deadline_ms,
            admission_limit=admission_limit,
            breaker_failures=breaker_failures,
            breaker_reset_s=breaker_reset_s,
            chaos_ingest_ms=chaos_ingest_ms,
            trace=trace,
            robustness_file=self.robustness_file,
            verbose=verbose,
        )
        self._probe_failures = probe_failures
        self._probe_reset_s = probe_reset_s
        self._backoff_base_s = respawn_backoff_base_s
        self._backoff_cap_s = respawn_backoff_cap_s
        self.backoff_stability_s = backoff_stability_s
        self._backoff_seed = backoff_seed
        self.specs: dict[int, WorkerSpec] = {}
        for shard in range(n_shards):
            port = (
                worker_ports[shard]
                if worker_ports is not None
                else _free_port(host)
            )
            self.specs[shard] = self._make_spec(
                shard, port, str(self._wal_root / f"shard-{shard}")
            )
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        self._backoffs: dict[int, Backoff] = {}
        self._respawned_at: dict[int, float] = {}
        self.respawns: dict[int, int] = {}
        for shard in self.specs:
            self._init_shard_state(shard)
        # Standby bookkeeping: spec + proc per shard, and a generation
        # counter so each standby incarnation gets a fresh WAL directory
        # (a promoted standby keeps its own; its replacement must not
        # inherit it).
        self._standby_specs: dict[int, WorkerSpec] = {}
        self._standby_procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._standby_backoffs: dict[int, Backoff] = {}
        self._standby_generation: dict[int, int] = {}
        self._standby_spawned_at: dict[int, float] = {}
        self.promotions: dict[int, int] = {shard: 0 for shard in self.specs}
        # Online-rebalance state: one resize at a time; while one is in
        # flight, _pending_ring drives dual-writes (router asks
        # dual_target per key) and _rebalance is what /cluster reports.
        self._resize_lock = threading.Lock()
        self._pending_ring: HashRing | None = None
        self._rebalance: dict | None = None
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._monitor: threading.Thread | None = None

    def _make_spec(
        self,
        shard: int,
        port: int,
        wal_dir: str,
        *,
        follow: tuple[str, int, str] | None = None,
    ) -> WorkerSpec:
        return WorkerSpec(
            shard=shard,
            host=self._host,
            port=port,
            wal_dir=wal_dir,
            ring_epoch=self.ring_epoch,
            follow=follow,
            follow_poll_s=self.follow_poll_s,
            **self._spec_defaults,
        )

    def _init_shard_state(self, shard: int) -> None:
        self._breakers[shard] = CircuitBreaker(
            self._probe_failures, self._probe_reset_s
        )
        self._backoffs[shard] = Backoff(
            self._backoff_base_s,
            self._backoff_cap_s,
            seed=self._backoff_seed + shard,
        )
        self.respawns[shard] = 0

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "ClusterSupervisor":
        """Spawn every worker, wait for readiness, start the monitor."""
        for shard in self.specs:
            self._procs[shard] = self._spawn(shard)
        deadline = time.monotonic() + self.ready_timeout_s
        for shard in self.specs:
            self._wait_ready(shard, deadline)
        if self.standby_replicas:
            for shard in list(self.specs):
                self._spawn_standby(shard)
            deadline = time.monotonic() + self.ready_timeout_s
            for shard in list(self._standby_specs):
                self._wait_standby_ready(shard, deadline)
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            daemon=True,
            name="repro-cluster-monitor",
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Terminate the monitor and every worker; idempotent."""
        self._stop.set()
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
        procs = list(self._procs.values()) + list(self._standby_procs.values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck-worker backstop
                proc.kill()
                proc.join(timeout=5)

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _spawn(self, shard: int):
        # Respawns inherit the *current* ring epoch, not the boot one —
        # a worker reborn mid-rebalance must come up already fenced.
        self.specs[shard] = dataclasses.replace(
            self.specs[shard], ring_epoch=self.ring_epoch
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.specs[shard],),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        return proc

    def _wait_ready(self, shard: int, deadline: float) -> None:
        spec = self.specs[shard]
        while True:
            proc = self._procs[shard]
            if not proc.is_alive() and proc.exitcode is not None:
                raise RuntimeError(
                    f"shard {shard} died during startup "
                    f"(exit code {proc.exitcode})"
                )
            if self._probe(shard):
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"shard {shard} not ready on "
                    f"{spec.host}:{spec.port} within {self.ready_timeout_s}s"
                )
            time.sleep(0.05)

    # ----------------------------------------------------------- standbys

    def _spawn_standby(self, shard: int) -> None:
        """Start a fresh warm standby tailing ``shard``'s primary."""
        primary = self.specs[shard]
        generation = self._standby_generation.get(shard, 0) + 1
        self._standby_generation[shard] = generation
        spec = self._make_spec(
            shard,
            _free_port(self._host),
            str(self._wal_root / f"shard-{shard}-standby-g{generation}"),
            follow=(primary.host, primary.port, primary.wal_dir),
        )
        self._standby_specs[shard] = spec
        self._standby_spawned_at[shard] = time.monotonic()
        self._standby_backoffs.setdefault(
            shard,
            Backoff(
                self._backoff_base_s,
                self._backoff_cap_s,
                seed=self._backoff_seed + 10_000 + shard,
            ),
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec,),
            name=f"repro-shard-{shard}-standby",
            daemon=True,
        )
        proc.start()
        self._standby_procs[shard] = proc

    def _wait_standby_ready(self, shard: int, deadline: float) -> None:
        spec = self._standby_specs[shard]
        while True:
            if self._probe_addr(spec.host, spec.port):
                return
            proc = self._standby_procs[shard]
            if not proc.is_alive() and proc.exitcode is not None:
                raise RuntimeError(
                    f"standby for shard {shard} died during startup "
                    f"(exit code {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"standby for shard {shard} not ready on "
                    f"{spec.host}:{spec.port} within {self.ready_timeout_s}s"
                )
            time.sleep(0.05)

    def _try_promote(self, shard: int, *, reason: str) -> bool:
        """Promote ``shard``'s standby to primary; ``False`` → cold respawn.

        On success the standby's address *becomes* the shard's address
        (the router routes by spec, not pid), its final catch-up drains
        straight from the dead primary's WAL file, and a replacement
        standby is spawned behind the new primary.
        """
        spec = self._standby_specs.get(shard)
        proc = self._standby_procs.get(shard)
        if spec is None or proc is None or not proc.is_alive():
            return False
        old_primary = self.specs[shard]
        try:
            status, body = _control(
                spec,
                "promote",
                {"primary_wal_dir": old_primary.wal_dir},
                max(self.probe_timeout_s * 5, 10.0),
            )
        except (OSError, HTTPException, ValueError):
            return False
        if status != 200:
            if self.verbose:
                print(
                    f"[cluster] standby for shard {shard} refused promotion "
                    f"({status}: {body.get('error')}); falling back to respawn",
                    flush=True,
                )
            return False
        self.promotions[shard] += 1
        del self._standby_specs[shard]
        del self._standby_procs[shard]
        # The promoted worker sheds its follow role and is the shard now.
        self.specs[shard] = dataclasses.replace(
            spec, follow=None, ring_epoch=self.ring_epoch
        )
        self._procs[shard] = proc
        self._breakers[shard].record_success()
        self._backoffs[shard].reset()
        if self.verbose:
            print(
                f"[cluster] promoted standby to shard {shard} ({reason}; "
                f"caught up {body.get('drained', 0)} record(s) from the "
                "primary's WAL file)",
                flush=True,
            )
        if self.standby_replicas and not self._stop.is_set():
            # New warm standby behind the promoted primary; the monitor
            # confirms its readiness on later ticks.
            self._spawn_standby(shard)
        return True

    # ---------------------------------------------------------- monitoring

    def _probe_addr(self, host: str, port: int) -> bool:
        try:
            status, _, _ = http_request(
                host, port, "GET", "/healthz", timeout_s=self.probe_timeout_s
            )
        except (OSError, HTTPException):
            return False
        return status == 200

    def _probe(self, shard: int) -> bool:
        spec = self.specs[shard]
        return self._probe_addr(spec.host, spec.port)

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.probe_interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            for shard in list(self.specs):
                if self._stop.is_set():
                    return
                proc = self._procs.get(shard)
                if proc is None:
                    continue  # retired mid-iteration by a resize
                if not proc.is_alive():
                    reason = f"process exited ({proc.exitcode})"
                    if not self._try_promote(shard, reason=reason):
                        self._respawn(shard, reason=reason)
                    continue
                breaker = self._breakers[shard]
                if not breaker.allow():
                    continue  # open, not yet probe time: skip this tick
                if self._probe(shard):
                    breaker.record_success()
                    self._maybe_reset_backoff(shard)
                else:
                    breaker.record_failure()
                    if breaker.state == CircuitBreaker.OPEN:
                        # Alive but failing probes past the threshold:
                        # wedged.  Replace it like a death.
                        proc.kill()
                        proc.join(timeout=10)
                        reason = "unresponsive (breaker open)"
                        if not self._try_promote(shard, reason=reason):
                            self._respawn(shard, reason=reason)
            for shard in list(self._standby_specs):
                if self._stop.is_set():
                    return
                proc = self._standby_procs.get(shard)
                if proc is None:
                    continue
                backoff = self._standby_backoffs[shard]
                if proc.is_alive():
                    spawned_at = self._standby_spawned_at.get(shard, 0.0)
                    if (
                        backoff.attempts
                        and time.monotonic() - spawned_at
                        >= self.backoff_stability_s
                    ):
                        backoff.reset()
                elif backoff.ready():
                    backoff.record_failure()
                    if self.verbose:
                        print(
                            f"[cluster] respawning standby for shard "
                            f"{shard} (exit {proc.exitcode})",
                            flush=True,
                        )
                    self._spawn_standby(shard)

    def _maybe_reset_backoff(self, shard: int) -> None:
        backoff = self._backoffs[shard]
        if backoff.attempts == 0:
            return
        respawned_at = self._respawned_at.get(shard)
        if (
            respawned_at is None
            or time.monotonic() - respawned_at >= self.backoff_stability_s
        ):
            backoff.reset()

    def _respawn(self, shard: int, *, reason: str) -> None:
        if self._stop.is_set():
            return
        if self.respawns[shard] >= self.max_respawns:
            return  # crash loop: leave it down, the router serves 503s
        backoff = self._backoffs[shard]
        if not backoff.ready():
            return  # crash-looping: the armed delay gates this tick
        self.respawns[shard] += 1
        # Arm the delay before the *next* attempt now; a healthy worker
        # resets it after backoff_stability_s of good probes, so only a
        # true crash loop ever waits the exponential schedule out.
        backoff.record_failure()
        self._respawned_at[shard] = time.monotonic()
        if self.verbose:
            print(
                f"[cluster] respawning shard {shard} "
                f"({reason}; attempt {self.respawns[shard]})",
                flush=True,
            )
        self._procs[shard] = self._spawn(shard)
        try:
            self._wait_ready(shard, time.monotonic() + self.ready_timeout_s)
        except (RuntimeError, TimeoutError):
            # Died again before becoming ready; the next tick retries.
            self._breakers[shard].record_failure()
            return
        self._breakers[shard].record_success()

    # ------------------------------------------------- topology interface

    def address(self, shard) -> tuple[str, int]:
        spec = self.specs[shard]
        return (spec.host, spec.port)

    def breaker(self, shard) -> CircuitBreaker:
        return self._breakers[shard]

    def notify_failure(self, shard) -> None:
        """Router hint: a proxy to ``shard`` just failed — probe now."""
        self._wake.set()

    def retry_after_s(self, shard) -> float:
        return self.retry_after_hint_s

    def dual_target(self, key: str):
        """The shard a write must *also* land on during a rebalance.

        ``None`` outside a handoff window, or when the pending ring
        agrees with the live one for ``key``.  Computed live against the
        pending ring (not the precomputed move set) so runs *created
        during* the window are dual-written too — otherwise a run minted
        mid-rebalance could become unreachable after the epoch flip.
        """
        pending = self._pending_ring
        if pending is None:
            return None
        dest = pending.shard_for(key)
        if dest == self.ring.shard_for(key):
            return None
        return dest

    def describe(self) -> dict:
        shards = {}
        for shard, spec in self.specs.items():
            proc = self._procs.get(shard)
            entry = {
                "address": [spec.host, spec.port],
                "wal_dir": spec.wal_dir,
                "pid": proc.pid if proc is not None else None,
                "alive": proc.is_alive() if proc is not None else False,
                "breaker": self._breakers[shard].stats(),
                "respawns": self.respawns[shard],
                "respawn_backoff_s": round(
                    self._backoffs[shard].remaining_s(), 3
                ),
                "promotions": self.promotions.get(shard, 0),
            }
            standby_spec = self._standby_specs.get(shard)
            if standby_spec is not None:
                standby_proc = self._standby_procs.get(shard)
                entry["standby"] = {
                    "address": [standby_spec.host, standby_spec.port],
                    "wal_dir": standby_spec.wal_dir,
                    "pid": standby_proc.pid if standby_proc is not None else None,
                    "alive": (
                        standby_proc.is_alive()
                        if standby_proc is not None
                        else False
                    ),
                    "generation": self._standby_generation.get(shard, 0),
                }
            shards[str(shard)] = entry
        rebalance = self._rebalance
        return {
            "replicas": self.ring.replicas,
            "supervised": True,
            "ring_epoch": self.ring_epoch,
            "standby_replicas": self.standby_replicas,
            "rebalance": dict(rebalance) if rebalance is not None else None,
            "shards": shards,
        }

    # ------------------------------------------------------------ rebalance

    def resize(self, n_target: int) -> dict:
        """Online-resize the cluster to ``n_target`` shards; zero downtime.

        The protocol (one resize at a time; a concurrent call gets a
        typed 409):

        1. **Grow**: spawn the added shards (and their standbys) and
           wait until they answer ``/healthz`` — the live ring is
           untouched, so traffic is unaffected.
        2. **Plan**: collect every registered run id from the current
           owners' WAL *files* (death-proof: a SIGKILLed source's runs
           still move) and compute the exact move set with
           :meth:`HashRing.plan_resize`.
        3. **Dual-write window**: the router starts copying every
           accepted write whose key moves (computed live against the
           pending ring) to its future owner as well.
        4. **Migrate**: ship each moving run's WAL subset (register +
           ingests, checksummed frames) to its new owner via
           ``/control/adopt`` — idempotent and digest-verified, with
           retries riding out a worker death mid-migration.
        5. **Flip**: swap the live ring, bump ``ring_epoch``, broadcast
           it to every worker (stale-epoch writes now 409), close the
           dual-write window.
        6. **Shrink**: terminate shards no longer on the ring.
        """
        if n_target <= 0:
            raise ValueError(f"shard count must be positive, got {n_target}")
        if not self._resize_lock.acquire(blocking=False):
            raise ApiError(409, "a rebalance is already in progress")
        try:
            return self._resize_locked(n_target)
        finally:
            self._pending_ring = None
            self._rebalance = None
            self._resize_lock.release()

    def _resize_locked(self, n_target: int) -> dict:
        current = sorted(self.specs)
        n_current = len(current)
        if n_target == n_current:
            return {
                "ring_epoch": self.ring_epoch,
                "from": n_current,
                "to": n_target,
                "moved": 0,
                "runs_moved": [],
            }
        added = [s for s in range(n_target) if s not in self.specs]
        removed = [s for s in current if s >= n_target]
        self._rebalance = {
            "phase": "spawning",
            "from": n_current,
            "to": n_target,
            "moved": 0,
            "total": None,
        }
        for shard in added:
            self.specs[shard] = self._make_spec(
                shard,
                _free_port(self._host),
                str(self._wal_root / f"shard-{shard}"),
            )
            self._init_shard_state(shard)
            self.promotions.setdefault(shard, 0)
            self._procs[shard] = self._spawn(shard)
        deadline = time.monotonic() + self.ready_timeout_s
        for shard in added:
            self._wait_ready(shard, deadline)
        if self.standby_replicas:
            for shard in added:
                self._spawn_standby(shard)
        # Open the dual-write window *before* scanning for keys: a run
        # registered concurrently is then either in the scan (and gets
        # migrated) or was dual-written to its future owner already —
        # opening after the scan would leave a gap where it is neither.
        self._pending_ring = HashRing(
            range(n_target), replicas=self.ring.replicas
        )
        keys: list[str] = []
        for shard in current:
            entries, _, _ = scan_wal(
                Path(self.specs[shard].wal_dir) / WriteAheadLog.FILENAME
            )
            keys.extend(
                str(entry.payload["run_id"])
                for entry in entries
                if entry.kind == REGISTER and entry.payload.get("run_id")
            )
        plan = self.ring.plan_resize(range(n_target), keys)
        # Only ship runs whose *current ring owner* is the scan source —
        # a run that migrated in an earlier resize still sits in its old
        # owner's WAL file, but the ring no longer maps it there.
        self._rebalance.update(phase="migrating", total=len(plan.moves))
        try:
            for key in sorted(plan.moves):
                source, dest = plan.moves[key]
                self._migrate_run(key, source, dest)
                self._rebalance["moved"] += 1
            # Flip order matters: new ring first (reads route to owners
            # that now hold the data), then the epoch fence, and only
            # then the dual-write window closes — a write routed by the
            # old ring in flight during the flip either lands before the
            # fence (dual-written, so both owners have it) or answers a
            # typed 409 the router retries against the fresh ring.
            self.ring = plan.new_ring
            self.ring_epoch += 1
            self._broadcast_epoch()
        finally:
            self._pending_ring = None
        self._rebalance["phase"] = "retiring"
        for shard in removed:
            self._retire(shard)
        if self.verbose:
            print(
                f"[cluster] resized {n_current} -> {n_target} shards "
                f"(epoch {self.ring_epoch}, {len(plan.moves)} run(s) moved)",
                flush=True,
            )
        return {
            "ring_epoch": self.ring_epoch,
            "from": n_current,
            "to": n_target,
            "moved": len(plan.moves),
            "runs_moved": sorted(plan.moves),
        }

    def _migrate_run(self, run_id: str, source: int, dest: int) -> None:
        """Ship one run's WAL subset from ``source``'s file to ``dest``.

        Reads the *file*, not the process — a SIGKILLed source mid-
        rebalance doesn't lose the move; and retries the adopt POST
        while the monitor thread recovers whichever side died (the
        applier's idempotence makes re-shipping free).
        """
        deadline = time.monotonic() + self.ready_timeout_s
        attempt = 0
        last_error: str = "never attempted"
        while True:
            source_wal = Path(self.specs[source].wal_dir) / WriteAheadLog.FILENAME
            entries, _, _ = scan_wal(source_wal)
            frames = [
                entry.frame()
                for entry in entries
                if str(entry.payload.get("run_id")) == run_id
            ]
            try:
                status, body = _control(
                    self.specs[dest],
                    "adopt",
                    {"frames": frames},
                    self.ready_timeout_s,
                )
            except (OSError, HTTPException, ValueError) as exc:
                status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
            if status == 200:
                return
            if status == 409:
                # Digest divergence: retrying cannot fix it.
                raise RuntimeError(
                    f"shard {dest} rejected run {run_id!r}: {body.get('error')}"
                )
            last_error = f"{status}: {body.get('error')}"
            attempt += 1
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"could not ship run {run_id!r} from shard {source} to "
                    f"shard {dest} within {self.ready_timeout_s}s "
                    f"(last error {last_error})"
                )
            self._wake.set()  # nudge the monitor at whichever side died
            time.sleep(min(2.0, 0.2 * attempt))

    def _broadcast_epoch(self) -> None:
        for shard, spec in list(self.specs.items()):
            try:
                _control(
                    spec, "epoch", {"ring_epoch": self.ring_epoch},
                    self.probe_timeout_s,
                )
            except (OSError, HTTPException, ValueError):
                # Unreachable now → it is either dead (a respawn inherits
                # the epoch through its spec) or about to be retired.
                pass

    def _retire(self, shard: int) -> None:
        """Stop a shard removed from the ring (its WAL dir is left on disk)."""
        standby = self._standby_procs.pop(shard, None)
        self._standby_specs.pop(shard, None)
        self._standby_backoffs.pop(shard, None)
        self._standby_spawned_at.pop(shard, None)
        proc = self._procs.pop(shard, None)
        self.specs.pop(shard, None)
        self._breakers.pop(shard, None)
        self._backoffs.pop(shard, None)
        self.respawns.pop(shard, None)
        self._respawned_at.pop(shard, None)
        for victim in (proc, standby):
            if victim is not None and victim.is_alive():
                victim.terminate()
        for victim in (proc, standby):
            if victim is not None:
                victim.join(timeout=10)
                if victim.is_alive():  # pragma: no cover - backstop
                    victim.kill()
                    victim.join(timeout=5)


# ---------------------------------------------------------------------- router


class _ProxyResult(RawResponse):
    """A worker response relayed verbatim: status, body, select headers."""

    __slots__ = ("status",)

    def __init__(
        self, status: int, body: bytes, content_type: str, headers: dict
    ) -> None:
        super().__init__(body, content_type, headers)
        self.status = status


# Response headers the router relays from a worker: the resilience
# contract's retry hint, the 405 contract's method list, and the epoch
# a fencing 409 carries.
_RELAYED_HEADERS = ("Retry-After", "Allow", "X-Repro-Ring-Epoch")

# Auto-minted run ids (`{kind}-c{n}`): the seed scan after a router
# restart parses these out of the shards' /runs so the counter resumes
# past every id any previous router handed out.
_AUTO_ID_RE = re.compile(r"^(?:hfl|vfl)-c(\d+)$")


class _RouterHandler(RequestCore):
    """Maps ``run_id → shard`` on the ring and proxies; aggregates the rest."""

    server_version = "repro-serve-router/1.0"
    span_name = "router.request"
    routes = ROUTER_ROUTES

    @property
    def topology(self):
        return self.server.topology  # type: ignore[attr-defined]

    # ------------------------------------------------- request core hooks

    def _dispatch(self) -> None:
        # The in-flight gauge spans the whole answer, its write included:
        # a drain waits on it before the router stops.
        in_flight = self.server.in_flight  # type: ignore[attr-defined]
        in_flight.inc()
        try:
            super()._dispatch()
        finally:
            in_flight.dec()

    def _route(self, template, parts, query):
        # Graceful drain: once begin_drain() fires, refuse new work with a
        # typed 503 + Retry-After (health checks still answer, so
        # orchestrators see the drain, not an outage) while requests
        # already routed run to completion.
        server = self.server
        if server.draining and template != "/healthz":  # type: ignore[attr-defined]
            raise ApiError(
                503,
                "router is draining; not accepting new requests",
                headers={
                    "Retry-After": str(max(1, int(server.drain_retry_after_s)))  # type: ignore[attr-defined]
                },
            )
        return super()._route(template, parts, query)

    def _error_response(self, exc: Exception) -> tuple[dict, int, dict]:
        if isinstance(exc, (ShardUnavailable, ShardTimeout)):
            # Counted where the failure reaches the client: a fan-out that
            # degrades around a down shard is not a proxy error.
            self.server.obs.registry.counter(  # type: ignore[attr-defined]
                "repro_router_proxy_errors_total",
                help="proxy attempts ending in a typed failure",
                labels={"kind": exc.kind},
            ).inc()
        return super()._error_response(exc)

    # ------------------------------------------------------------- proxying

    def _proxy_raw(
        self,
        shard,
        method: str,
        path: str,
        body: bytes | None = None,
        extra_headers: dict | None = None,
    ) -> _ProxyResult:
        """One request to ``shard``, through its breaker, typed on failure.

        Failure mapping — the router-side half of the ladder:

        * breaker open → :class:`ShardUnavailable` (503) with no network
          attempt at all;
        * connection refused / reset / protocol garbage →
          ``record_failure`` + :class:`ShardUnavailable` (503);
        * read overrunning ``proxy_timeout_s`` → ``record_failure`` +
          :class:`ShardTimeout` (504).

        Whatever status a *reachable* worker answers — including its own
        429/503/504 — relays verbatim: the worker's refusals are typed
        already, and re-wrapping them would lose the Retry-After math.
        """
        topology = self.topology
        breaker = topology.breaker(shard)
        if not breaker.allow():
            raise ShardUnavailable(
                shard, "circuit breaker open", topology.retry_after_s(shard)
            )
        host, port = topology.address(shard)
        headers = dict(
            context_headers(self.server.obs.tracer.current_context())  # type: ignore[attr-defined]
        )
        if extra_headers:
            headers.update(extra_headers)
        timeout_s = self.server.proxy_timeout_s  # type: ignore[attr-defined]
        try:
            status, response_headers, data = http_request(
                host, port, method, path,
                timeout_s=timeout_s, body=body, headers=headers,
            )
        except TimeoutError:
            breaker.record_failure()
            topology.notify_failure(shard)
            raise ShardTimeout(shard, timeout_s) from None
        except (OSError, HTTPException) as exc:
            breaker.record_failure()
            topology.notify_failure(shard)
            raise ShardUnavailable(
                shard,
                f"{type(exc).__name__}: {exc}",
                topology.retry_after_s(shard),
            ) from None
        breaker.record_success()
        relayed = {
            name: response_headers[name]
            for name in _RELAYED_HEADERS
            if response_headers.get(name) is not None
        }
        return _ProxyResult(
            status,
            data,
            response_headers.get("Content-Type", "application/json"),
            relayed,
        )

    def _proxy_json(self, shard, path: str) -> dict:
        """GET ``path`` on ``shard`` and decode; worker errors re-raise typed."""
        result = self._proxy_raw(shard, "GET", path)
        payload = json.loads(result.body)
        if result.status >= 400:
            raise ApiError(
                result.status,
                payload.get("error", f"shard {shard} answered {result.status}"),
                headers=result.headers,
            )
        return payload

    def _sorted_shards(self) -> list:
        return sorted(self.topology.ring.shards, key=str)

    # --------------------------------------------------------------- routes

    def _get_run(self, parts, query):
        result = self._proxy_raw(
            self.topology.ring.shard_for(parts[1]), "GET", self.path
        )
        return result, result.status

    def _get_cluster(self, parts, query):
        info = self.topology.describe()
        key = query_param(query, "key")
        if key is not None:
            info["key"] = key
            info["shard"] = str(self.topology.ring.shard_for(key))
        return info, 200

    def _post_runs(self, parts, query):
        spec = read_json_body(self)
        # The ring routes on run_id, so one must exist *before* the
        # worker is chosen: the router mints ids the worker would have.
        run_id = spec.get("run_id")
        minted = run_id is None or run_id == ""
        if minted:
            kind = spec.get("kind")
            if kind not in ("hfl", "vfl"):
                raise ApiError(400, "kind must be 'hfl' or 'vfl'")
            run_id = f"{kind}-c{self.server.next_auto_id()}"  # type: ignore[attr-defined]
            spec["run_id"] = run_id
        for attempt in range(3):
            result = self._proxy_write("/runs", spec)
            if (
                result.status == 409
                and "X-Repro-Ring-Epoch" in result.headers
                and attempt == 0
            ):
                # The worker is fenced at a newer ring epoch than the one
                # this write was stamped with: a rebalance flipped the
                # ring mid-flight.  Re-resolve against the (now fresh)
                # ring and retry once — the fence exists exactly so this
                # race is a retry, not a misplaced write.
                continue
            if (
                minted
                and result.status == 400
                and b"already registered" in result.body
            ):
                # A previous router (or a raced sibling) already handed
                # this id out; mint the next one and retry.  Bounded:
                # the seed scan makes collisions a one-off, not a walk.
                run_id = f"{spec['kind']}-c{self.server.next_auto_id()}"  # type: ignore[attr-defined]
                spec["run_id"] = run_id
                continue
            break
        return result, result.status

    def _proxy_write(self, path: str, spec: dict) -> _ProxyResult:
        """One routed write: epoch-stamped, dual-written during rebalance."""
        topology = self.topology
        run_id = str(spec["run_id"])
        shard = topology.ring.shard_for(run_id)
        epoch_stamp = {"X-Repro-Ring-Epoch": str(topology.ring_epoch)}
        body = json.dumps(spec).encode()
        result = self._proxy_raw(
            shard, "POST", path, body=body, extra_headers=epoch_stamp
        )
        if result.status < 400:
            dual = topology.dual_target(run_id)
            if dual is not None and dual != shard:
                # Handoff window: the key's future owner gets a copy so
                # the epoch flip never strands an accepted write.  A
                # failed copy is counted, not fatal — the migration pass
                # re-ships the run's WAL subset anyway.
                try:
                    self._proxy_raw(
                        dual, "POST", path, body=body, extra_headers=epoch_stamp
                    )
                except (ShardUnavailable, ShardTimeout):
                    self.server.obs.registry.counter(  # type: ignore[attr-defined]
                        "repro_router_dual_write_failures_total",
                        help="rebalance dual-writes that could not reach "
                        "the future owner",
                    ).inc()
        return result

    def _post_resize(self, parts, query):
        body = read_json_body(self)
        shards = body.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards <= 0:
            raise ApiError(400, "body must carry a positive integer 'shards'")
        resize = getattr(self.topology, "resize", None)
        if resize is None:
            raise ApiError(
                400, "this topology is static and cannot be resized"
            )
        return resize(shards), 200

    # --------------------------------------------------------- aggregation

    def _get_healthz(self, parts, query):
        shards: dict = {}
        down: list[str] = []
        status = "ok"
        for shard in self._sorted_shards():
            try:
                payload = self._proxy_json(shard, "/healthz")
            except (ShardUnavailable, ShardTimeout) as exc:
                shards[str(shard)] = {"status": "down", "error": str(exc)}
                down.append(str(shard))
                status = "degraded"
                continue
            shards[str(shard)] = payload
            if payload.get("status") != "ok":
                status = "degraded"
        return {
            "status": status,
            "workers": len(shards),
            "down": down,
            "shards": shards,
        }, 200

    def _get_runs(self, parts, query):
        collected: list[tuple[object, dict]] = []
        unavailable: list[dict] = []
        for shard in self._sorted_shards():
            try:
                payload = self._proxy_json(shard, "/runs")
            except (ShardUnavailable, ShardTimeout) as exc:
                unavailable.append({"shard": str(shard), "error": str(exc)})
                continue
            for run in payload.get("runs", []):
                run["shard"] = str(shard)
                collected.append((shard, run))
        # A rebalance leaves the moved run's WAL (and registry entry) on
        # its old owner too; the ring decides which copy is canonical.
        # Runs registered out-of-band (no ring owner among the queried
        # shards) stay visible as long as no owned copy shadows them.
        owned: dict = {}
        extras: list[dict] = []
        for shard, run in collected:
            run_id = run.get("run_id")
            if run_id is not None and str(
                self.topology.ring.shard_for(str(run_id))
            ) == str(shard):
                owned[run_id] = run
            else:
                extras.append(run)
        runs = list(owned.values()) + [
            run for run in extras if run.get("run_id") not in owned
        ]
        return {"runs": runs, "unavailable": unavailable}, 200

    def _get_statusz(self, parts, query):
        """Fleet ``/statusz``: the router's own verdicts plus every worker's.

        The router's SLO engine judges end-to-end traffic (what clients
        actually experienced, sheds and proxy failures included); each
        worker's payload rides along under ``"workers"`` so one scrape
        shows which shard is burning.  Down shards are reported, not
        fatal — a status check during failover still answers.
        """
        server = self.server
        payload = server.telemetry.status()  # type: ignore[attr-defined]
        workers: dict = {}
        down: list[str] = []
        for shard in self._sorted_shards():
            try:
                workers[str(shard)] = self._proxy_json(shard, "/statusz")
            except (ShardUnavailable, ShardTimeout, ApiError) as exc:
                workers[str(shard)] = {"status": "down", "error": str(exc)}
                down.append(str(shard))
        # A down shard does not flip the verdict by itself: the router's
        # own SLO engine already books every failed proxy as a bad
        # request, so sustained damage burns availability the honest way.
        payload.update(
            {
                "workers": workers,
                "shards_down": down,
                "topology": self.topology.describe(),
                "robustness_file": server.robustness_file,  # type: ignore[attr-defined]
            }
        )
        return payload, 200

    def _get_metricz(self, parts, query):
        fmt = query_param(query, "format", "json")
        if fmt == "prometheus":
            return self._merged_prometheus(), 200
        if fmt != "json":
            raise ApiError(
                400, f"format must be 'json' or 'prometheus', got {fmt!r}"
            )
        workers: dict = {}
        for shard in self._sorted_shards():
            try:
                workers[str(shard)] = self._proxy_json(shard, "/metricz")
            except (ShardUnavailable, ShardTimeout) as exc:
                workers[str(shard)] = {"status": "down", "error": str(exc)}
        return {
            "router": {
                "latency": {
                    "http": self.server.request_latency.summary()  # type: ignore[attr-defined]
                },
            },
            "workers": workers,
            "topology": self.topology.describe(),
        }, 200

    def _merged_prometheus(self) -> RawResponse:
        """One Prometheus page for the whole cluster.

        Every worker's registry snapshot folds into a fresh registry via
        :meth:`~repro.obs.registry.MetricsRegistry.merge` under a
        ``worker="<shard>"`` label; the router's own registry merges
        under ``worker="router"``.  Unreachable workers are counted, not
        fatal — a scrape during failover still renders.
        """
        merged = MetricsRegistry()
        merged.merge(
            self.server.obs.registry.snapshot(),  # type: ignore[attr-defined]
            labels={"worker": "router"},
        )
        shards = self._sorted_shards()
        down = 0
        for shard in shards:
            try:
                payload = self._proxy_json(shard, "/metricz?format=snapshot")
            except (ShardUnavailable, ShardTimeout):
                down += 1
                continue
            merged.merge(payload["snapshot"], labels={"worker": str(shard)})
        merged.gauge(
            "repro_cluster_shards", help="shards on the hash ring"
        ).set(len(shards))
        merged.gauge(
            "repro_cluster_shards_down",
            help="shards unreachable at scrape time",
        ).set(down)
        return RawResponse(
            merged.render_prometheus(), PROMETHEUS_CONTENT_TYPE
        )


class ClusterRouter(FrontDoor):
    """The cluster's front door: one port, N shard workers behind it.

    Its SLO engine judges end-to-end traffic — what clients experienced,
    proxy failures and sheds included — independent of each worker's
    view; ``GET /statusz`` merges both.
    """

    latency_metric = "repro_router_request_latency_seconds"
    latency_help = "router wall time, routing through response write"

    def __init__(
        self,
        address: tuple[str, int],
        topology,
        *,
        obs: Observability | None = None,
        proxy_timeout_s: float = 30.0,
        slos=None,
        robustness_file: str | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(
            address,
            _RouterHandler,
            obs if obs is not None else Observability(),
            slos=slos,
            robustness_file=robustness_file,
            verbose=verbose,
        )
        self.topology = topology
        self.proxy_timeout_s = proxy_timeout_s
        self.in_flight = Gauge()
        self.obs.registry.register(
            "repro_router_requests_in_flight",
            self.in_flight,
            help="requests admitted and not yet answered",
            exist_ok=True,
        )
        self.drain_retry_after_s = 5.0
        self._draining = threading.Event()
        self._auto_lock = threading.Lock()
        self._auto_seeded = False
        self._auto_ids = itertools.count(1)

    # -- collision-safe run-id minting ---------------------------------

    def next_auto_id(self) -> int:
        """Mint the next ``{kind}-cN`` counter value.

        The counter is seeded lazily from the shards' ``/runs`` listings
        so a router restarted over a populated cluster does not re-mint
        ``hfl-c1``.  Seeding failures fall back to 1 — the handler's
        ``already registered`` retry loop then walks past collisions.
        """
        if not self._auto_seeded:
            self._seed_auto_ids()
        return next(self._auto_ids)

    def _seed_auto_ids(self) -> None:
        with self._auto_lock:
            if self._auto_seeded:
                return
            highest = 0
            for shard in self.topology.ring.shards:
                try:
                    host, port = self.topology.address(shard)
                    status, _, body = http_request(
                        host, port, "GET", "/runs", timeout_s=self.proxy_timeout_s
                    )
                    payload = json.loads(body)
                except (OSError, HTTPException, ValueError):
                    continue
                if status != 200:
                    continue
                for run in payload.get("runs", []):
                    match = _AUTO_ID_RE.match(str(run.get("run_id", "")))
                    if match:
                        highest = max(highest, int(match.group(1)))
            self._auto_ids = itertools.count(highest + 1)
            self._auto_seeded = True

    # -- graceful drain ------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones keep running."""
        self._draining.set()

    def await_drained(self, timeout_s: float) -> bool:
        """Wait for in-flight requests to finish; True when they did."""
        deadline = time.monotonic() + timeout_s
        while self.in_flight.value > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True


def serve_cluster(
    host: str = "127.0.0.1",
    router_port: int = 8733,
    n_shards: int = 3,
    *,
    wal_root: str | None = None,
    standby_replicas: int = 0,
    drain_deadline_s: float = 10.0,
    cache_bytes: int = 64 * 1024 * 1024,
    max_workers: int = 4,
    query_deadline_ms: float | None = None,
    admission_limit: int | None = None,
    chaos_ingest_ms: float = 0.0,
    trace: bool = False,
    robustness_file: str | None = None,
    verbose: bool = True,
) -> int:
    """Run a sharded cluster until interrupted; ``repro serve --cluster N``.

    Without ``wal_root`` the WALs live in a fresh temporary directory
    (printed) — failover still replays, but a *cluster* restart starts
    empty.  Point ``--wal-dir`` somewhere durable for that.

    SIGINT/SIGTERM drain rather than drop: the router answers new
    requests 503 + ``Retry-After``, in-flight ones run to completion (up
    to ``drain_deadline_s``), then the workers stop.
    """
    if wal_root is None:
        wal_root = tempfile.mkdtemp(prefix="repro-cluster-wal-")
        print(f"cluster WALs (temporary): {wal_root}")
    supervisor = ClusterSupervisor(
        n_shards,
        wal_root=wal_root,
        host=host,
        standby_replicas=standby_replicas,
        cache_bytes=cache_bytes,
        max_workers=max_workers,
        query_deadline_ms=query_deadline_ms,
        admission_limit=admission_limit,
        chaos_ingest_ms=chaos_ingest_ms,
        trace=trace,
        robustness_file=robustness_file,
        verbose=verbose,
    )
    supervisor.start()
    router = ClusterRouter(
        (host, router_port),
        supervisor,
        obs=Observability(trace=trace),
        robustness_file=robustness_file,
        verbose=verbose,
    )
    print(
        f"repro-serve cluster: router on http://{host}:{router.port}, "
        f"{n_shards} shard worker(s)"
        + (f", {standby_replicas} standby per shard" if standby_replicas else "")
    )
    for shard, spec in sorted(supervisor.specs.items()):
        print(f"  shard {shard}: http://{spec.host}:{spec.port} "
              f"(wal: {spec.wal_dir})")
    print(f"endpoints: {describe_routes(ROUTER_ROUTES)}")

    draining = threading.Event()

    def _drain(signum, frame) -> None:
        if draining.is_set():
            return
        draining.set()

        def _finish() -> None:
            print(
                f"\ndraining: refusing new requests, waiting up to "
                f"{drain_deadline_s:.0f}s for in-flight work"
            )
            router.begin_drain()
            if not router.await_drained(drain_deadline_s):
                print("drain deadline passed with requests still in "
                      "flight; stopping anyway")
            # shutdown() must run off the main thread: it blocks until
            # serve_forever (below, on the main thread) exits its loop.
            router.shutdown()

        threading.Thread(target=_finish, daemon=True).start()

    previous: dict[int, object] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _drain)
        except ValueError:
            pass  # not the main thread (embedded use); Ctrl-C still works
    try:
        router.serve_forever()
        if draining.is_set():
            print("drained; shutting down cluster")
    except KeyboardInterrupt:
        print("\nshutting down cluster")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        router.server_close()
        supervisor.stop()
    return 0
