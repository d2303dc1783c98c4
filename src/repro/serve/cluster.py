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

# Supervisor constants.  Every deployment, test and benchmark runs these
# values, so they are not options.
RING_REPLICAS = 64  # virtual nodes per shard on the hash ring
PROBE_TIMEOUT_S = 2.0  # one /healthz probe
PROBE_FAILURES = 2  # failed probes or proxies that open a shard's breaker
READY_TIMEOUT_S = 60.0  # a spawned worker must answer /healthz within this
MAX_RESPAWNS = 20  # a shard respawned this often is left down: a crash loop
RETRY_AFTER_HINT_S = 3.0  # the Retry-After of a 503 for a down shard
RESPAWN_BACKOFF_BASE_S = 0.5
RESPAWN_BACKOFF_CAP_S = 30.0
BACKOFF_STABILITY_S = 5.0  # up this long after a spawn: its backoff resets
FOLLOW_POLL_S = 0.05  # a standby's /wal/stream poll interval


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
    admission_limit: int | None = None
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
    # Scenario-matrix verdict file served by GET /robustness; the
    # supervisor resolves it to an absolute path once, for every spawn.
    robustness_file: str | None = None


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of one shard process (top-level: ``spawn`` pickles it).

    Boot order matters: recover from the shard's WAL *before* attaching
    it (so replayed ingests are not re-logged), then serve.  SIGTERM is
    the supervisor's clean-shutdown signal; SIGKILL is what the chaos
    harness throws, and the WAL is the only thing that survives it.
    SIGINT is ignored: a Ctrl-C reaches the whole foreground process
    group, and the workers must outlive the router's drain.
    """
    import signal

    from repro.serve.http import EvaluationHTTPServer
    from repro.serve.replication import WalApplier, WalFollower, WorkerController
    from repro.serve.service import EvaluationService
    from repro.serve.wal import recover

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs = Observability(
        trace=spec.trace,
        # Disjoint id blocks per shard: merged trace exports from several
        # workers (and the router, which keeps the small default ids)
        # must never collide on span ids within one propagated trace.
        id_source=itertools.count((spec.shard + 1) * 2**48 + 1).__next__,
    )
    service = EvaluationService(
        cache_bytes=spec.cache_bytes,
        admission_limit=spec.admission_limit,
        obs=obs,
    )
    if spec.chaos_ingest_ms:
        from repro.serve.chaos import delay_ingest

        delay_ingest(service, spec.chaos_ingest_ms)
    wal = WriteAheadLog(spec.wal_dir)
    # One applier per worker, shared by boot recovery, the streaming
    # follower (standbys) and /control/adopt (all roles — rebalance
    # ships runs to primaries too).  Once the WAL is attached, everything
    # it applies is re-logged.
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
            poll_s=FOLLOW_POLL_S,
            registry=service.obs.registry,
        )
        follower.start()
    server.controller = WorkerController(server, service, applier, follower=follower)
    try:
        server.serve_forever()
    except SystemExit:
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


def _backoff(seed: int) -> Backoff:
    return Backoff(RESPAWN_BACKOFF_BASE_S, RESPAWN_BACKOFF_CAP_S, seed=seed)


@dataclass
class _Worker:
    """One worker slot of a shard — its primary or its standby.

    The slot outlives its processes: a respawn or a promotion puts a new
    ``spec``/``proc`` into it and keeps the slot's backoff.  ``stopped``
    is set once, when the shard is retired or the cluster stops, and no
    spawn fills the slot after that.
    """

    spec: WorkerSpec
    backoff: Backoff
    proc: multiprocessing.process.BaseProcess | None = None
    started_at: float = 0.0
    stopped: bool = False

    @property
    def label(self) -> str:
        role = "standby for " if self.spec.follow else ""
        return f"{role}shard {self.spec.shard}"

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def describe(self) -> dict:
        return {
            "address": [self.spec.host, self.spec.port],
            "wal_dir": self.spec.wal_dir,
            "pid": self.proc.pid if self.proc is not None else None,
            "alive": self.alive(),
        }


# -------------------------------------------------------------------- topology


@dataclass
class _Route:
    """A fixed routing-table row: where a shard answers, and its breaker."""

    address: tuple[str, int]
    breaker: CircuitBreaker

    def describe(self) -> dict:
        return {"address": list(self.address), "breaker": self.breaker.stats()}


@dataclass
class _Shard:
    """A supervised row: the shard's worker slots, breaker and counters.

    The router proxies to the primary's address.  The breaker is the
    shard's, not a worker's: a promotion keeps it.
    """

    primary: _Worker
    breaker: CircuitBreaker
    standby: _Worker | None = None
    generation: int = 0  # standby incarnations; each gets a fresh WAL dir
    respawns: int = 0
    promotions: int = 0

    @property
    def address(self) -> tuple[str, int]:
        return (self.primary.spec.host, self.primary.spec.port)

    def workers(self) -> list[_Worker]:
        return [w for w in (self.primary, self.standby) if w is not None]

    def describe(self) -> dict:
        entry = {
            **self.primary.describe(),
            "breaker": self.breaker.stats(),
            "respawns": self.respawns,
            "respawn_backoff_s": round(self.primary.backoff.remaining_s(), 3),
            "promotions": self.promotions,
        }
        if self.standby is not None:
            entry["standby"] = {
                **self.standby.describe(),
                "generation": self.generation,
            }
        return entry


class StaticTopology:
    """The router's routing table: a ring, and a row per shard.

    The router needs the ring and its epoch, an address and a circuit
    breaker per shard, and a ``Retry-After`` hint.  Built from a map of
    already-running workers, this is that table as is — what tests (and
    embeddings that manage worker processes themselves) hand the router.
    :class:`ClusterSupervisor` is the same table over live workers: it
    rewrites rows and the ring on promote and resize.
    """

    def __init__(
        self,
        workers: Mapping[Hashable, tuple[str, int]],
        *,
        replicas: int = RING_REPLICAS,
        breaker_failures: int = 2,
        breaker_reset_s: float = 1.0,
        retry_after_hint_s: float = 1.0,
    ) -> None:
        if not workers:
            raise ValueError("a topology needs at least one worker")
        self.ring = HashRing(workers, replicas=replicas)
        self.ring_epoch = 0
        self.retry_after_hint_s = retry_after_hint_s
        self.shards: dict = {
            shard: _Route(
                (str(host), int(port)),
                CircuitBreaker(breaker_failures, breaker_reset_s),
            )
            for shard, (host, port) in workers.items()
        }

    def _row(self, shard):
        row = self.shards.get(shard)
        if row is None:
            # Retired between routing and proxying (a shrink, or a failed
            # grow undoing its spawns): unavailable, not a bare KeyError.
            raise ShardUnavailable(
                shard, "not on the cluster", self.retry_after_hint_s
            )
        return row

    def address(self, shard) -> tuple[str, int]:
        return self._row(shard).address

    def breaker(self, shard) -> CircuitBreaker:
        return self._row(shard).breaker

    def retry_after_s(self, shard) -> float:
        return self.retry_after_hint_s

    def notify_failure(self, shard) -> None:
        """No supervisor behind this topology; nothing to wake."""

    def dual_target(self, key: str):
        """No rebalance machinery here; writes never need a second copy."""
        return None

    def describe(self) -> dict:
        rows = dict(self.shards)
        return {
            "replicas": self.ring.replicas,
            "supervised": False,
            "ring_epoch": self.ring_epoch,
            "shards": {
                str(shard): rows[shard].describe()
                for shard in sorted(rows, key=str)
            },
        }


class ClusterSupervisor(StaticTopology):
    """Owns N shard worker processes: spawn, probe, respawn, stop.

    The monitor thread wakes every ``probe_interval_s`` (or immediately,
    when the router reports a proxy failure through
    :meth:`notify_failure`) and walks the shards: a dead primary is
    replaced by its warm standby if it has one, else respawned from its
    spec — the replacement replays the shard's WAL, so the revived shard
    answers bit-identically for every acknowledged epoch; a live primary
    that fails enough ``/healthz`` probes to open its breaker is presumed
    wedged, killed, and replaced the same way.  A dead standby is
    respawned behind its primary.  The per-shard breakers are *shared*
    with the router: proxy failures and probe failures count against the
    same threshold, and a breaker that opens both stops the router
    hammering the port and triggers the monitor's replacement path.

    Each shard is one :class:`_Shard` row of the routing table holding a
    primary and an optional standby :class:`_Worker`; both kinds go
    through the same spawn, readiness wait, backoff and stop.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        wal_root: str | Path,
        host: str = "127.0.0.1",
        standby_replicas: int = 0,
        cache_bytes: int = 64 * 1024 * 1024,
        admission_limit: int | None = None,
        chaos_ingest_ms: float = 0.0,
        trace: bool = False,
        probe_interval_s: float = 0.5,
        probe_reset_s: float = 2.0,
        robustness_file: str | None = None,
        verbose: bool = False,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if standby_replicas not in (0, 1):
            raise ValueError(
                f"standby_replicas must be 0 or 1, got {standby_replicas}"
            )
        # spawn, not fork: the supervisor runs threads (monitor, router
        # handlers) and a forked child inheriting their locked locks
        # mid-operation can deadlock before it ever reaches exec.
        self._ctx = multiprocessing.get_context("spawn")
        self.standby_replicas = standby_replicas
        self.probe_interval_s = probe_interval_s
        self.probe_reset_s = probe_reset_s
        self.verbose = verbose
        self._wal_root = Path(wal_root)
        self._template = WorkerSpec(
            shard=0,
            host=host,
            port=0,
            wal_dir="",
            cache_bytes=cache_bytes,
            admission_limit=admission_limit,
            chaos_ingest_ms=chaos_ingest_ms,
            trace=trace,
            robustness_file=resolve_robustness_file(robustness_file),
            verbose=verbose,
        )
        # The routing table's state, set directly: its rows are worker
        # slots, not the fixed addresses StaticTopology's constructor takes.
        self.ring = HashRing(range(n_shards), replicas=RING_REPLICAS)
        self.ring_epoch = 0
        self.retry_after_hint_s = RETRY_AFTER_HINT_S
        self.shards: dict[int, _Shard] = {
            shard: self._new_shard(shard) for shard in range(n_shards)
        }
        # Online-rebalance state: one resize at a time; while one is in
        # flight, _pending_ring drives dual-writes (router asks
        # dual_target per key) and _rebalance is what /cluster reports.
        self._resize_lock = threading.Lock()
        self._pending_ring: HashRing | None = None
        self._rebalance: dict | None = None
        # Orders a spawn against a stop: a retired slot is never refilled.
        self._spawn_lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._monitor: threading.Thread | None = None

    @property
    def specs(self) -> dict[int, WorkerSpec]:
        """Each shard's primary spec: its address and WAL directory."""
        return {shard: row.primary.spec for shard, row in dict(self.shards).items()}

    def _spec(self, shard: int, wal_name: str, follow=None) -> WorkerSpec:
        return dataclasses.replace(
            self._template,
            shard=shard,
            port=_free_port(self._template.host),
            wal_dir=str(self._wal_root / wal_name),
            follow=follow,
        )

    def _new_shard(self, shard: int) -> _Shard:
        return _Shard(
            primary=_Worker(self._spec(shard, f"shard-{shard}"), _backoff(shard)),
            breaker=CircuitBreaker(PROBE_FAILURES, self.probe_reset_s),
        )

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "ClusterSupervisor":
        """Spawn every worker, wait for readiness, start the monitor."""
        rows = list(self.shards.values())
        for row in rows:
            self._spawn(row.primary)
        self._wait_ready([row.primary for row in rows])
        if self.standby_replicas:
            for row in rows:
                self._spawn_standby(row)
            self._wait_ready([row.standby for row in rows])
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
        self._halt(
            [worker for row in dict(self.shards).values() for worker in row.workers()]
        )

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _spawn(self, worker: _Worker) -> None:
        """Start a process in ``worker``'s slot from its spec."""
        # Respawns inherit the *current* ring epoch, not the boot one —
        # a worker reborn mid-rebalance must come up already fenced.
        worker.spec = dataclasses.replace(worker.spec, ring_epoch=self.ring_epoch)
        role = "-standby" if worker.spec.follow else ""
        with self._spawn_lock:
            if worker.stopped:
                return
            worker.proc = self._ctx.Process(
                target=_worker_main,
                args=(worker.spec,),
                name=f"repro-shard-{worker.spec.shard}{role}",
                daemon=True,
            )
            worker.proc.start()
            worker.started_at = time.monotonic()

    def _spawn_standby(self, row: _Shard) -> None:
        """Start a fresh warm standby tailing ``row``'s primary.

        Every incarnation gets a new port and WAL directory: a promoted
        standby keeps its own, and its replacement must not inherit it.
        """
        primary = row.primary.spec
        row.generation += 1
        spec = self._spec(
            primary.shard,
            f"shard-{primary.shard}-standby-g{row.generation}",
            follow=(primary.host, primary.port, primary.wal_dir),
        )
        if row.standby is None:
            row.standby = _Worker(spec, _backoff(10_000 + primary.shard))
        else:
            row.standby.spec = spec
        self._spawn(row.standby)

    def _wait_ready(self, workers: list[_Worker]) -> None:
        """Wait until every worker answers ``/healthz``, under one deadline."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        for worker in workers:
            while not self._probe(worker):
                proc = worker.proc
                if proc is not None and proc.exitcode is not None:
                    raise RuntimeError(
                        f"{worker.label} died during startup "
                        f"(exit code {proc.exitcode})"
                    )
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"{worker.label} not ready on {worker.spec.host}:"
                        f"{worker.spec.port} within {READY_TIMEOUT_S}s"
                    )
                time.sleep(0.05)

    def _halt(self, workers: list[_Worker]) -> None:
        """Stop workers for good: terminate, join, kill what lingers."""
        with self._spawn_lock:
            for worker in workers:
                worker.stopped = True
        procs = [worker.proc for worker in workers if worker.proc is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck-worker backstop
                proc.kill()
                proc.join(timeout=5)

    # ---------------------------------------------------------- monitoring

    def _probe(self, worker: _Worker) -> bool:
        try:
            status, _, _ = http_request(
                worker.spec.host,
                worker.spec.port,
                "GET",
                "/healthz",
                timeout_s=PROBE_TIMEOUT_S,
            )
        except (OSError, HTTPException):
            return False
        return status == 200

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.probe_interval_s)
            self._wake.clear()
            for shard in list(self.shards):
                if self._stop.is_set():
                    return
                row = self.shards.get(shard)
                if row is None:
                    continue  # retired mid-iteration by a resize
                self._check_primary(row)
                standby = row.standby
                if standby is None:
                    continue
                if standby.alive():
                    self._settle(standby)
                elif standby.proc is not None:
                    self._restart(row, standby, f"exit {standby.proc.exitcode}")

    def _check_primary(self, row: _Shard) -> None:
        proc = row.primary.proc
        if not proc.is_alive():
            reason = f"process exited ({proc.exitcode})"
        elif not row.breaker.allow():
            return  # open, not yet probe time: skip this tick
        elif self._probe(row.primary):
            row.breaker.record_success()
            self._settle(row.primary)
            return
        else:
            row.breaker.record_failure()
            if row.breaker.state != CircuitBreaker.OPEN:
                return
            # Alive but failing probes past the threshold: wedged.
            # Replace it like a death.
            proc.kill()
            proc.join(timeout=10)
            reason = "unresponsive (breaker open)"
        if not self._try_promote(row, reason=reason):
            self._respawn(row, reason=reason)

    def _settle(self, worker: _Worker) -> None:
        """Reset a worker's respawn backoff once it has stayed up a while.

        Only a true crash loop waits the exponential schedule out.
        """
        if (
            worker.backoff.attempts
            and time.monotonic() - worker.started_at >= BACKOFF_STABILITY_S
        ):
            worker.backoff.reset()

    def _restart(self, row: _Shard, worker: _Worker, reason: str) -> bool:
        """Respawn a dead worker, unless its armed backoff gates this tick."""
        if self._stop.is_set() or not worker.backoff.ready():
            return False
        # Arm the delay before the *next* attempt now; _settle disarms
        # it once the replacement has stayed up.
        worker.backoff.record_failure()
        if self.verbose:
            print(f"[cluster] respawning {worker.label} ({reason})", flush=True)
        if worker is row.standby:
            self._spawn_standby(row)
        else:
            self._spawn(worker)
        return True

    def _respawn(self, row: _Shard, *, reason: str) -> None:
        """Cold-respawn a dead primary; its replacement replays the WAL."""
        if row.respawns >= MAX_RESPAWNS:
            return  # crash loop: leave it down, the router serves 503s
        attempt = f"{reason}; attempt {row.respawns + 1}"
        if not self._restart(row, row.primary, attempt):
            return
        row.respawns += 1
        try:
            self._wait_ready([row.primary])
        except (RuntimeError, TimeoutError):
            # Died again before becoming ready; the next tick retries.
            row.breaker.record_failure()
            return
        row.breaker.record_success()

    def _try_promote(self, row: _Shard, *, reason: str) -> bool:
        """Promote ``row``'s standby to primary; ``False`` → cold respawn.

        On success the standby's address *becomes* the shard's address
        (the router routes by spec, not pid), its final catch-up drains
        straight from the dead primary's WAL file, and a replacement
        standby is spawned behind the new primary.
        """
        standby = row.standby
        if standby is None or not standby.alive():
            return False
        try:
            status, body = _control(
                standby.spec,
                "promote",
                {"primary_wal_dir": row.primary.spec.wal_dir},
                10.0,
            )
        except (OSError, HTTPException, ValueError):
            return False
        if status != 200:
            if self.verbose:
                print(
                    f"[cluster] {standby.label} refused promotion "
                    f"({status}: {body.get('error')}); falling back to respawn",
                    flush=True,
                )
            return False
        row.promotions += 1
        # The promoted worker sheds its follow role and is the shard now.
        row.primary.spec = dataclasses.replace(
            standby.spec, follow=None, ring_epoch=self.ring_epoch
        )
        row.primary.proc, standby.proc = standby.proc, None
        row.primary.backoff.reset()
        row.breaker.record_success()
        if self.verbose:
            print(
                f"[cluster] promoted standby to shard {row.primary.spec.shard} "
                f"({reason}; caught up {body.get('drained', 0)} record(s) "
                "from the primary's WAL file)",
                flush=True,
            )
        if self.standby_replicas and not self._stop.is_set():
            # New warm standby behind the promoted primary; the monitor
            # watches it from the next tick.
            self._spawn_standby(row)
        return True

    # ------------------------------------------------- topology interface

    def notify_failure(self, shard) -> None:
        """Router hint: a proxy to ``shard`` just failed — probe now."""
        self._wake.set()

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
        rebalance = self._rebalance
        return {
            **super().describe(),
            "supervised": True,
            "standby_replicas": self.standby_replicas,
            "rebalance": dict(rebalance) if rebalance is not None else None,
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

        A failure before the flip retires every shard this resize
        spawned, leaves the ring as it was, and raises an
        :class:`ApiError` naming the phase: 503 + ``Retry-After`` when a
        worker could not be spawned or made ready, 504 when a run could
        not be shipped in time, 409 when its new owner holds a diverged
        copy.
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
        current = sorted(self.shards)
        n_current = len(current)
        if n_target == n_current:
            return {
                "ring_epoch": self.ring_epoch,
                "from": n_current,
                "to": n_target,
                "moved": 0,
                "runs_moved": [],
            }
        added = [s for s in range(n_target) if s not in self.shards]
        removed = [s for s in current if s >= n_target]
        self._rebalance = {
            "phase": "spawning",
            "from": n_current,
            "to": n_target,
            "moved": 0,
            "total": None,
        }
        # The added shards join the table only once they answer: the
        # monitor must not probe a booting worker, open its breaker and
        # kill it mid-start.
        rows = {shard: self._new_shard(shard) for shard in added}
        try:
            plan = self._grow_and_migrate(current, rows, n_target)
        except (OSError, RuntimeError, ApiError) as exc:  # TimeoutError is an OSError
            # Undo before the flip: close the dual-write window first so
            # no write is copied to a shard that is going away.
            self._pending_ring = None
            for shard, row in rows.items():
                self.shards.pop(shard, None)
                self._halt(row.workers())
            if isinstance(exc, ApiError):
                raise
            phase = self._rebalance["phase"]
            raise ApiError(
                503,
                f"resize to {n_target} shards failed while {phase}: {exc}",
                headers={"Retry-After": str(int(RETRY_AFTER_HINT_S))},
                fields={"phase": phase, "shards": added},
            ) from exc
        # Flip order matters: new ring first (reads route to owners that
        # now hold the data), then the epoch fence, and only then the
        # dual-write window closes — a write routed by the old ring in
        # flight during the flip either lands before the fence
        # (dual-written, so both owners have it) or answers a typed 409
        # the router retries against the fresh ring.
        self.ring = plan.new_ring
        self.ring_epoch += 1
        self._broadcast_epoch()
        self._pending_ring = None
        self._rebalance["phase"] = "retiring"
        for shard in removed:
            self._halt(self.shards.pop(shard).workers())
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

    def _grow_and_migrate(
        self, current: list[int], rows: dict[int, _Shard], n_target: int
    ):
        """Steps 1–4 of :meth:`resize`; returns the :class:`ResizePlan`."""
        for row in rows.values():
            self._spawn(row.primary)
        self._wait_ready([row.primary for row in rows.values()])
        self.shards.update(rows)
        if self.standby_replicas:
            for row in rows.values():
                self._spawn_standby(row)
        # Open the dual-write window *before* scanning for keys: a run
        # registered concurrently is then either in the scan (and gets
        # migrated) or was dual-written to its future owner already —
        # opening after the scan would leave a gap where it is neither.
        self._pending_ring = HashRing(
            range(n_target), replicas=RING_REPLICAS
        )
        keys = [
            str(entry.payload["run_id"])
            for shard in current
            for entry in self._primary_wal(shard)
            if entry.kind == REGISTER and entry.payload.get("run_id")
        ]
        # Only ship runs whose *current ring owner* is the scan source —
        # a run that migrated in an earlier resize still sits in its old
        # owner's WAL file, but the ring no longer maps it there.
        plan = self.ring.plan_resize(range(n_target), keys)
        self._rebalance.update(phase="migrating", total=len(plan.moves))
        for key in sorted(plan.moves):
            source, dest = plan.moves[key]
            self._migrate_run(key, source, dest)
            self._rebalance["moved"] += 1
        return plan

    def _primary_wal(self, shard) -> list:
        """The records in ``shard``'s primary WAL *file*: it outlives a kill."""
        spec = self.shards[shard].primary.spec
        return scan_wal(Path(spec.wal_dir) / WriteAheadLog.FILENAME)[0]

    def _migrate_run(self, run_id: str, source: int, dest: int) -> None:
        """Ship one run's WAL subset from ``source``'s file to ``dest``.

        Reads the *file*, not the process — a SIGKILLed source mid-
        rebalance doesn't lose the move; and retries the adopt POST
        while the monitor thread recovers whichever side died (the
        applier's idempotence makes re-shipping free).
        """
        fields = {
            "phase": "migrating",
            "run_id": run_id,
            "source": source,
            "dest": dest,
        }
        deadline = time.monotonic() + READY_TIMEOUT_S
        attempt = 0
        while True:
            frames = [
                entry.frame()
                for entry in self._primary_wal(source)
                if str(entry.payload.get("run_id")) == run_id
            ]
            try:
                status, body = _control(
                    self.shards[dest].primary.spec,
                    "adopt",
                    {"frames": frames},
                    READY_TIMEOUT_S,
                )
            except (OSError, HTTPException, ValueError) as exc:
                status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
            if status == 200:
                return
            if status == 409:
                # Digest divergence: retrying cannot fix it.
                raise ApiError(
                    409,
                    f"shard {dest} rejected run {run_id!r}: {body.get('error')}",
                    fields=fields,
                )
            attempt += 1
            if time.monotonic() > deadline:
                raise ApiError(
                    504,
                    f"could not ship run {run_id!r} from shard {source} to "
                    f"shard {dest} within {READY_TIMEOUT_S}s "
                    f"(last error {status}: {body.get('error')})",
                    fields=fields,
                )
            self._wake.set()  # nudge the monitor at whichever side died
            time.sleep(min(2.0, 0.2 * attempt))

    def _broadcast_epoch(self) -> None:
        for row in list(self.shards.values()):
            try:
                _control(
                    row.primary.spec,
                    "epoch",
                    {"ring_epoch": self.ring_epoch},
                    PROBE_TIMEOUT_S,
                )
            except (OSError, HTTPException, ValueError):
                # Unreachable now → it is either dead (a respawn inherits
                # the epoch through its spec) or about to be retired.
                pass


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

    def _fan_out(self, path: str, errors=(ShardUnavailable, ShardTimeout)) -> dict:
        """Every ring shard's answer to ``GET path``, as ``{"0": ...}``.

        A shard that fails with one of ``errors`` answers
        ``{"status": "down", "error": ...}``: a fleet view during
        failover still renders.
        """
        answers = {}
        for shard in sorted(self.topology.ring.shards, key=str):
            try:
                answers[str(shard)] = self._proxy_json(shard, path)
            except errors as exc:
                answers[str(shard)] = {"status": "down", "error": str(exc)}
        return answers

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
        shards = self._fan_out("/healthz")
        ok = all(answer.get("status") == "ok" for answer in shards.values())
        return {
            "status": "ok" if ok else "degraded",
            "workers": len(shards),
            "down": [s for s, a in shards.items() if a.get("status") == "down"],
            "shards": shards,
        }, 200

    def _get_runs(self, parts, query):
        # A rebalance leaves the moved run's WAL (and registry entry) on
        # its old owner too; the ring decides which copy is canonical.
        # Runs registered out-of-band (no ring owner among the queried
        # shards) stay visible as long as no owned copy shadows them.
        owned: dict = {}
        extras: list[dict] = []
        unavailable: list[dict] = []
        for shard, payload in self._fan_out("/runs").items():
            if payload.get("status") == "down":
                unavailable.append({"shard": shard, "error": payload["error"]})
            for run in payload.get("runs", []):
                run["shard"] = shard
                run_id = run.get("run_id")
                ring_owner = self.topology.ring.shard_for(str(run_id))
                if run_id is not None and str(ring_owner) == shard:
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
        workers = self._fan_out("/statusz", errors=ApiError)
        down = [s for s, a in workers.items() if a.get("status") == "down"]
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
        workers = self._fan_out("/metricz")
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
        shards = self._fan_out("/metricz?format=snapshot")
        down = 0
        for shard, payload in shards.items():
            if payload.get("status") == "down":
                down += 1
            else:
                merged.merge(payload["snapshot"], labels={"worker": shard})
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
