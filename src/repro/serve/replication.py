"""Warm standby replication for cluster shards: WAL shipping + promotion.

Respawn-then-replay leaves a SIGKILLed shard dark for its whole WAL
replay.  Here a *standby* worker tails its primary's write-ahead log over
HTTP (``GET /wal/stream?from_seq=``, checksummed frames) and applies each
record to its own live :class:`~repro.serve.service.EvaluationService`,
so promotion costs only "catch up the lag", not "replay the world".

* :class:`WalApplier` — applies one validated
  :class:`~repro.serve.wal.WalEntry` to a service, *idempotently*, for
  boot recovery, streamed replication and rebalance adoption alike.  It
  pushes the logged row — no training-log file, no estimator — once the
  record's link extends its run's hash chain; a standby that disagrees
  bit-for-bit with its primary refuses rather than diverge silently.
* :class:`WalFollower` — the standby's tailing thread: polls, re-verifies
  every frame, applies it, and exports ``repro_replica_lag_records`` /
  ``repro_replica_applied_seq``.  The standby's own WAL re-logs what it
  applies, so it is crash-recoverable and, once promoted, a replication
  source.  :meth:`~WalFollower.promote` stops following and drains the
  unshipped tail from the dead primary's WAL *file* (it survives
  SIGKILL), so the promoted standby serves answers ``np.array_equal`` to
  the batch estimate of everything the primary acknowledged.
* :class:`WorkerController` — the supervisor→worker control plane behind
  ``POST /control/{status,epoch,promote,adopt}``: promotion, ring-epoch
  fencing, and ``adopt`` (apply a shipped per-run WAL subset), which
  online rebalance uses to move a run between shards.

The supervisor side lives in :mod:`repro.serve.cluster`.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPException
from pathlib import Path

from repro.serve.http import ApiError, _cached_validation, http_request
from repro.serve.wal import (
    FIELDS,
    REGISTER,
    RecoveryError,
    WalCorruption,
    WalEntry,
    WriteAheadLog,
    scan_wal,
    validate_wal_record,
)

LAG_GAUGE = "repro_replica_lag_records"
APPLIED_GAUGE = "repro_replica_applied_seq"
FRAMES_COUNTER = "repro_replica_frames_total"


class ReplicationError(RuntimeError):
    """WAL shipping failed in a way retrying cannot fix (bad frame, gap)."""


class WalApplier:
    """Idempotently applies WAL entries to a live service.

    One instance per worker process, shared by boot recovery, the
    standby follower, and the ``/control/adopt`` path — all three may
    deliver the *same* fact more than once (a refetched frame after a
    standby restart, a dual-written ingest landing after the adopted
    subset already carried it), and a fact the service already holds is
    a no-op (:meth:`~repro.serve.service.EvaluationService.restore_run`,
    :meth:`~repro.serve.service.EvaluationService.replay_epoch`).  With
    a WAL attached the service re-logs what it applies, which makes a
    standby crash-recoverable and promotable into a replication source.
    A record that does not extend its run's hash chain, or cannot be
    applied at all, raises :class:`~repro.serve.wal.RecoveryError`.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.runs_restored = 0
        self.epochs_replayed = 0
        # Serialises follower-thread streaming against /control/adopt
        # requests arriving on server threads.
        self._lock = threading.Lock()

    def apply(self, entry: WalEntry) -> None:
        """Apply one validated entry; raises on divergence, never on replay."""
        payload = entry.payload
        missing = [name for name in FIELDS[entry.kind] if name not in payload]
        if missing:
            raise RecoveryError(
                f"WAL record seq {entry.seq} ({entry.kind}) has no "
                f"{', '.join(missing)}: it was written before WAL records "
                "carried contribution rows; refusing to replay it"
            )
        with self._lock:
            try:
                if entry.kind == REGISTER:
                    self.runs_restored += self.service.restore_run(
                        payload, self._validation(payload)
                    )
                else:
                    self.epochs_replayed += self.service.replay_epoch(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise RecoveryError(
                    f"WAL record seq {entry.seq} ({entry.kind}) cannot be "
                    f"applied: {type(exc).__name__}: {exc}"
                ) from exc

    def _validation(self, record: dict):
        """How a POSTed HFL run rebuilds its validation set, if it can."""
        if record["kind"] != "hfl" or "dataset" not in record:
            return None
        return lambda: _cached_validation(
            self.service, record["dataset"], record["seed"], record["n_samples"]
        )


class WalFollower:
    """Tails a primary's WAL over HTTP and applies every frame locally.

    ``next_seq`` counts *primary* sequence numbers.  On a standby
    restart it resumes from the standby's own WAL length — a
    conservative lower bound (a record the standby already held when it
    arrived is not re-logged), so some frames may be refetched; the
    applier's idempotence makes that free.  A primary that stops
    answering is *not* an error here: the supervisor decides between
    promotion and respawn, and the follower just keeps polling (after a
    respawn the reborn primary replays its WAL file and serves the same
    stream).  An invalid frame or digest divergence IS fatal — the
    follower parks the error and :meth:`promote` refuses, which makes
    the supervisor fall back to cold respawn rather than promote a
    replica that disagrees with the primary.
    """

    def __init__(
        self,
        applier: WalApplier,
        primary_host: str,
        primary_port: int,
        *,
        primary_wal_dir: str | Path | None = None,
        start_seq: int = 1,
        poll_s: float = 0.05,
        timeout_s: float = 5.0,
        batch: int = 512,
        registry=None,
    ) -> None:
        self.applier = applier
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.primary_wal_dir = (
            Path(primary_wal_dir) if primary_wal_dir is not None else None
        )
        self.next_seq = max(1, int(start_seq))
        self.end_seq = 0  # highest primary seq observed
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.batch = batch
        self.error: Exception | None = None
        self.promoted = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._registry = registry
        if registry is not None:
            self._lag = registry.gauge(
                LAG_GAUGE,
                help="WAL records the primary has durably logged that this "
                "standby has not yet applied",
            )
            self._applied = registry.gauge(
                APPLIED_GAUGE,
                help="highest primary WAL sequence applied by this standby",
            )
            self._frames = registry.counter(
                FRAMES_COUNTER,
                help="WAL frames fetched and applied from the primary",
            )
            self._applied.set(self.next_seq - 1)
        else:
            self._lag = self._applied = self._frames = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="wal-follower", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout_s + 1.0)

    @property
    def lag(self) -> int:
        return max(0, self.end_seq - (self.next_seq - 1))

    def stats(self) -> dict:
        return {
            "applied_seq": self.next_seq - 1,
            "primary_end_seq": self.end_seq,
            "lag_records": self.lag,
            "promoted": self.promoted,
            "error": str(self.error) if self.error is not None else None,
        }

    # ------------------------------------------------------------- streaming

    def _fetch(self) -> dict:
        status, _, body = http_request(
            self.primary_host,
            self.primary_port,
            "GET",
            f"/wal/stream?from_seq={self.next_seq}&limit={self.batch}",
            timeout_s=self.timeout_s,
        )
        if status != 200:
            raise HTTPException(f"/wal/stream answered {status}: {body[:200]!r}")
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ValueError("wal stream payload is not an object")
        return payload

    def _apply_frames(self, payload: dict) -> bool:
        frames = payload.get("frames") or []
        for frame in frames:
            entry = validate_wal_record(frame, expected_seq=self.next_seq)
            if entry is None:
                raise ReplicationError(
                    f"primary {self.primary_host}:{self.primary_port} served "
                    f"an invalid frame where seq {self.next_seq} was expected"
                )
            self.applier.apply(entry)
            self.next_seq += 1
            if self._frames is not None:
                self._frames.inc()
        self.end_seq = max(self.end_seq, int(payload.get("end_seq", 0)))
        if self._lag is not None:
            self._lag.set(self.lag)
            self._applied.set(self.next_seq - 1)
        return bool(frames)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                payload = self._fetch()
            except (OSError, HTTPException, ValueError):
                # Primary unreachable or mid-restart: supervisor's
                # problem, not ours; keep polling.
                self._stop.wait(self.poll_s)
                continue
            try:
                advanced = self._apply_frames(payload)
            except Exception as exc:  # divergence is fatal to following
                self.error = exc
                return
            if not advanced:
                self._stop.wait(self.poll_s)

    # ------------------------------------------------------------- promotion

    def promote(self, primary_wal_dir: str | Path | None = None) -> dict:
        """Stop following and catch up the tail; returns promotion stats.

        The final unshipped records are read straight from the (dead)
        primary's WAL *file* — fsync'd before every acknowledgement, so
        it survives SIGKILL and a torn final line is exactly the one
        record the primary never acknowledged.  Idempotent: a second
        call returns the first call's result.
        """
        if self.promoted:
            return self.stats() | {"drained": 0}
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout_s + 1.0)
        if self.error is not None:
            raise ReplicationError(
                f"refusing to promote a diverged standby: {self.error}"
            ) from self.error
        wal_dir = Path(primary_wal_dir) if primary_wal_dir else self.primary_wal_dir
        drained = 0
        if wal_dir is not None:
            drained = self._drain_from_file(wal_dir / WriteAheadLog.FILENAME)
        self.promoted = True
        if self._registry is not None:
            # A primary has no replication lag; drop the standby gauges
            # so the merged cluster /metricz doesn't show a frozen lag.
            self._registry.unregister(LAG_GAUGE)
            self._registry.unregister(APPLIED_GAUGE)
        return self.stats() | {"drained": drained}

    def _drain_from_file(self, path: Path) -> int:
        entries, _, _ = scan_wal(path)
        drained = 0
        for entry in entries:
            if entry.seq < self.next_seq:
                continue
            if entry.seq != self.next_seq:
                raise ReplicationError(
                    f"gap in {path}: expected seq {self.next_seq}, "
                    f"found {entry.seq}"
                )
            self.applier.apply(entry)
            self.next_seq += 1
            drained += 1
        self.end_seq = max(self.end_seq, self.next_seq - 1)
        return drained


class WorkerController:
    """The supervisor→worker control plane behind ``POST /control/{verb}``.

    Installed on every cluster worker's HTTP server (primaries get it
    too — ``adopt`` and ``epoch`` apply to them; ``promote`` answers a
    typed 409).  Errors surface through :class:`ApiError`, keeping the
    no-bare-500 property across the control plane.
    """

    def __init__(self, server, service, applier: WalApplier, follower=None):
        self.server = server
        self.service = service
        self.applier = applier
        self.follower = follower

    @property
    def role(self) -> str:
        if self.follower is not None and not self.follower.promoted:
            return "standby"
        return "primary"

    def handle(self, verb: str, body: dict) -> dict:
        if verb == "status":
            return {
                "role": self.role,
                "ring_epoch": self.server.ring_epoch,
                "replication": (
                    self.follower.stats() if self.follower is not None else None
                ),
            }
        if verb == "epoch":
            return self._set_epoch(body)
        if verb == "promote":
            return self._promote(body)
        if verb == "adopt":
            return self._adopt(body)
        raise ApiError(404, f"no such control verb: {verb!r}")

    def _set_epoch(self, body: dict) -> dict:
        try:
            epoch = int(body["ring_epoch"])
        except (KeyError, TypeError, ValueError):
            raise ApiError(400, "body must carry an integer ring_epoch") from None
        current = self.server.ring_epoch or 0
        # Epochs only advance; a lagging supervisor retry must not
        # un-fence a worker.
        self.server.ring_epoch = max(current, epoch)
        return {"ring_epoch": self.server.ring_epoch}

    def _promote(self, body: dict) -> dict:
        if self.follower is None:
            raise ApiError(409, "this worker is a primary; nothing to promote")
        try:
            stats = self.follower.promote(body.get("primary_wal_dir"))
        except (ReplicationError, RecoveryError, WalCorruption) as exc:
            raise ApiError(503, f"promotion failed: {exc}") from None
        return {"promoted": True} | stats

    def _adopt(self, body: dict) -> dict:
        frames = body.get("frames")
        if not isinstance(frames, list):
            raise ApiError(400, "body must carry a frames list")
        adopted = 0
        runs: set = set()
        for index, frame in enumerate(frames):
            # A shipped per-run subset has seq gaps by construction, so
            # checksum/shape only — no dense-sequence check.
            entry = validate_wal_record(frame)
            if entry is None:
                raise ApiError(
                    400, f"frame {index} failed checksum validation"
                )
            try:
                self.applier.apply(entry)
            except RecoveryError as exc:
                raise ApiError(409, f"adopt rejected: {exc}") from None
            adopted += 1
            run_id = entry.payload.get("run_id")
            if run_id:
                runs.add(str(run_id))
        return {"adopted": adopted, "runs": sorted(runs)}
