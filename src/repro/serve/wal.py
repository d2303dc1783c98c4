"""Write-ahead log and crash recovery for the serving registry.

The :class:`WriteAheadLog` makes a ``repro serve`` registry durable.  By
the paper's per-epoch decomposition a run's answer is a plain sum of its
per-epoch rows, so the log holds the answer itself, not a pointer to the
client's training-log file.  Before the service acknowledges them, it
records:

* ``register`` — one per run, POSTed or in process: kind, estimator and
  options, participant ids (VFL: feature blocks and active parties), the
  digest seed ``d_0``, and the ``POST /runs`` fields when there are any;
* ``ingest`` — one per epoch: the contribution row as exact float64
  bytes (:func:`encode_row`), the work-counter increments the row does
  not determine, the record hash ``h_t`` and the run's
  :class:`~repro.serve.cache.RunDigest` link ``d_t`` after it.

Each line is JSON stamped with a :func:`repro.io.json_checksum`, written
and flushed on its own, so a SIGKILL tears at most the final line; that
torn tail is dropped with a warning, and corruption *before* it raises
:class:`WalCorruption`.  A live ``ingest`` fsyncs its record; a ``POST
/runs`` fsyncs once (:meth:`WriteAheadLog.commit`) for all of its records.

:func:`recover` re-registers every run and pushes each logged row — no
file read, no estimator run — checking every chain link,
``SHA-256(d_{t-1} ‖ h_t) == d_t``, so the recovered service serves
answers ``np.array_equal`` to the pre-crash ones; a broken link raises
:class:`RecoveryError` rather than serve different numbers.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.io import json_checksum

REGISTER = "register"
INGEST = "ingest"
_KINDS = frozenset({REGISTER, INGEST})
# The fields every record of the current format carries; a WAL written
# before records carried contribution rows lacks some and is refused.
FIELDS = {
    REGISTER: ("run_id", "kind", "estimator", "estimator_options", "digest_seed"),
    INGEST: ("run_id", "epoch", "row", "counters", "hash", "digest"),
}


class WalCorruption(RuntimeError):
    """The WAL has a bad record *before* its final line; history is suspect."""


class RecoveryError(RuntimeError):
    """A WAL record does not extend its run's chain, or cannot be applied.

    Recovery refuses rather than serve numbers that differ from what the
    pre-crash service acknowledged.
    """


def encode_row(row: np.ndarray) -> str:
    """A float64 row as base64 of its exact bytes: unlike JSON numbers,
    it carries ``-0.0``, infinities and NaN payloads bit for bit."""
    return base64.b64encode(np.asarray(row, dtype="<f8").tobytes()).decode()


def decode_row(text: str) -> np.ndarray:
    """The row :func:`encode_row` encoded, bit for bit (a writable copy)."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


@dataclass(frozen=True)
class WalEntry:
    """One validated WAL record."""

    seq: int
    kind: str
    payload: dict

    def frame(self) -> dict:
        """The wire form of this entry: record dict *with* its checksum.

        ``GET /wal/stream`` responses and ``/control/adopt`` bodies carry
        frames so the receiving side re-verifies integrity end to end
        with :func:`validate_wal_record` — the checksum is a pure
        function of ``(seq, kind, payload)``, so rebuilding it here is
        byte-equivalent to what :meth:`WriteAheadLog.append` wrote.
        """
        return {
            "seq": self.seq,
            "kind": self.kind,
            "payload": self.payload,
            "checksum": json_checksum(
                {"seq": self.seq, "kind": self.kind, "payload": self.payload}
            ),
        }


def validate_wal_record(record: object, *, expected_seq: int | None = None) -> WalEntry | None:
    """Validate one parsed WAL record dict; ``None`` if it cannot be trusted.

    Shape, kind, and checksum are always enforced.  ``expected_seq`` adds
    the dense-sequence check a full-file scan needs; replication frames
    shipped as a per-run *subset* (the rebalance adopt path) legitimately
    have gaps, so they validate with ``expected_seq=None``.
    """
    if not isinstance(record, dict):
        return None
    try:
        seq = int(record["seq"])
        kind = record["kind"]
        payload = record["payload"]
        checksum = record["checksum"]
    except (KeyError, TypeError, ValueError):
        return None
    if kind not in _KINDS or not isinstance(payload, dict):
        return None
    if checksum != json_checksum({"seq": seq, "kind": kind, "payload": payload}):
        return None
    if expected_seq is not None and seq != expected_seq:
        return None
    return WalEntry(seq=seq, kind=kind, payload=payload)


def scan_wal(path: str | Path) -> tuple[list[WalEntry], int, bool]:
    """Scan a WAL file: (valid entries, bytes of valid prefix, torn tail?).

    Module-level (not a method) because *non-owning* readers need it too:
    the supervisor reads a dead primary's file during promotion catch-up
    and a source shard's file when shipping a run's WAL subset to its new
    owner — the file outlives the SIGKILLed process that wrote it.  A
    torn final line is tolerated (crash mid-append, or a concurrent
    appender mid-write); a bad line *before* the tail raises
    :class:`WalCorruption`.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, False
    entries: list[WalEntry] = []
    good_bytes = 0
    raw_lines = path.read_bytes().split(b"\n")
    # A well-formed file ends in "\n", so the final split element is "".
    lines = raw_lines[:-1] if raw_lines and raw_lines[-1] == b"" else raw_lines
    for index, raw in enumerate(lines):
        try:
            record = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            record = None
        entry = validate_wal_record(record, expected_seq=len(entries) + 1)
        if entry is None:
            if index == len(lines) - 1:
                return entries, good_bytes, True
            raise WalCorruption(
                f"{path} has a corrupt record at line {index + 1} "
                "with valid records after it; refusing to replay"
            )
        entries.append(entry)
        good_bytes += len(raw) + 1  # + the newline
    return entries, good_bytes, False


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt."""

    runs_restored: int = 0
    epochs_replayed: int = 0
    tail_dropped: bool = False

    def summary(self) -> str:
        line = (
            f"recovered {self.runs_restored} run(s), "
            f"{self.epochs_replayed} epoch(s) replayed"
        )
        if self.tail_dropped:
            line += "; torn tail record dropped"
        return line


class WriteAheadLog:
    """Append-only, fsync'd, checksummed record of registry mutations.

    One WAL file (``serve.wal`` inside ``directory``) serves one
    :class:`EvaluationService` process at a time.  Opening an existing
    file resumes its sequence numbers and truncates any torn tail, so
    append-after-recovery keeps the file replayable.  ``fsync=False``
    skips the ``fsync`` altogether, for speed in benchmarks; the CLI
    always runs fsync'd.
    """

    FILENAME = "serve.wal"

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self.directory.mkdir(parents=True, exist_ok=True)
        entries, good_bytes, torn = scan_wal(self.path)
        self._next_seq = (entries[-1].seq + 1) if entries else 1
        self.tail_dropped = torn
        if torn:
            warnings.warn(
                f"{self.path} ends in a torn record (crash mid-append); "
                "dropping the tail",
                UserWarning,
                stacklevel=2,
            )
            # Appending after a torn line would corrupt mid-file; cut it.
            with open(self.path, "rb+") as fh:
                fh.truncate(good_bytes)
        self._fh = open(self.path, "ab")
        # append() is called from many server threads at once (each HTTP
        # request is a thread; ingests lock per run, registrations not at
        # all) — seq allocation and the write+flush+fsync must be atomic
        # or replay() sees interleaved/out-of-order records as corruption.
        self._lock = threading.Lock()
        # The last seq an fsync covers; records after it are written and
        # flushed but not yet committed, and /wal/stream holds them back.
        self._durable_seq = self._next_seq - 1

    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will get."""
        with self._lock:
            return self._next_seq

    # ------------------------------------------------------------ writing

    def append(self, kind: str, payload: dict, *, sync: bool = True) -> int:
        """Record one fact; returns its sequence number.

        The line is written and flushed at once, so a SIGKILL can tear at
        most this line.  ``sync=True`` also fsyncs it before returning;
        ``sync=False`` leaves it for the caller's :meth:`commit`, which
        must come before anything the record stands for is acknowledged —
        and before :meth:`frames_from` ships it to a follower.  Thread-safe:
        concurrent appends are serialised so sequence numbers are dense
        and lines never interleave.
        """
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {sorted(_KINDS)}, got {kind!r}")
        with self._lock:
            seq = self._next_seq
            record = {"seq": seq, "kind": kind, "payload": payload}
            record["checksum"] = json_checksum(
                {"seq": seq, "kind": kind, "payload": payload}
            )
            line = json.dumps(record, sort_keys=True) + "\n"
            self._fh.write(line.encode())
            self._fh.flush()
            self._next_seq += 1
            if sync:
                self._sync()
            return seq

    def commit(self) -> None:
        """Make every record written so far durable: at most one fsync.

        A no-op when nothing is pending — another thread's synced append
        or commit already covered it, since an fsync covers the whole file.
        """
        with self._lock:
            if not self._fh.closed:
                self._sync()

    def _sync(self) -> None:
        if self._durable_seq < self._next_seq - 1:
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._durable_seq = self._next_seq - 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._sync()
                self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ reading

    def replay(self) -> list[WalEntry]:
        """All validated entries, oldest first (see :func:`scan_wal`)."""
        return scan_wal(self.path)[0]

    def frames_from(self, from_seq: int, *, limit: int = 512) -> dict:
        """Validated frames with ``seq >= from_seq``, for ``GET /wal/stream``.

        Returns ``{"frames": [...], "next_seq": n, "end_seq": m}`` where
        ``next_seq`` is what the follower should ask for next and
        ``end_seq`` is the highest durable sequence in the file right now
        (0 when empty) — their difference is the follower's replication
        lag.  Re-reads the file rather than holding state: the append
        handle and lock stay untouched, so streaming never slows writes.
        A record not yet covered by an fsync (a ``POST /runs`` before its
        :meth:`commit`) and a torn final line (a concurrent append caught
        mid-write) are simply not served yet, so a follower never holds a
        record that a crash of this host could still take from this file.
        """
        if from_seq < 1:
            raise ValueError(f"from_seq must be >= 1, got {from_seq}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        durable = self._durable_seq
        entries = [e for e in scan_wal(self.path)[0] if e.seq <= durable]
        end_seq = entries[-1].seq if entries else 0
        window = [e for e in entries if e.seq >= from_seq][:limit]
        next_seq = (window[-1].seq + 1) if window else max(from_seq, end_seq + 1)
        return {
            "frames": [e.frame() for e in window],
            "next_seq": next_seq,
            "end_seq": end_seq,
        }


def recover(service, wal: WriteAheadLog, *, applier=None) -> RecoveryReport:
    """Rebuild ``service``'s registry from ``wal``; returns a report.

    The service must be fresh: the caller attaches the WAL *after*
    recovery, so replayed records are not re-logged.  ``applier`` is the
    :class:`~repro.serve.replication.WalApplier` a cluster worker keeps
    using for replication and adoption.
    """
    # Imported here: replication imports this module; recover is the only
    # hop back, so the lazy import keeps both importable in either order.
    from repro.serve.replication import WalApplier

    if service.wal is not None:
        raise ValueError("recover() needs a service without an attached WAL")
    applier = applier if applier is not None else WalApplier(service)
    # One wal.replay span covers the scan and every replayed record.
    with service.obs.tracer.span("wal.replay", path=str(wal.path)) as replay_span:
        entries = wal.replay()
        replay_span.set_attribute("entries", len(entries))
        for entry in entries:
            applier.apply(entry)
    return RecoveryReport(
        applier.runs_restored, applier.epochs_replayed, wal.tail_dropped
    )
