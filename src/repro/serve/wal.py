"""Write-ahead log and crash recovery for the serving registry.

PR 2's `CheckpointManager` made *training* crash-safe; this module does
the same for *serving*.  A `repro serve` process accumulates state that
is expensive to lose — registered runs and the exact log prefix each one
has ingested — yet none of it was durable: a kill meant every client
re-registering from scratch.  The :class:`WriteAheadLog` records, before
the service acknowledges them, two kinds of facts:

* ``register`` — the ``POST /runs`` spec (kind, log path, dataset/seed,
  resolved run id): everything needed to rebuild the run's estimator;
* ``ingest`` — one record per ingested epoch carrying the run's
  incremental content digest *after* that epoch (the same
  :func:`repro.io.hash_arrays`-based :class:`~repro.serve.cache.RunDigest`
  the result cache keys on).

Each line is JSON stamped with a :func:`repro.io.json_checksum` and
written and flushed on its own, so a SIGKILL can tear at most the final
line.  :func:`replay` tolerates exactly that torn tail (dropped with a
warning); corruption *before* the tail raises :class:`WalCorruption` —
a mid-file flip means the history cannot be trusted.  Durability is per
*commit*: a live ``ingest`` fsyncs its one record, while a ``POST
/runs`` writes its register record and every epoch record, then fsyncs
once (:meth:`WriteAheadLog.commit`) before the service acknowledges
anything.

:func:`recover` rebuilds an :class:`~repro.serve.service.EvaluationService`
from a WAL: it re-registers every spec, replays each run's saved ``.npz``
log **to the exact ingested epoch** recorded in the WAL, and verifies the
rebuilt digest against the recorded one epoch by epoch — so the recovered
service serves contributions bit-for-bit equal to an uninterrupted run of
the same prefix (``np.array_equal``; CI kills the server with SIGKILL
mid-ingest to prove it).  A digest mismatch means the log file changed
since the WAL was written and raises :class:`RecoveryError` rather than
silently serving different numbers.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.io import json_checksum

REGISTER = "register"
INGEST = "ingest"
_KINDS = frozenset({REGISTER, INGEST})


class WalCorruption(RuntimeError):
    """The WAL has a bad record *before* its final line; history is suspect."""


class RecoveryError(RuntimeError):
    """The WAL replayed, but the world no longer matches it.

    Typically: a training-log file referenced by a ``register`` record is
    missing epochs the WAL says were ingested, or its content digest no
    longer matches the recorded one.  Recovery refuses rather than serve
    numbers that differ from what the pre-crash service acknowledged.
    """


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
    """What :func:`recover` rebuilt, and what it had to leave behind."""

    runs_restored: int = 0
    epochs_replayed: int = 0
    runs_skipped: list = field(default_factory=list)
    epochs_skipped: int = 0
    tail_dropped: bool = False

    def summary(self) -> str:
        line = (
            f"recovered {self.runs_restored} run(s), "
            f"{self.epochs_replayed} epoch(s) replayed"
        )
        if self.runs_skipped:
            line += f"; skipped runs: {', '.join(self.runs_skipped)}"
        if self.epochs_skipped:
            line += f"; {self.epochs_skipped} unreplayable epoch record(s)"
        if self.tail_dropped:
            line += "; torn tail record dropped"
        return line


class WriteAheadLog:
    """Append-only, fsync'd, checksummed record of registry mutations.

    One WAL file (``serve.wal`` inside ``directory``) serves one
    :class:`EvaluationService` process at a time.  Opening an existing
    file resumes its sequence numbers and truncates any torn tail, so
    append-after-recovery keeps the file replayable.  Every record is
    written and flushed as it is appended; the ``fsync`` is per commit —
    an :meth:`append` commits its own record unless told ``sync=False``,
    and :meth:`commit` then makes every record written so far durable
    with one ``fsync``.  ``fsync=False`` skips the ``fsync`` altogether,
    for speed in benchmarks; the CLI always runs fsync'd.
    """

    FILENAME = "serve.wal"

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self.directory.mkdir(parents=True, exist_ok=True)
        entries, good_bytes, torn = self._scan()
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
        """All validated entries, oldest first.

        A bad or truncated *final* line is the expected signature of a
        kill mid-append; it was dropped (with a :class:`UserWarning`) and
        truncated away when this handle was opened.  A bad line with
        valid records after it raises :class:`WalCorruption`.
        """
        entries, _, _ = self._scan()
        return entries

    def _scan(self) -> tuple[list[WalEntry], int, bool]:
        """(valid entries, byte length of the valid prefix, torn tail?)."""
        return scan_wal(self.path)

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

    The service must be fresh (no WAL attached yet — the caller attaches
    it *after* recovery so replayed ingests are not re-logged).  Runs
    whose log file has vanished are skipped and reported, not fatal:
    losing one file must not take down recovery of the rest.  Digest
    mismatches are fatal (:class:`RecoveryError`) — they mean the bytes
    behind an acknowledged prefix changed.

    ``applier`` lets a cluster worker pass the
    :class:`~repro.serve.replication.WalApplier` it will keep using for
    streaming replication / adoption, so recovery warms the applier's
    run-spec cache — a restarted standby can then apply fresh ingest
    frames for runs it recovered locally.
    """
    # Imported here: replication imports this module; recover is the only
    # hop back, so the lazy import keeps both importable in either order.
    from repro.serve.replication import WalApplier

    if service.wal is not None:
        raise ValueError("recover() needs a service without an attached WAL")
    report = RecoveryReport(tail_dropped=wal.tail_dropped)
    # One wal.replay span covers the scan and every replayed record; it is
    # thread-local-active here, so the serve.ingest spans the replay loop
    # triggers all parent under it — recovery reads as a single trace.
    with service.obs.tracer.span("wal.replay", path=str(wal.path)) as replay_span:
        entries = wal.replay()
        replay_span.set_attribute("entries", len(entries))
        if applier is None:
            applier = WalApplier(service)
        for entry in entries:
            applier.apply(entry)
    report.runs_restored = applier.runs_restored
    report.epochs_replayed = applier.epochs_replayed
    report.runs_skipped = list(applier.runs_skipped)
    report.epochs_skipped = applier.epochs_skipped
    return report
