"""Content-addressed result cache with an LRU byte budget.

Every query answer the service hands out is a pure function of *content*:
the training-log prefix ingested so far (hashed with the same array scheme
as the checksums :mod:`repro.io` embeds in ``.npz`` files), the validation
set and model architecture, the estimator configuration, and the query
parameters.  Keying the cache on those digests — never on run ids — means
two runs registered from the same saved log share every cached answer and
every memoised validation gradient, and a re-registration after a server
restart is warm from the first query.

The cache is a plain LRU over a byte budget: small (a few MB) because the
cached values are per-party score vectors and JSON payloads, not
gradients.  Hit/miss/eviction counters feed ``/metricz``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterator, MutableMapping

import numpy as np

from repro.hfl.log import EpochRecord
from repro.io import hash_arrays
from repro.metrics.cost import nbytes
from repro.vfl.log import VFLEpochRecord


def payload_nbytes(value: Any) -> int:
    """Byte cost charged against the budget for one cached value."""
    try:
        return max(nbytes(value), 1)
    except TypeError:
        # Unsized objects (reports, futures) are charged a flat guess; the
        # budget is about bounding memory, not accounting it to the byte.
        return 1024


class RunDigest:
    """Content identity of a training-log prefix: an immutable hash chain.

    ``d_0`` hashes the run's static fingerprint (estimator kind and
    options, validation-set and model-architecture hashes); epoch ``t``
    extends it, ``d_t = SHA-256(d_{t-1} ‖ h_t)``, where ``h_t`` is the
    record's :func:`repro.io.hash_arrays` hash (the scheme of the ``.npz``
    checksums), so identical logs collapse onto identical cache keys.
    Each update returns the next link and leaves this one as it was; the
    WAL logs every ``h_t`` and ``d_t``, so a restored run resumes its
    chain from the recorded digest (:meth:`resume`).
    """

    __slots__ = ("_hex", "epochs", "record_hash")

    def __init__(self, *seed_parts: str) -> None:
        digest = hashlib.sha256()
        for part in seed_parts:
            digest.update(part.encode())
            digest.update(b"\x00")
        self._hex = digest.hexdigest()
        self.epochs = 0
        self.record_hash: str | None = None  # h_t of this link (d_0: None)

    @classmethod
    def resume(
        cls, hexdigest: str, epochs: int = 0, record_hash: str | None = None
    ) -> "RunDigest":
        """The chain link ``hexdigest``, at ``epochs`` ingested epochs."""
        link = cls.__new__(cls)
        link._hex, link.epochs, link.record_hash = hexdigest, epochs, record_hash
        return link

    def extend(self, record_hash: str) -> "RunDigest":
        """The next link: ``d_t = SHA-256(d_{t-1} ‖ h_t)``."""
        chained = hashlib.sha256(bytes.fromhex(self._hex) + bytes.fromhex(record_hash))
        return RunDigest.resume(chained.hexdigest(), self.epochs + 1, record_hash)

    def update_hfl(self, record: EpochRecord) -> "RunDigest":
        """The link after one HFL epoch record."""
        return self.extend(_record_hash(record, "local_updates"))

    def update_vfl(self, record: VFLEpochRecord) -> "RunDigest":
        """The link after one VFL epoch record."""
        return self.extend(_record_hash(record, "train_gradient", "val_gradient"))

    def hexdigest(self) -> str:
        return self._hex


def _record_hash(record, *names: str) -> str:
    """``h_t``: the epoch's named arrays, participation and (epoch, lr)."""
    arrays = {name: getattr(record, name) for name in ("theta_before", "weights", *names)}
    arrays["participation"] = record.participation_mask().astype(np.uint8)
    digest = hashlib.sha256()
    hash_arrays(digest, arrays)
    digest.update(repr((record.epoch, record.lr)).encode())
    return digest.hexdigest()


def fingerprint_arrays(**arrays: np.ndarray) -> str:
    """SHA-256 fingerprint of named arrays (validation sets, blocks)."""
    digest = hashlib.sha256()
    hash_arrays(digest, {k: np.asarray(v) for k, v in arrays.items()})
    return digest.hexdigest()


class ResultCache:
    """Thread-safe LRU cache bounded by a byte budget.

    ``get``/``put`` are the raw interface; :meth:`get_or_compute` is the
    read-through form the service uses; :meth:`memo` adapts a key prefix
    into the ``MutableMapping`` interface
    :func:`repro.core.valgrad.epoch_validation_gradient` expects.

    A value larger than the whole budget is never admitted (it would only
    evict everything and then miss anyway); the ``rejected`` counter
    records those.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    def get(self, key) -> Any | None:
        """The cached value, marked most-recently-used — or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, value, size: int | None = None) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past the budget."""
        size = payload_nbytes(value) if size is None else int(size)
        with self._lock:
            if size > self.max_bytes:
                self.rejected += 1
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    def get_or_compute(self, key, compute: Callable[[], Any]) -> Any:
        """Read-through lookup: one miss computes and caches the value.

        The compute runs outside the cache lock — concurrent misses on the
        same key may compute twice (both arrive at the same value, since
        keys are content hashes), but a slow computation never blocks
        unrelated hits.
        """
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def register_metrics(self, registry, *, prefix: str = "repro_serve_cache") -> None:
        """Expose this cache on a :class:`repro.obs.registry.MetricsRegistry`.

        Lookup outcomes become one labelled counter family
        (``{prefix}_events_total{event=...}``: hits, misses, evictions,
        rejections) read at scrape time — no extra work on the lookup
        path — plus byte/entry gauges.  ``exist_ok``: re-registering
        after a cache swap replaces the callbacks.
        """
        for event in ("hits", "misses", "evictions", "rejected"):
            registry.register(
                f"{prefix}_events_total",
                (lambda e=event: getattr(self, e)),
                kind="counter",
                help="Result-cache lookup outcomes by event type",
                labels={"event": event},
                exist_ok=True,
            )
        registry.register(
            f"{prefix}_bytes",
            lambda: self.current_bytes,
            kind="gauge",
            help="Bytes currently held by the result cache",
            exist_ok=True,
        )
        registry.register(
            f"{prefix}_entries",
            lambda: len(self),
            kind="gauge",
            help="Entries currently held by the result cache",
            exist_ok=True,
        )

    def stats(self) -> dict[str, int]:
        """Counters for ``/metricz``; ``lookups = hits + misses`` always."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "lookups": self.hits + self.misses,
                "evictions": self.evictions,
                "rejected": self.rejected,
            }

    def memo(self, prefix: str) -> "CacheMemo":
        """A ``MutableMapping`` view of this cache under a key namespace."""
        return CacheMemo(self, prefix)


class CacheMemo(MutableMapping):
    """Mapping adapter: ``memo[k]`` ⇄ ``cache[(prefix, k)]``.

    Plugs a :class:`ResultCache` into memo-taking helpers like
    :func:`repro.core.valgrad.validation_gradients`, so validation
    gradients share the budget — and the eviction policy — with query
    results.  Deletion and iteration are unsupported (an LRU cache is not
    an inventory); ``len`` reports the whole cache.
    """

    def __init__(self, cache: ResultCache, prefix: str) -> None:
        self.cache = cache
        self.prefix = prefix

    def __getitem__(self, key):
        value = self.cache.get((self.prefix, key))
        if value is None:
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        value = self.cache.get((self.prefix, key))
        return default if value is None else value

    def __setitem__(self, key, value) -> None:
        self.cache.put((self.prefix, key), value)

    def put(self, key, value, size: int | None = None) -> None:
        """``memo[key] = value``, charged ``size`` bytes when given.

        Values :func:`payload_nbytes` cannot size (parsed logs, datasets)
        would otherwise be charged a flat 1 KiB against the budget.
        """
        self.cache.put((self.prefix, key), value, size)

    def __delitem__(self, key) -> None:
        raise TypeError("cache-backed memos do not support deletion")

    def __iter__(self) -> Iterator:
        raise TypeError("cache-backed memos are not iterable")

    def __len__(self) -> int:
        return len(self.cache)
