"""Resilience primitives for the serving layer: fail *soft*, never fall over.

Queries read an immutable per-run answer snapshot and never wait
(:mod:`repro.serve.service`), so nothing here guards a read beyond
admission.  The toolbox:

* :class:`Deadline` — a cooperative time budget for a batched
  :meth:`~repro.serve.service.EvaluationService.ingest_log`, checked
  between records; expiry raises :class:`DeadlineExceeded` carrying the
  epochs ingested so far, which the HTTP layer maps to 504.
* :class:`AdmissionQueue` — a bounded admission counter at the query
  door with depth / in-flight gauges; a full queue sheds load with
  :class:`ServiceOverloaded` (HTTP 429 + ``Retry-After`` derived from
  the latency histogram's p95) instead of queueing unboundedly.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, one per shard in the cluster router
  (:mod:`repro.serve.cluster`): after ``failure_threshold`` consecutive
  failures the breaker opens and the router stops dialling the shard;
  after ``reset_s`` one half-open probe is let through.
* :class:`RetryPolicy` — exponential backoff with *decorrelated jitter*
  (seeded, so tests are deterministic) for the publisher's
  retry-then-dead-letter loop; :class:`Backoff` for respawn loops.
* the typed error family (:class:`ServiceClosed`,
  :class:`ServiceOverloaded`, :class:`DeadlineExceeded`) that gives
  every failure mode a distinct HTTP status — nothing resilience-related
  ever surfaces as a bare 500.

Everything here is stdlib + numpy, allocation-light on the happy path
(``benchmarks/bench_resilience.py`` pins the armed warm-read overhead at
<5%).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.metrics.cost import Gauge


class ServiceClosed(RuntimeError):
    """The service was shut down; queries and ingests must fail fast.

    The HTTP layer maps this to 503 — a closed service is a deploy or
    shutdown in progress, not a client error.
    """

    def __init__(self, message: str = "evaluation service is closed") -> None:
        super().__init__(message)


class ServiceOverloaded(RuntimeError):
    """The admission queue is full; retry after ``retry_after_s`` seconds."""

    def __init__(self, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue is full ({depth}/{limit} requests in flight); "
            f"retry in {retry_after_s:.2f}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """A request overran its deadline; ``progress`` says how far it got."""

    def __init__(
        self, budget_ms: float, elapsed_ms: float, progress: dict | None = None
    ) -> None:
        super().__init__(
            f"deadline of {budget_ms:.0f}ms exceeded after {elapsed_ms:.0f}ms"
        )
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms
        self.progress = dict(progress or {})


class Deadline:
    """A cooperative time budget.

    Batched ingestion calls :meth:`check` between records.
    ``Deadline.start(None)`` returns ``None`` so the no-deadline path
    pays nothing.
    """

    __slots__ = ("budget_s", "_started")

    def __init__(self, budget_ms: float) -> None:
        if budget_ms <= 0:
            raise ValueError(f"deadline must be positive, got {budget_ms}ms")
        self.budget_s = budget_ms / 1e3
        self._started = time.monotonic()

    @classmethod
    def start(cls, budget_ms: float | None) -> "Deadline | None":
        return None if budget_ms is None else cls(budget_ms)

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def remaining_s(self) -> float:
        """Seconds left (never negative; 0.0 means expired)."""
        return max(0.0, self.budget_s - self.elapsed_s)

    def expired(self) -> bool:
        return self.elapsed_s >= self.budget_s

    def check(self, **progress) -> None:
        """Raise :class:`DeadlineExceeded` (with progress) once overrun."""
        elapsed = self.elapsed_s
        if elapsed >= self.budget_s:
            raise DeadlineExceeded(self.budget_s * 1e3, elapsed * 1e3, progress)



class AdmissionQueue:
    """Bounded admission at the query door, with gauges.

    ``try_acquire`` admits a request (or refuses, returning ``False``)
    and bumps the ``depth`` gauge — admitted-but-unfinished requests.
    Readers bracket their actual execution with :meth:`enter` /
    :meth:`exit` for the ``in_flight`` gauge, and every request ends
    with :meth:`release`.  ``limit=None`` disables shedding
    (the gauges still count), which is the library default — bounding is
    an operator decision (``repro serve --max-queue``).
    """

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError(f"admission limit must be positive, got {limit}")
        self.limit = limit
        self.depth = Gauge()
        self.in_flight = Gauge()
        self.shed = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Admit one request; ``False`` (and a ``shed`` count) when full."""
        with self._lock:
            if self.limit is not None and self.depth.value >= self.limit:
                self.shed += 1
                return False
            self.depth.inc()
            return True

    def release(self) -> None:
        self.depth.dec()

    def enter(self) -> None:
        self.in_flight.inc()

    def exit(self) -> None:
        self.in_flight.dec()

    def stats(self) -> dict:
        return {
            "limit": self.limit,
            "depth": self.depth.value,
            "peak_depth": self.depth.peak,
            "in_flight": self.in_flight.value,
            "peak_in_flight": self.in_flight.peak,
            "shed": self.shed,
        }


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one router shard.

    ``failure_threshold`` *consecutive* failures (proxy errors or failed
    health probes) open the breaker; while open, :meth:`allow` refuses
    the dial until ``reset_s`` has passed, after which exactly one
    half-open probe is admitted — success closes the breaker, failure
    re-opens it and re-arms the timer.  ``clock`` is injectable so the
    tests drive transitions deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_s: float = 30.0,
        *,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if reset_s < 0:
            raise ValueError(f"reset_s must be non-negative, got {reset_s}")
        self.failure_threshold = failure_threshold
        self.reset_s = reset_s
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._lock = threading.Lock()
        self.opens = 0  # lifetime count, for /metricz

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_aware_state()

    def _probe_aware_state(self) -> str:
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.reset_s
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a compute run now?  (Open refuses; half-open admits one.)"""
        # Fast path: a closed breaker is one unlocked read on the hot path.
        if self._state == self.CLOSED:
            return True
        with self._lock:
            state = self._probe_aware_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probing:
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def cancel_probe(self) -> None:
        """Release a held half-open probe slot without recording an outcome.

        Used when the admitted probe died of a *caller* error: that says
        nothing about the shard's health, so neither success nor failure
        is recorded — but the slot must be freed, or a half-open breaker
        would refuse every future dial forever.  No-op when no probe is
        held.
        """
        with self._lock:
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._trip()
            elif self._state == self.OPEN:
                # A straggling failure while already open re-arms the timer.
                self._trip()

    def _trip(self) -> None:
        if self._state != self.OPEN:
            self.opens += 1
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._probing = False

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._probe_aware_state(),
                "consecutive_failures": self._failures,
                "opens": self.opens,
            }


class RetryPolicy:
    """Exponential backoff with decorrelated jitter, seeded.

    ``delays()`` yields at most ``max_retries`` sleep durations:
    ``d_{k+1} = min(cap, U(base, 3·d_k))`` — the AWS "decorrelated
    jitter" recurrence, which spreads retry storms without the lockstep
    of plain exponential backoff.  The RNG is seeded so the publisher's
    retry schedule (and every chaos test above it) is reproducible.
    """

    def __init__(
        self,
        max_retries: int = 4,
        *,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if base_delay_s <= 0 or max_delay_s < base_delay_s:
            raise ValueError(
                f"need 0 < base_delay_s <= max_delay_s, got "
                f"{base_delay_s} / {max_delay_s}"
            )
        self.max_retries = max_retries
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self._rng = np.random.default_rng(seed)

    def delays(self):
        """Yield the back-off sleeps for one publish attempt sequence."""
        delay = self.base_delay_s
        for _ in range(self.max_retries):
            delay = min(
                self.max_delay_s,
                float(self._rng.uniform(self.base_delay_s, delay * 3.0)),
            )
            yield delay


class Backoff:
    """Capped exponential backoff gate for respawn/crash loops, seeded.

    The cluster supervisor keeps one per shard: every spawn attempt calls
    :meth:`record_failure`, which arms a not-before deadline of
    ``min(cap, base · 2^(attempts-1))`` scaled by uniform jitter in
    ``[0.5, 1.5)`` (seeded, so chaos tests see one schedule).  Until that
    deadline :meth:`ready` answers ``False`` and the monitor loop skips
    the respawn instead of hot-spinning on a shard that dies on boot.
    The first attempt is always immediate — a fresh ``Backoff`` (or one
    just :meth:`reset` after a stability window of healthy probes) has no
    deadline armed, so a one-off crash still fails over at probe speed.

    ``clock`` is injectable for deterministic tests; ``remaining_s`` is
    what ``GET /cluster`` surfaces as ``respawn_backoff_s``.
    """

    def __init__(
        self,
        base_s: float = 0.5,
        cap_s: float = 30.0,
        *,
        seed: int = 0,
        clock=time.monotonic,
    ) -> None:
        if base_s <= 0 or cap_s < base_s:
            raise ValueError(f"need 0 < base_s <= cap_s, got {base_s} / {cap_s}")
        self.base_s = base_s
        self.cap_s = cap_s
        self.attempts = 0
        self._clock = clock
        self._rng = np.random.default_rng(seed)
        self._not_before = float("-inf")
        self._lock = threading.Lock()

    def ready(self) -> bool:
        """May the next spawn attempt proceed now?"""
        with self._lock:
            return self._clock() >= self._not_before

    def remaining_s(self) -> float:
        """Seconds until the next attempt is admitted (0.0 when ready)."""
        with self._lock:
            return max(0.0, self._not_before - self._clock())

    def record_failure(self) -> float:
        """Count one spawn attempt and arm the delay before the next.

        Returns the armed delay in seconds (0 < delay <= 1.5·cap).
        """
        with self._lock:
            self.attempts += 1
            delay = min(self.cap_s, self.base_s * 2.0 ** (self.attempts - 1))
            delay *= float(self._rng.uniform(0.5, 1.5))
            self._not_before = self._clock() + delay
            return delay

    def reset(self) -> None:
        """The shard proved stable; the next failure starts over at base."""
        with self._lock:
            self.attempts = 0
            self._not_before = float("-inf")


def retry_after_seconds(p95_s: float, depth: int) -> float:
    """A ``Retry-After`` hint from the latency histogram's p95.

    The queue ahead of a shed request is ``depth`` deep; at p95 service
    time per entry, ``p95 · (depth + 1)`` is a conservative drain
    estimate.  Floored at 1s (sub-second Retry-After just invites an
    immediate retry storm) and rounded up to whole seconds, as the
    HTTP header requires.
    """
    import math

    return float(max(1, math.ceil(p95_s * (depth + 1))))
