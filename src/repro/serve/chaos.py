"""Deterministic fault injection for the serving layer.

The resilience machinery of :mod:`repro.serve.resilience` is only worth
having if every behaviour — deadline 504s, load-shed 429s, breaker
trips, stale-marked degraded answers, publisher dead-letters, WAL
recovery — can be *provoked on demand and reproduced exactly*.  This
module is that provocation: wrappers that sit at the estimator and sink
boundaries and inject, on a seeded RNG,

* **latency spikes** — a configurable sleep before the wrapped call
  (the ``sleep`` function is injectable, so tests can fake time);
* **raised exceptions** — :class:`ChaosError` from inside the compute;
* **corrupted payloads** — NaN-poisoned contribution vectors, which the
  service's payload validation must catch and treat as a failure rather
  than cache or serve.

Decisions are drawn from ``np.random.default_rng(seed)`` in call order,
so a chaos scenario is a pure function of (seed, call sequence) — the
chaos test suite asserts breaker state *transitions*, not just
distributions.  Nothing in this module is imported by the production
path; it lives in the package (rather than under ``tests/``) so the CI
chaos job, the benchmarks and ``examples/resilient_leaderboard.py`` can
all drive the same harness.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


class ChaosError(RuntimeError):
    """The injected failure; distinct so tests never mask real bugs."""


class ChaosPolicy:
    """Seeded decisions: when to delay, fail, or corrupt.

    Probabilities are evaluated per call, in a fixed order (latency,
    then error, then corruption), each consuming one uniform draw —
    which keeps the decision sequence stable when probabilities change.
    ``arm()`` / ``disarm()`` toggle injection without disturbing the RNG
    stream, so a scenario can inject, heal, and re-inject mid-test.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        latency_prob: float = 0.0,
        latency_ms: float = 0.0,
        error_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        for name, p in (
            ("latency_prob", latency_prob),
            ("error_prob", error_prob),
            ("corrupt_prob", corrupt_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.latency_prob = latency_prob
        self.latency_ms = latency_ms
        self.error_prob = error_prob
        self.corrupt_prob = corrupt_prob
        self._sleep = sleep
        self._rng = np.random.default_rng(seed)
        self._armed = True
        self.injected = {"latency": 0, "error": 0, "corrupt": 0}

    def arm(self) -> None:
        self._armed = True

    def disarm(self) -> None:
        """Heal: stop injecting (the RNG stream keeps advancing)."""
        self._armed = False

    def before_call(self, what: str) -> None:
        """Maybe delay, maybe raise — called on entry to a wrapped method."""
        delay = self._rng.random() < self.latency_prob
        fail = self._rng.random() < self.error_prob
        if not self._armed:
            return
        if delay and self.latency_ms > 0:
            self.injected["latency"] += 1
            self._sleep(self.latency_ms / 1e3)
        if fail:
            self.injected["error"] += 1
            raise ChaosError(f"injected failure in {what}")

    def corrupt(self, value: np.ndarray) -> np.ndarray:
        """Maybe NaN-poison a result vector (copy; never mutates input)."""
        hit = self._rng.random() < self.corrupt_prob
        if not (self._armed and hit):
            return value
        self.injected["corrupt"] += 1
        poisoned = np.array(value, dtype=np.float64, copy=True)
        if poisoned.size:
            poisoned.flat[int(self._rng.integers(poisoned.size))] = np.nan
        return poisoned


class ChaosEstimator:
    """A streaming estimator with a :class:`ChaosPolicy` at every entry point.

    Wraps any ``_StreamingBase`` subclass; attribute access falls through
    to the wrapped estimator, while the methods the service's compute
    closures call (``ingest``, ``totals``, ``leaderboard``,
    ``current_weights``, ``report``) first give the policy a chance to
    delay or raise, and result vectors pass through ``corrupt``.  Install
    with :func:`inject_chaos`.
    """

    def __init__(self, inner, policy: ChaosPolicy) -> None:
        self._inner = inner
        self.policy = policy

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ingest(self, record, **kwargs):
        self.policy.before_call("ingest")
        return self._inner.ingest(record, **kwargs)

    def totals(self):
        self.policy.before_call("totals")
        return self.policy.corrupt(self._inner.totals())

    def leaderboard(self, top=None):
        self.policy.before_call("leaderboard")
        totals = self.policy.corrupt(self._inner.totals())
        order = np.argsort(totals)[::-1]
        if top is not None:
            order = order[:top]
        return [(self._inner.participant_ids[i], float(totals[i])) for i in order]

    def current_weights(self, scheme: str = "rectified", temperature: float = 1.0):
        self.policy.before_call("current_weights")
        return self.policy.corrupt(
            self._inner.current_weights(scheme, temperature)
        )

    def report(self):
        self.policy.before_call("report")
        return self._inner.report()


def inject_chaos(service, run_id: str, policy: ChaosPolicy) -> ChaosEstimator:
    """Wrap a registered run's estimator in chaos; returns the wrapper.

    Takes the run's lock for the swap, so in-flight requests never see a
    half-installed wrapper.
    """
    run = service._run(run_id)
    with run.lock:
        wrapped = ChaosEstimator(run.estimator, policy)
        run.estimator = wrapped
    return wrapped


def delay_ingest(service, delay_ms: float) -> None:
    """Sleep ``delay_ms`` before every epoch ``service.ingest``.

    The ``--chaos-ingest-ms`` hook of ``repro serve`` and of every cluster
    worker: it widens the window in which a SIGKILL lands mid-ingest.
    """
    ingest = service.ingest

    def slow_ingest(run_id, record, **kwargs):
        time.sleep(delay_ms / 1e3)
        return ingest(run_id, record, **kwargs)

    service.ingest = slow_ingest


class FlakyProxy:
    """A sink/service proxy whose named methods fail the first ``failures`` times.

    The publisher-retry tests wrap an :class:`EvaluationService` in one of
    these: ``ingest`` raises :class:`ChaosError` for the first N calls,
    then recovers — transient sink failure, scripted.  Methods not listed
    pass straight through.
    """

    def __init__(self, inner, failures: int, *, methods: tuple = ("ingest",)) -> None:
        self._inner = inner
        self._budget = {name: failures for name in methods}
        self.calls = {name: 0 for name in methods}

    def __getattr__(self, name):
        target = getattr(self._inner, name)
        if name not in self._budget:
            return target

        def flaky(*args, **kwargs):
            self.calls[name] += 1
            if self._budget[name] > 0:
                self._budget[name] -= 1
                raise ChaosError(f"injected transient failure in {name}")
            return target(*args, **kwargs)

        return flaky
