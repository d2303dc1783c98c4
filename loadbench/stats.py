"""Pure numeric helpers: the percentile rule and instrument deltas.

Nothing here talks to a server, so the self-tests pin every rule the
benchmark's numbers rest on: which percentile a sample supports, how a
counter or a bucketed histogram is turned into a per-phase delta, and
how a quantile is read back out of such a delta.
"""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  A sample supports the highest
# one that still leaves at least MIN_BEYOND observations above it.
TAIL_LADDER = (0.5, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of an ascending, non-empty list."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` observations lie above the nearest-rank ``q`` point."""
    return n - max(1, math.ceil(q * n))


def tail_quantile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    supported = [q for q in TAIL_LADDER if beyond(n, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def quantile_label(q: float) -> str:
    """``0.975`` -> ``"p97.5"``; ``0.5`` -> ``"p50"``."""
    return "p" + f"{q * 100:.3f}".rstrip("0").rstrip(".")


def summarize(values: list[float]) -> dict:
    """Median and supported tail of a non-empty sample, with its count.

    When no ladder percentile has ``MIN_BEYOND`` samples beyond it (a
    very short run), the tail is the maximum and is labelled ``max``.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = tail_quantile(n)
    return {
        "n": n,
        "p50": nearest_rank(ordered, 0.5),
        "tail": nearest_rank(ordered, q) if q is not None else ordered[-1],
        "tail_label": quantile_label(q) if q is not None else "max",
        "tail_beyond": beyond(n, q) if q is not None else 0,
    }


# ------------------------------------------------------------ instruments


def counter_delta(before: float | None, after: float | None) -> float:
    """A monotone counter's growth; a series born mid-phase started at 0."""
    after = after or 0.0
    before = before or 0.0
    if after < before:
        raise ValueError(
            f"counter went backwards ({before} -> {after}): the process "
            "restarted mid-phase"
        )
    return after - before


def histogram_delta(before: dict | None, after: dict) -> dict:
    """Bucket-wise ``after - before`` of two histogram snapshots.

    Snapshots are the program's ``LatencyHistogram.snapshot()`` dicts as
    served by ``/metricz?format=snapshot`` (``bounds``, ``bucket_counts``,
    ``count``, ``total``, ``max``).  ``before=None`` means the series did
    not exist yet.  The delta keeps the ``after`` snapshot's ``max`` as an
    upper bound for the overflow bucket.
    """
    bounds = [float(b) for b in after["bounds"]]
    counts = [int(c) for c in after["bucket_counts"]]
    count = int(after["count"])
    total = float(after["total"])
    if before is not None:
        if [float(b) for b in before["bounds"]] != bounds:
            raise ValueError("histogram bounds changed between snapshots")
        counts = [a - int(b) for a, b in zip(counts, before["bucket_counts"])]
        count -= int(before["count"])
        total -= float(before["total"])
    if min(counts, default=0) < 0 or count < 0:
        raise ValueError("histogram went backwards: the process restarted")
    return {
        "bounds": bounds,
        "bucket_counts": counts,
        "count": count,
        "total": total,
        "max": float(after["max"]),
    }


def merge_histograms(deltas: list[dict]) -> dict | None:
    """Bucket-wise sum of deltas sharing bounds (workers, endpoints)."""
    deltas = [d for d in deltas if d is not None]
    if not deltas:
        return None
    bounds = deltas[0]["bounds"]
    counts = [0] * len(deltas[0]["bucket_counts"])
    for delta in deltas:
        if delta["bounds"] != bounds:
            raise ValueError("cannot merge histograms with different bounds")
        counts = [a + b for a, b in zip(counts, delta["bucket_counts"])]
    return {
        "bounds": bounds,
        "bucket_counts": counts,
        "count": sum(d["count"] for d in deltas),
        "total": sum(d["total"] for d in deltas),
        "max": max(d["max"] for d in deltas),
    }


def histogram_quantile(delta: dict | None, q: float) -> float:
    """The ``q``-quantile of a histogram delta, interpolated in its bucket.

    Linear interpolation between the bucket's lower and upper bound (the
    overflow bucket is capped at the observed max) reads finer than the
    program's own bucket-upper-bound percentile, which only moves in
    1-2.5-5 steps.  An empty delta reads 0.
    """
    if delta is None or delta["count"] == 0:
        return 0.0
    bounds = delta["bounds"]
    rank = q * delta["count"]
    seen = 0
    for bucket, n in enumerate(delta["bucket_counts"]):
        if n and seen + n >= rank:
            lower = bounds[bucket - 1] if bucket > 0 else 0.0
            upper = bounds[bucket] if bucket < len(bounds) else max(
                delta["max"], lower
            )
            return lower + (upper - lower) * (rank - seen) / n
        seen += n
    return delta["max"]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def unattributed(e2e_mean_ms: float, layer_self_ms: dict[str, float]) -> float:
    """What the layers do not explain: e2e mean minus summed mean self times."""
    return e2e_mean_ms - sum(layer_self_ms.values())
