"""Per-layer self times from the spans the traced run recorded.

A span's self time is its duration minus the part of that interval its
child spans cover.  Self times add up: the self times of every span in a
tree sum to the root's duration.  Grouping them by layer and dividing by
the number of client operations gives a per-operation breakdown whose
remainder against the end-to-end median is the ``unattributed`` time —
the socket, the kernel and whatever else no span covers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# Span name -> layer.  ``phase:*`` spans are the program's own profiler
# phases; the rest wrap public functions (see trace_hook/sitecustomize.py).
LAYERS = (
    "http", "router", "hop", "service", "cache", "spec", "io",
    "estimator", "coalition", "wal",
)
_LAYER_OF = {
    "http.dispatch": "http",
    "router.dispatch": "router",
    "router.proxy": "hop",
    "service.query": "service",
    "service.ingest": "service",
    "cache.get": "cache",
    "cache.put": "cache",
    "cache.digest_update": "cache",
    "phase:cache.digest": "cache",
    "spec.register": "spec",
    "spec.validation_build": "spec",
    "io.load_log": "io",
    "phase:estimator.valgrad": "estimator",
    "phase:estimator.dot_products": "estimator",
    "coalition.value": "coalition",
    "coalition.cache_hit": "coalition",
    "phase:gtg.reconstruct": "coalition",
    "phase:gtg.eval_round": "coalition",
    "phase:dpvs.reconstruct": "coalition",
    "phase:dpvs.eval_round": "coalition",
    "wal.append": "wal",
    "phase:wal.fsync": "wal",
}


def layer_of(name: str) -> str:
    if name.startswith("estimator.ingest."):
        return "estimator"
    return _LAYER_OF.get(name, "other")


class Span:
    """One recorded span, identified by ``(process, id)``."""

    __slots__ = ("proc", "name", "start", "end", "sid", "parent", "op", "root")

    def __init__(self, proc, name, start, end, sid, parent, op, root) -> None:
        self.proc = proc
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.sid = sid
        self.parent = parent
        self.op = op
        self.root = root

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[tuple, float]:
    """``(proc, sid) -> self seconds`` for every span."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.proc, span.parent)].append((span.start, span.end))
    return {
        (s.proc, s.sid): s.duration
        - covered(s.start, s.end, children.get((s.proc, s.sid), []))
        for s in spans
    }


def load(trace_dir: Path) -> list[Span]:
    """Every span the traced processes wrote."""
    spans: list[Span] = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans.extend(Span(payload["pid"], *row) for row in payload["spans"])
    return spans


def within(spans: list[Span], window: tuple[float, float]) -> list[Span]:
    """The spans of every tree whose root started inside ``window``."""
    roots = {
        (s.proc, s.sid) for s in spans if not s.parent and window[0] <= s.start < window[1]
    }
    return [s for s in spans if (s.proc, s.root) in roots]


def op_breakdown(
    spans: list[Span], selves: dict[tuple, float], op: str
) -> tuple[int, dict[str, float]]:
    """Client operations of kind ``op`` and mean self seconds per layer.

    The front door's root spans count the operations: the router's
    when a router took part, else the worker's.  Behind a router, the
    proxy span's own time covers the worker's whole request in another
    process, so the ``hop`` layer is the proxy time minus the worker
    root spans' time — the part of the router-to-worker hop no worker
    span explains.
    """
    of_op = [s for s in spans if s.op == op]
    router_roots = [s for s in of_op if s.name == "router.dispatch" and not s.parent]
    worker_roots = [s for s in of_op if s.name == "http.dispatch" and not s.parent]
    n_ops = len(router_roots) if router_roots else len(worker_roots)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in of_op:
        layer = layer_of(span.name)
        if layer in totals:
            totals[layer] += selves[(span.proc, span.sid)]
    if router_roots:
        totals["hop"] -= sum(s.duration for s in worker_roots)
    if not n_ops:
        return 0, totals
    return n_ops, {layer: total / n_ops for layer, total in totals.items()}


def self_total(spans: list[Span], selves: dict[tuple, float], name: str) -> float:
    """Summed self seconds of every span called ``name``."""
    return sum(selves[(s.proc, s.sid)] for s in spans if s.name == name)


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
