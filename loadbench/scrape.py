"""Scrape-and-diff: the program's own instruments turned into phase deltas.

Before and after every timed phase the benchmark takes a
:class:`Scrape`: each worker's ``/metricz?format=snapshot`` registry,
the cluster router's ``/metricz?format=prometheus`` page (the router
serves no snapshot format; its own series carry ``worker="router"``),
and ``/runs/{id}/profile`` for the runs the phase touches.
:func:`diff` turns two scrapes into a :class:`Delta`, so seeding and
warm-up never leak into the timed numbers.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from http.client import HTTPConnection
from urllib.parse import quote

import stats
from servers import HOST, ServerSet, get_json

# Label values may hold braces (``/runs/{id}/leaderboard``), so the label
# block runs to the last ``}`` before the value.
_PROM_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str, worker: str) -> dict:
    """The ``worker=...`` series of a Prometheus page, as a registry snapshot.

    Histograms are rebuilt from the cumulative ``_bucket`` lines into the
    ``LatencyHistogram.snapshot()`` shape (per-bucket counts, the ``+Inf``
    bucket as overflow); counters and gauges become floats.  The ``max``
    of a rebuilt histogram is unknown and reads as its top finite bound.
    """
    types: dict[str, str] = {}
    scalars: dict[str, list] = defaultdict(list)
    buckets: dict[tuple, list] = defaultdict(list)
    sums: dict[tuple, float] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
            continue
        if not line or line.startswith("#"):
            continue
        match = _PROM_RE.match(line.split(" # ")[0])
        if match is None:
            continue
        name, raw_labels, value = match.groups()
        labels = dict(_LABEL_RE.findall(raw_labels or ""))
        if labels.pop("worker", None) != worker:
            continue
        if name.endswith("_bucket") and types.get(name[:-7]) == "histogram":
            le = labels.pop("le")
            key = (name[:-7], tuple(sorted(labels.items())))
            buckets[key].append((float("inf") if le == "+Inf" else float(le), float(value)))
        elif name.endswith("_sum") and types.get(name[:-4]) == "histogram":
            sums[(name[:-4], tuple(sorted(labels.items())))] = float(value)
        elif name.endswith("_count") and types.get(name[:-6]) == "histogram":
            continue
        else:
            scalars[name].append({"labels": labels, "value": float(value)})
    snapshot = {
        name: {"type": types.get(name, "gauge"), "series": series}
        for name, series in scalars.items()
    }
    for (name, labels), rows in buckets.items():
        rows.sort()
        bounds = [b for b, _ in rows if b != float("inf")]
        cumulative = [int(c) for _, c in rows]
        counts = [c - p for c, p in zip(cumulative, [0] + cumulative[:-1])]
        snapshot.setdefault(name, {"type": "histogram", "series": []})["series"].append(
            {
                "labels": dict(labels),
                "value": {
                    "bounds": bounds,
                    "bucket_counts": counts,
                    "count": cumulative[-1],
                    "total": sums.get((name, labels), 0.0),
                    "max": bounds[-1] if bounds else 0.0,
                },
            }
        )
    return snapshot


def _series(snapshot: dict, name: str, where) -> list[tuple[tuple, object]]:
    family = snapshot.get(name)
    if family is None:
        return []
    return [
        (tuple(sorted(s["labels"].items())), s["value"])
        for s in family["series"]
        if where(s["labels"])
    ]


@dataclass
class Scrape:
    """Every instrument reading of one deployment at one instant."""

    workers: dict[str, dict] = field(default_factory=dict)  # name -> snapshot
    router: dict | None = None
    profiles: dict[str, dict] = field(default_factory=dict)  # run -> profile


def take(servers: ServerSet, run_ids=()) -> Scrape:
    """Scrape every process of ``servers`` and the profiles of ``run_ids``."""
    scrape = Scrape()
    ports = servers.worker_ports or {"0": servers.port}
    for name, port in ports.items():
        scrape.workers[name] = get_json(port, "/metricz?format=snapshot")["snapshot"]
    if servers.shards:
        conn = HTTPConnection(HOST, servers.port, timeout=60)
        try:
            conn.request("GET", "/metricz?format=prometheus")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        scrape.router = parse_prometheus(text, "router")
    for run_id in run_ids:
        scrape.profiles[run_id] = get_json(
            servers.port, f"/runs/{quote(run_id)}/profile"
        )
    return scrape


class Delta:
    """What happened between two scrapes, summed over worker processes."""

    def __init__(self, before: Scrape, after: Scrape) -> None:
        self.before = before
        self.after = after

    def _snapshots(self, router: bool):
        if router:
            return [(self.before.router or {}, self.after.router or {})]
        return [
            (self.before.workers.get(name, {}), snap)
            for name, snap in self.after.workers.items()
        ]

    def counter(self, name: str, where=lambda labels: True, *, router=False) -> float:
        total = 0.0
        for before, after in self._snapshots(router):
            old = dict(_series(before, name, where))
            for key, value in _series(after, name, where):
                total += stats.counter_delta(old.get(key), value)
        return total

    def histogram(self, name: str, where=lambda labels: True, *, router=False):
        deltas = []
        for before, after in self._snapshots(router):
            old = dict(_series(before, name, where))
            for key, value in _series(after, name, where):
                deltas.append(stats.histogram_delta(old.get(key), value))
        return stats.merge_histograms(deltas)

    def phase(self, phase: str) -> tuple[int, float, int]:
        """``(calls, total seconds, epochs)`` of one profiler phase.

        ``epochs`` counts the epochs ingested during the phase by the
        runs that recorded the phase at all.
        """
        calls, total, epochs = 0, 0.0, 0
        for run_id, after in self.after.profiles.items():
            before = self.before.profiles.get(run_id)
            rows_after = {row["phase"]: row for row in after["phases"]}
            if phase not in rows_after:
                continue
            rows_before = (
                {row["phase"]: row for row in before["phases"]} if before else {}
            )
            old = rows_before.get(phase, {"calls": 0, "total_s": 0.0})
            calls += rows_after[phase]["calls"] - old["calls"]
            total += rows_after[phase]["total_s"] - old["total_s"]
            epochs += after["epochs"] - (before["epochs"] if before else 0)
        return calls, total, epochs


def diff(before: Scrape, after: Scrape) -> Delta:
    return Delta(before, after)
