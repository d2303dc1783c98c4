"""Stdlib-only HTTP JSON API over :class:`~repro.serve.service.EvaluationService`.

The endpoints are the route tables below: :data:`WORKER_ROUTES` for this
server, :data:`ROUTER_ROUTES` for the cluster router
(:mod:`repro.serve.cluster`).  Both doors mount one request core,
:class:`RequestCore`, and differ only in their tables and handlers.

``POST /runs`` body (JSON)::

    {"kind": "hfl", "log_path": "run.npz", "dataset": "mnist",
     "seed": 0, "n_samples": 1200, "run_id": "optional",
     "use_logged_weights": false,
     "estimator": "digfl", "estimator_options": {}}
    {"kind": "vfl", "log_path": "run.npz", "run_id": "optional"}

``estimator`` picks the contribution backend (default ``digfl``; see
:mod:`repro.estimators`); an unknown name is a typed 400 listing the
registered backends, and a backend that cannot evaluate the log's kind
(``gtg_shapley`` on a VFL log) is a 400 too.  The answering backend is
echoed in the 201 body and in every query payload.

A VFL log is self-contained (it embeds both gradient factors of Eq. 27).
An HFL log needs the server-side validation set and model architecture,
which are rebuilt from the dataset spec with the *same* derived seeds the
CLI / workload builders use — so a log saved by ``repro.cli audit-hfl
--save-log`` can be registered by (dataset, seed) alone.  The validation
split is drawn before any corruption, so corruption parameters are not
needed.

Every failure mode carries a distinct status — nothing resilience-related
is ever a bare 500:

* 429 + ``Retry-After`` — the admission queue shed the request
  (:class:`~repro.serve.resilience.ServiceOverloaded`); the header is
  computed from the query-latency p95 and the current queue depth.
* 504 — a batched ingest overran its deadline
  (:class:`~repro.serve.resilience.DeadlineExceeded`); the body carries
  the budget, the elapsed time, and any partial-progress counters.
* 503 — the service is closed
  (:class:`~repro.serve.resilience.ServiceClosed`).
* 400 — a ``POST /runs`` whose log holds an epoch with a non-finite
  contribution (:class:`~repro.core.streaming.NonFiniteRow`, naming the
  run and the epoch; the run keeps its durable prefix) or any other bad
  spec; 411 — ``POST /runs`` without a ``Content-Length``; 413 — one
  above ``MAX_BODY_BYTES``; 400 — malformed JSON bodies.
* 404 — a path the door's table does not hold; 405 + ``Allow`` — a
  template it holds, asked with a method it does not route.

The server is a :class:`ThreadingHTTPServer`: each request gets a thread;
queries read the run's published answer snapshot without a lock, and the
service's admission queue bounds them.  Run it with ``python -m repro.cli serve --port 8733``; add
``--wal-dir``/``--recover`` for a crash-recoverable registry.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.data import HFL_DATASETS, build_hfl_federation
from repro.data.dataset import Dataset
from repro.hfl.log import TrainingLog
from repro.io import (
    TrainingLogIntegrityError,
    load_training_log,
    load_vfl_training_log,
)
from repro.metrics.cost import LatencyHistogram
from repro.obs.registry import PROMETHEUS_CONTENT_TYPE
from repro.obs.slo import SloTracker, shed_from_response
from repro.obs.trace import context_from_headers
from repro.nn import make_hfl_model
from repro.nn.models import Classifier
from repro.serve.resilience import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.service import EvaluationService
from repro.utils.rng import derive_seed
from repro.vfl.log import VFLTrainingLog

_DEFAULT_N_SAMPLES = 1200
# service.cache namespaces of the spec loader (see load_spec).
_LOG_MEMO = "speclog"
_VALIDATION_MEMO = "validation"
# Every saved log is an .npz, i.e. a zip archive with at least one member.
_ZIP_MAGIC = b"PK\x03\x04"
# POST /runs bodies are small JSON specs; anything bigger is a mistake
# (or a memory-exhaustion attempt) and is refused before being read.
MAX_BODY_BYTES = 1024 * 1024

# Default robustness-matrix file (written by benchmarks/bench_scenarios.py
# or `repro scenario matrix --save`), served by GET /robustness.
DEFAULT_ROBUSTNESS_FILE = "BENCH_scenarios.json"

# ------------------------------------------------------------------ routes
#
# One table per front door: endpoint template -> {method: handler name}.
# Dispatch, 404, 405 + Allow, the RED endpoint label and the start-up
# banners all read these.  A template's one wildcard is ``{id}``, and only
# as its second segment.
SHARED_ROUTES = {
    "/healthz": {"GET": "_get_healthz"},  # worker: ok / closed; router: ok / degraded
    "/statusz": {"GET": "_get_statusz"},  # SLO verdicts, burn rates, exemplars
    "/robustness": {"GET": "_get_robustness"},  # scenario-matrix verdicts
    # latency, cache, admission; ?format=prometheus for text
    "/metricz": {"GET": "_get_metricz"},
    "/runs": {"GET": "_get_runs", "POST": "_post_runs"},  # list / register
    # Per run: totals (Eq. 15), ranked parties (?top=k), the Eq. 17-18
    # reweight vector (?scheme=s), phase timers (repro.obs).
    **{
        f"/runs/{{id}}/{name}": {"GET": "_get_run"}
        for name in ("contributions", "leaderboard", "weights", "profile")
    },
}
WORKER_ROUTES = {
    **SHARED_ROUTES,
    # Checksummed WAL frames from ?from_seq=n (replication).
    "/wal/stream": {"GET": "_get_wal_stream"},
    # The supervisor's control plane (cluster workers).
    **{
        f"/control/{verb}": {"POST": "_post_control"}
        for verb in ("status", "epoch", "promote", "adopt")
    },
}
ROUTER_ROUTES = {
    **SHARED_ROUTES,
    "/cluster": {"GET": "_get_cluster"},  # topology; ?key= names a shard
    "/cluster/resize": {"POST": "_post_resize"},  # online rebalance
}
# Every template of either door, by its segments: a path one door does
# not serve is still labelled by its template on that door's RED series.
_TEMPLATES = {
    tuple(template.split("/")[1:]): template
    for table in (WORKER_ROUTES, ROUTER_ROUTES)
    for template in table
}
_LABELS = frozenset(_TEMPLATES.values()) | {"/", "/other"}


def route_template(parts: list[str]) -> str | None:
    """The template a request path's segments match, or ``None``."""
    key = tuple(parts)
    template = _TEMPLATES.get(key)
    if template is None and len(key) > 1:
        template = _TEMPLATES.get((key[0], "{id}", *key[2:]))
    return template


def _route_label(parts: list[str]) -> str:
    return route_template(parts) or ("/other" if parts else "/")


def normalize_route(path: str) -> str:
    """Collapse a request path onto its endpoint *template*.

    This is the RED-metrics cardinality bound: run ids, unknown paths and
    query strings must never become label values, or a load test
    registering a thousand runs mints a thousand series.  Every possible
    input maps onto a template of the route tables —
    ``/runs/{id}/leaderboard``, ``/control/promote``, ... — or ``/``,
    with everything unrecognised pooled under ``/other``.
    """
    return _route_label([p for p in urlparse(path).path.split("/") if p])


def describe_routes(routes: dict) -> str:
    """A door's table as one banner line: ``GET /healthz ... GET|POST /runs``."""
    return " ".join(
        f"{'|'.join(sorted(methods))} {template}"
        for template, methods in routes.items()
    )


def query_param(query: str, name: str, default=None):
    """The first value of ``name`` in a raw query string, or ``default``."""
    return parse_qs(query).get(name, [default])[0]


def resolve_robustness_file(path: str | None) -> str:
    """The absolute robustness-matrix path a server reads for its lifetime.

    Resolved once, at start-up (the default is ``BENCH_scenarios.json``
    in the start-up directory), so a later ``chdir`` cannot swap the file
    ``GET /robustness`` serves.
    """
    return os.path.abspath(path or DEFAULT_ROBUSTNESS_FILE)


def load_robustness(path) -> dict:
    """The ``GET /robustness`` payload: the saved matrix verdicts, fresh.

    Re-read per request so a re-run of the scenario matrix is queryable
    immediately.  A missing or unreadable file is a typed 404 (the
    matrix simply has not been produced yet), never a bare 500.
    """
    from pathlib import Path

    file = Path(path)
    try:
        payload = json.loads(file.read_text())
    except FileNotFoundError:
        raise ApiError(
            404,
            f"no robustness matrix at {str(file)!r}; run "
            "benchmarks/bench_scenarios.py (or `repro scenario matrix "
            "--save`) to produce one",
        ) from None
    except (OSError, ValueError) as exc:
        raise ApiError(
            404, f"robustness matrix at {str(file)!r} is unreadable: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ApiError(
            404, f"robustness matrix at {str(file)!r} is not a JSON object"
        )
    payload = dict(payload)
    payload["file"] = str(file)
    return payload


class RequestTelemetry:
    """SLO tracking + per-endpoint RED series for one HTTP frontend.

    Composed by both the worker server and the cluster router (each front
    door judges the traffic *it* answered): every finished request is
    classified against the SLOs and recorded into request/error/duration
    series labelled by endpoint *template* — the route normalizer bounds
    cardinality, so a thousand run ids still cost one series — with the
    request's trace id captured as a duration-bucket exemplar when
    tracing is armed.
    """

    def __init__(self, registry, *, slos=None, clock=time.monotonic) -> None:
        self.registry = registry
        self.slo_tracker = SloTracker(slos, clock=clock)
        self.red_histograms: dict[str, LatencyHistogram] = {}

    def observe(
        self,
        path: str,
        status: int,
        seconds: float,
        *,
        retry_after: bool = False,
        trace_id: str | None = None,
    ) -> None:
        """Feed one finished request into the SLO tracker and RED series."""
        # The request core passes its matched template; only a raw path
        # needs the normalizer.
        endpoint = path if path in _LABELS else normalize_route(path)
        shed = shed_from_response(status, retry_after=retry_after)
        self.slo_tracker.observe(status=status, latency_s=seconds, shed=shed)
        self.registry.counter(
            "repro_http_requests_total",
            help="requests by endpoint template and status code (RED rate)",
            labels={"endpoint": endpoint, "code": str(status)},
        ).inc()
        if shed:
            self.registry.counter(
                "repro_http_shed_total",
                help="requests deliberately refused (429/503+Retry-After)",
                labels={"endpoint": endpoint},
            ).inc()
        elif status >= 500:
            self.registry.counter(
                "repro_http_errors_total",
                help="non-shed 5xx responses by endpoint template (RED errors)",
                labels={"endpoint": endpoint},
            ).inc()
        histogram = self.red_histograms.get(endpoint)
        if histogram is None:
            # get-or-create is idempotent, so a racing sibling lands on
            # the same instrument; the local index is just a fast path.
            histogram = self.registry.histogram(
                "repro_http_request_duration_seconds",
                help="request duration by endpoint template (RED duration)",
                labels={"endpoint": endpoint},
            )
            self.red_histograms[endpoint] = histogram
        histogram.record(seconds, trace_id=trace_id)

    def endpoints(self) -> dict:
        """Per-endpoint latency summaries plus the slowest exemplar each."""
        out = {}
        for endpoint in sorted(self.red_histograms):
            histogram = self.red_histograms[endpoint]
            summary = histogram.summary()
            summary["slowest"] = histogram.slowest_exemplar()
            out[endpoint] = summary
        return out

    def status(self) -> dict:
        """The common ``/statusz`` core: verdicts + per-endpoint tails."""
        report = self.slo_tracker.evaluate()
        return {
            "status": "burning" if report.burning else "ok",
            "slo": report.to_dict(),
            "endpoints": self.endpoints(),
        }


class RawResponse:
    """A non-JSON handler result: body bytes, content type, extra headers.

    Routes return this instead of a payload dict when the wire format is
    not JSON — the Prometheus text exposition of ``/metricz`` — or when
    the router relays a worker's answer, headers included.
    """

    __slots__ = ("body", "content_type", "headers")

    def __init__(
        self, body: str | bytes, content_type: str, headers: dict | None = None
    ) -> None:
        self.body = body.encode() if isinstance(body, str) else body
        self.content_type = content_type
        self.headers = headers or {}


class ApiError(Exception):
    """An error with an HTTP status, optional headers and extra body fields."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict | None = None,
        fields: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.fields = fields or {}


def hfl_validation_and_model(dataset: str, seed: int, n_samples: int | None = None):
    """Rebuild the (validation set, model factory) pair of a workload.

    Mirrors the seed derivation of
    :func:`repro.experiments.workloads.build_hfl_workload`:
    ``derive_seed(seed, 1)`` makes the data, ``derive_seed(seed, 2)``
    splits it (validation first, so party counts and corruption do not
    matter), ``derive_seed(seed, 3)`` seeds the model.
    """
    if dataset not in HFL_DATASETS:
        raise ApiError(400, f"{dataset!r} is not an HFL dataset")
    info = HFL_DATASETS[dataset]
    data = info.make(
        n_samples=n_samples or _DEFAULT_N_SAMPLES, seed=derive_seed(seed, 1)
    )
    federation = build_hfl_federation(data, 1, seed=derive_seed(seed, 2))

    def model_factory():
        return make_hfl_model(dataset, seed=derive_seed(seed, 3))

    return federation.validation, model_factory


@dataclass(frozen=True)
class RunInputs:
    """A validated register spec and the inputs it names, ready to register.

    ``record`` is the checked spec, the ``POST /runs`` fields the run's
    WAL ``register`` record carries, with ``run_id`` as requested
    (``None`` asks for an automatic id).
    """

    record: dict
    log: TrainingLog | VFLTrainingLog
    validation: Dataset | None = None
    model_factory: Callable[[], Classifier] | None = None

    def register(self, service: EvaluationService) -> str:
        """Register the (empty) run this spec describes; returns its id."""
        record = self.record
        common = {k: record[k] for k in ("run_id", "estimator", "estimator_options")}
        common["spec"] = record
        if record["kind"] == "hfl":
            return service.register_hfl(
                self.log.participant_ids,
                self.validation,
                self.model_factory,
                use_logged_weights=record["use_logged_weights"],
                **common,
            )
        return service.register_vfl(
            self.log.feature_blocks, self.log.active_parties, **common
        )


def load_spec(service: EvaluationService, spec: dict) -> RunInputs:
    """The ``POST /runs`` loader: validate a spec, then build its inputs.

    Invalid fields are typed 400s; a missing log file
    raises :class:`FileNotFoundError` and an unreadable or tampered one
    :class:`~repro.io.TrainingLogIntegrityError`.  The log and, for HFL,
    the (validation set, model factory) pair come from ``service.cache``
    (see :func:`_cached_log` and :func:`_cached_validation`), so a log
    the service has already seen costs one read and one hash.
    """
    kind = spec.get("kind")
    if kind not in ("hfl", "vfl"):
        raise ApiError(400, "kind must be 'hfl' or 'vfl'")
    log_path = spec.get("log_path")
    if not log_path:
        raise ApiError(400, "log_path is required")
    estimator, options = _resolve_estimator(spec, kind)
    record = {"kind": kind, "log_path": str(log_path), "run_id": spec.get("run_id")}
    if kind == "hfl":
        record.update(_hfl_fields(spec))
    log = _cached_log(service, kind, record["log_path"])
    if estimator == "auto":
        n_parties = len(log.feature_blocks if kind == "vfl" else log.participant_ids)
        estimator = _auto_estimator(kind, n_parties, options)
    record.update(estimator=estimator, estimator_options=options)
    if kind == "vfl":
        return RunInputs(record, log)
    validation, model_factory = _cached_validation(
        service, record["dataset"], record["seed"], record["n_samples"]
    )
    return RunInputs(record, log, validation, model_factory)


def _hfl_fields(spec: dict) -> dict:
    """The HFL-only spec fields, checked; defaults filled in."""
    dataset = spec.get("dataset", "mnist")
    if not isinstance(dataset, str) or dataset not in HFL_DATASETS:
        raise ApiError(400, f"{dataset!r} is not an HFL dataset")
    try:
        seed = int(spec.get("seed", 0))
    except (TypeError, ValueError):
        raise ApiError(400, f"seed must be an integer, got {spec.get('seed')!r}") from None
    n_samples = spec.get("n_samples")
    if n_samples is not None and (
        isinstance(n_samples, bool) or not isinstance(n_samples, int)
    ):
        raise ApiError(400, f"n_samples must be an integer, got {n_samples!r}")
    return {
        "dataset": dataset,
        "seed": seed,
        "n_samples": n_samples,
        "use_logged_weights": bool(spec.get("use_logged_weights", False)),
    }


def _cached_log(service: EvaluationService, kind: str, log_path: str):
    """A verified, parsed training log, keyed on the file's content.

    The file is read once; the key is ``(kind, SHA-256 of its bytes)``, so
    no file metadata is trusted: a rewrite of any size or mtime is a
    miss, and a corrupted file is a miss that fails verification.  A miss
    parses those same bytes, never the path again, so the file cannot
    change between hash and parse.  Entries share the service's cache
    budget at their real array size, and their arrays are read-only, so
    a consumer that writes to one fails instead of changing another
    run's answer.
    """
    raw = _read_log_file(log_path)
    key = (kind, hashlib.sha256(raw).hexdigest())
    memo = service.cache.memo(_LOG_MEMO)
    log = memo.get(key)
    if log is None:
        source = io.BytesIO(raw)
        source.name = log_path
        loader = load_training_log if kind == "hfl" else load_vfl_training_log
        log = loader(source)
        arrays = [a for r in log.records for a in vars(r).values()]
        memo.put(key, log, size=_freeze(*arrays, *getattr(log, "feature_blocks", ())))
    return log


def _read_log_file(log_path: str) -> bytes:
    """The bytes of the training log at ``log_path``, bounded by its size.

    The path comes from the client, so only a regular file is read: it
    is opened non-blocking (a FIFO cannot hang the thread), checked with
    ``fstat`` on that descriptor (a device, FIFO or directory is refused
    before any read, so ``/dev/zero`` cannot exhaust memory), refused
    after four bytes unless it starts like a zip archive, as ``np.load``
    refused it, and then read for at most the ``st_size`` it had.
    """
    try:
        fd = os.open(log_path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise TrainingLogIntegrityError(
            f"{log_path} is not a readable training log: {exc}"
        ) from exc
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise TrainingLogIntegrityError(
                f"{log_path} is not a readable training log: not a regular file"
            )
        with os.fdopen(fd, "rb", closefd=False) as fh:
            if fh.read(4) != _ZIP_MAGIC:
                raise TrainingLogIntegrityError(
                    f"{log_path} is not a readable training log: not a zip archive"
                )
            fh.seek(0)
            return fh.read(info.st_size)
    finally:
        os.close(fd)


def _cached_validation(
    service: EvaluationService, dataset: str, seed: int, n_samples: int | None
):
    """:func:`hfl_validation_and_model`, memoised in ``service.cache``.

    The builder itself stays pure and unmemoised — references computed
    with it are independent of any server's cache.
    """
    key = (dataset, seed, n_samples or _DEFAULT_N_SAMPLES)
    memo = service.cache.memo(_VALIDATION_MEMO)
    pair = memo.get(key)
    if pair is None:
        pair = hfl_validation_and_model(*key)
        validation = pair[0]
        memo.put(key, pair, size=_freeze(validation.X, validation.y))
    return pair


def _freeze(*arrays) -> int:
    """Make the arrays read-only; returns their total byte size."""
    total = 0
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
            total += array.nbytes
    return total


def register_from_spec(service: EvaluationService, spec: dict) -> dict:
    """Handle a ``POST /runs`` body: load the spec, register, ingest.

    Registering writes the run's ``register`` record to an attached
    :class:`~repro.serve.wal.WriteAheadLog` before any of its ``ingest``
    records, and all of them share one fsync, issued before this returns
    (:meth:`EvaluationService.ingest_log`).
    """
    try:
        inputs = load_spec(service, spec)
        run_id = inputs.register(service)
        service.ingest_log(run_id, inputs.log)
    except ApiError:
        raise
    except FileNotFoundError:
        raise ApiError(400, f"no training log at {spec.get('log_path')!r}") from None
    except (ValueError, KeyError) as exc:
        raise ApiError(400, str(exc)) from None
    summary = {
        "run_id": run_id,
        "kind": inputs.record["kind"],
        "estimator": inputs.record["estimator"],
        "epochs": inputs.log.n_epochs,
    }
    if spec.get("estimator") == "auto":
        # The 201 echoes the *concretely chosen* backend (and that it was
        # auto-selected); queries report it too via the run summary.
        summary["estimator_requested"] = "auto"
    return summary


def _resolve_estimator(spec: dict, kind: str) -> tuple[str, dict]:
    """Validate the spec's estimator choice *before* touching the log.

    Typed refusals, never a bare 500: an unknown backend name answers
    400 listing every registered backend, an unknown option or a
    kind-unsupporting backend answers 400 with the constructor's
    message.  ``"auto"`` passes through unresolved — the crossover
    policy needs the log's party count, so :func:`load_spec` resolves it (via :func:`repro.core.backends.choose_backend`) right
    after loading the log.
    """
    from repro.core.backends import UnknownBackendError, backend_names, get_backend

    name = spec.get("estimator", "digfl")
    if not isinstance(name, str):
        raise ApiError(400, f"estimator must be a string, got {name!r}")
    options = spec.get("estimator_options") or {}
    if not isinstance(options, dict):
        raise ApiError(
            400, f"estimator_options must be a JSON object, got {options!r}"
        )
    if name == "auto":
        return name, options
    try:
        backend = get_backend(name, **options)
        backend.require(kind)
    except UnknownBackendError:
        raise ApiError(
            400,
            f"unknown estimator {name!r}; registered backends: "
            f"{', '.join(backend_names())}",
        ) from None
    except (TypeError, ValueError) as exc:
        raise ApiError(400, str(exc)) from None
    return backend.name, options


def _auto_estimator(kind: str, n_parties: int, options: dict) -> str:
    """Resolve ``"estimator": "auto"`` to a concrete, validated backend.

    :func:`repro.core.backends.choose_backend` applies the measured
    gtg↔dpvs crossover from ``BENCH_estimators.json`` (falling back to
    ``digfl``); the chosen backend is then constructed with the spec's
    options and checked against the log kind, so an option the chosen
    backend does not take is a typed 400 — and the WAL records the
    concrete name, keeping replay deterministic even if the benchmark
    file changes later.
    """
    from repro.core.backends import choose_backend, get_backend

    chosen = choose_backend(n_parties, kind)
    try:
        get_backend(chosen, **options).require(kind)
    except (TypeError, ValueError) as exc:
        raise ApiError(
            400, f"auto-selected estimator {chosen!r}: {exc}"
        ) from None
    return chosen


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    timeout_s: float,
    body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, HTTPMessage, bytes]:
    """One HTTP exchange on a fresh connection: ``(status, headers, body)``.

    The serving layer's one client call — the router's proxy hop, the
    supervisor's probes and control plane, the replication follower and
    the CLI all go through it.  A request body is JSON and is labelled so.
    Failures propagate untyped for the caller to map: a read overrunning
    ``timeout_s`` is :class:`TimeoutError`, a refused or reset connection
    another :class:`OSError`, protocol garbage
    :class:`http.client.HTTPException`.
    """
    if body is not None:
        headers = {"Content-Type": "application/json", **(headers or {})}
    conn = HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


def write_response(
    handler: BaseHTTPRequestHandler,
    payload: "dict | RawResponse",
    status: int,
    headers: dict,
) -> None:
    """Send one whole response — status line, headers, body — in one write.

    Shared by the worker handler and the cluster router.  The stdlib path
    (``send_response`` … ``end_headers`` then ``wfile.write(body)``) puts a
    response on the wire in two sends; under Nagle the second waits for
    the client's delayed ACK, ~40 ms on Linux, so a keep-alive client
    that sends its next request at once stalls on every one.  A ``HEAD``
    answer is the head alone: it keeps its ``Content-Length``, so the
    connection stays usable.
    """
    if isinstance(payload, RawResponse):
        body, content_type = payload.body, payload.content_type
    else:
        body, content_type = json.dumps(payload).encode(), "application/json"
    handler.log_request(status)
    reason = handler.responses.get(status, ("",))[0]
    lines = [
        f"{handler.protocol_version} {status} {reason}",
        f"Server: {handler.version_string()}",
        f"Date: {handler.date_time_string()}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in headers.items()),
    ]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1", "strict")
    handler.wfile.write(head if handler.command == "HEAD" else head + body)


def read_json_body(handler) -> dict:
    """The ``POST`` body ladder: 411 / 400 / 413 before reading, then JSON.

    Shared by the worker handler and the cluster router, so both speak
    the same typed refusals: 411 without a ``Content-Length``, 400 for a
    malformed one or a non-object body, 413 above ``MAX_BODY_BYTES``.
    """
    length_header = handler.headers.get("Content-Length")
    if length_header is None:
        raise ApiError(411, f"POST {handler.path} requires a Content-Length header")
    try:
        length = int(length_header)
    except ValueError:
        raise ApiError(400, f"bad Content-Length: {length_header!r}") from None
    if length > MAX_BODY_BYTES:
        raise ApiError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
        )
    try:
        spec = json.loads(handler.rfile.read(length) or b"{}")
    except json.JSONDecodeError as exc:
        raise ApiError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ApiError(400, "request body must be a JSON object")
    return spec


class RequestCore(BaseHTTPRequestHandler):
    """The request core both front doors mount.

    A door subclasses this with its ``routes`` table and the handlers the
    table names, each ``handler(parts, query) -> (payload, status)``; its
    server is a :class:`FrontDoor`.  Per request, :meth:`_dispatch`
    parses the target once and looks its template up in one dict, runs
    the handler inside the request span, maps any exception through
    :meth:`_error_response` — the one typed-failure ladder — answers in
    one write, and records latency, the SLO verdict and the RED series
    under the template.  A handler's :class:`RawResponse` headers (a
    relayed worker's ``Retry-After``, say) ride along on the answer.
    """

    protocol_version = "HTTP/1.1"
    span_name = "http.request"
    routes: dict = {}

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch()

    do_POST = do_PUT = do_PATCH = do_DELETE = do_HEAD = do_OPTIONS = do_GET

    def _dispatch(self) -> None:
        started = time.perf_counter()
        server = self.server
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        template = route_template(parts)
        tracer = server.obs.tracer  # type: ignore[attr-defined]
        # A cluster router (or any instrumented client) propagates its
        # trace through X-Repro-Trace-Id / X-Repro-Parent-Span, so the
        # request span joins the caller's trace instead of rooting its
        # own — one client request, one trace, two processes.
        parent = context_from_headers(self.headers) if tracer.enabled else None
        with tracer.span(
            self.span_name, parent=parent, http_method=self.command, path=self.path
        ) as span:
            try:
                payload, status = self._route(template, parts, url.query)
                headers = payload.headers if isinstance(payload, RawResponse) else {}
            except Exception as exc:
                payload, status, headers = self._error_response(exc)
            span.set_attribute("status", status)
            if status >= 400:
                span.end(status="error")
            trace_id = span.trace_id if span.context is not None else None
        write_response(self, payload, status, headers)
        elapsed = time.perf_counter() - started
        server.request_latency.record(elapsed)  # type: ignore[attr-defined]
        # Each door judges the traffic *it* answered: a Retry-After, raised
        # or relayed, books the answer as a shed.
        server.telemetry.observe(  # type: ignore[attr-defined]
            template or _route_label(parts),
            status,
            elapsed,
            retry_after="Retry-After" in headers,
            trace_id=trace_id,
        )
        logger = server.obs.logger  # type: ignore[attr-defined]
        if logger.enabled:
            logger.log(
                "http.request",
                level="warning" if status >= 400 else "info",
                http_method=self.command,
                path=self.path,
                status=status,
            )

    def _route(self, template: str | None, parts: list[str], query: str):
        """Call the handler this door's table names for the method."""
        methods = self.routes.get(template)
        if methods is None:
            raise ApiError(
                404, f"no such endpoint: {self.command} /{'/'.join(parts)}"
            )
        name = methods.get(self.command)
        if name is None:
            allowed = ", ".join(sorted(methods))
            raise ApiError(
                405,
                f"{self.command} is not supported here; allowed: {allowed}",
                headers={"Allow": allowed},
            )
        return getattr(self, name)(parts, query)

    def _error_response(self, exc: Exception) -> tuple[dict, int, dict]:
        """The typed-failure ladder: exception -> (body, status, headers)."""
        if isinstance(exc, ApiError):
            return {"error": str(exc), **exc.fields}, exc.status, exc.headers
        if isinstance(exc, ServiceOverloaded):
            return (
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                429,
                {"Retry-After": str(int(exc.retry_after_s))},
            )
        if isinstance(exc, DeadlineExceeded):
            body = {
                "error": str(exc),
                "budget_ms": exc.budget_ms,
                "elapsed_ms": exc.elapsed_ms,
                "progress": exc.progress,
            }
            return body, 504, {}
        if isinstance(exc, ServiceClosed):
            return {"error": str(exc)}, 503, {}
        if isinstance(exc, KeyError):
            return {"error": str(exc.args[0] if exc.args else exc)}, 404, {}
        if isinstance(exc, ValueError):
            return {"error": str(exc)}, 400, {}
        return {"error": f"internal error: {exc}"}, 500, {}

    def _get_robustness(self, parts, query):
        return load_robustness(self.server.robustness_file), 200  # type: ignore[attr-defined]


class _Handler(RequestCore):
    """Routes requests onto the server's :class:`EvaluationService`."""

    server_version = "repro-serve/1.0"
    routes = WORKER_ROUTES

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def _get_healthz(self, parts, query):
        return self.service.health(), 200

    def _get_statusz(self, parts, query):
        """Verdicts, not raw series.

        SLO burn rates and budgets, per-endpoint latency summaries with
        the slowest exemplar (a trace id to pull up first), and — on a
        standby — replication lag.
        """
        server, service = self.server, self.service
        payload = server.telemetry.status()  # type: ignore[attr-defined]
        stats = service.stats()
        controller = server.controller  # type: ignore[attr-defined]
        follower = controller.follower if controller is not None else None
        payload.update(
            {
                "health": service.health()["status"],
                "replication": follower.stats() if follower is not None else None,
                "uptime_seconds": stats["uptime_seconds"],
                "ring_epoch": server.ring_epoch,  # type: ignore[attr-defined]
                "robustness_file": server.robustness_file,  # type: ignore[attr-defined]
            }
        )
        return payload, 200

    def _get_metricz(self, parts, query):
        fmt = query_param(query, "format", "json")
        registry = self.service.obs.registry
        if fmt == "prometheus":
            return RawResponse(
                registry.render_prometheus(), PROMETHEUS_CONTENT_TYPE
            ), 200
        if fmt == "snapshot":
            # The raw registry snapshot, for cluster aggregation: a
            # router scrapes every worker's snapshot and folds them
            # into one registry via MetricsRegistry.merge().
            return {"snapshot": registry.snapshot()}, 200
        if fmt != "json":
            raise ApiError(
                400,
                f"format must be 'json', 'prometheus' or 'snapshot', got {fmt!r}",
            )
        stats = self.service.stats()
        stats["latency"]["http"] = self.server.request_latency.summary()  # type: ignore[attr-defined]
        return stats, 200

    def _get_runs(self, parts, query):
        return {"runs": self.service.runs()}, 200

    def _post_runs(self, parts, query):
        self._check_ring_epoch()
        return register_from_spec(self.service, read_json_body(self)), 201

    def _get_run(self, parts, query):
        run_id, endpoint = parts[1], parts[2]
        if endpoint == "profile":
            return self.service.profile(run_id), 200
        if endpoint == "leaderboard":
            top = query_param(query, "top")
            options = {"top": int(top) if top is not None else None}
        elif endpoint == "weights":
            options = {"scheme": query_param(query, "scheme", "rectified")}
        else:
            options = {}
        return self.service.query(endpoint, run_id, **options), 200

    def _get_wal_stream(self, parts, query):
        wal = self.service.wal
        if wal is None:
            raise ApiError(404, "no write-ahead log is attached to this worker")
        from_seq = int(query_param(query, "from_seq", "1"))
        limit = int(query_param(query, "limit", "512"))
        return wal.frames_from(from_seq, limit=limit), 200

    def _post_control(self, parts, query):
        controller = self.server.controller  # type: ignore[attr-defined]
        if controller is None:
            raise ApiError(404, "this server has no cluster controller")
        return controller.handle(parts[1], read_json_body(self)), 200

    def _check_ring_epoch(self) -> None:
        """Fence stale-epoch writes during an online rebalance.

        The cluster router stamps proxied writes with the ring epoch it
        routed by (``X-Repro-Ring-Epoch``); a worker that has been told a
        newer epoch answers a typed 409 carrying its own epoch, which the
        router uses to re-route against the refreshed ring instead of
        landing the write on a shard that no longer owns the key.  Both
        sides are opt-in: a standalone server (``server.ring_epoch is
        None``) or an unstamped client skips the check entirely.
        """
        fence = self.server.ring_epoch  # type: ignore[attr-defined]
        header = self.headers.get("X-Repro-Ring-Epoch")
        if fence is None or header is None:
            return
        try:
            claimed = int(header)
        except ValueError:
            raise ApiError(
                400, f"bad X-Repro-Ring-Epoch header: {header!r}"
            ) from None
        if claimed < fence:
            raise ApiError(
                409,
                f"stale ring epoch {claimed}: this worker is fenced at "
                f"epoch {fence}",
                headers={"X-Repro-Ring-Epoch": str(fence)},
            )


class FrontDoor(ThreadingHTTPServer):
    """The server half of the request core, shared by both doors.

    Holds what :class:`RequestCore` reads off its server: the door's
    ``obs``, the SLO engine + RED series (``telemetry``), the request
    latency histogram (registered as ``latency_metric``), the robustness
    file, resolved once here, and ``verbose``.
    """

    daemon_threads = True
    latency_metric = "repro_http_request_latency_seconds"
    latency_help = "HTTP request wall time, routing through response write"

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[RequestCore],
        obs,
        *,
        slos=None,
        robustness_file: str | None = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, handler)
        self.obs = obs
        self.verbose = verbose
        # Every finished request is classified good/bad per objective;
        # GET /statusz serves the verdicts.
        self.telemetry = RequestTelemetry(obs.registry, slos=slos)
        self.slo_tracker = self.telemetry.slo_tracker
        self.robustness_file = resolve_robustness_file(robustness_file)
        self.request_latency = LatencyHistogram()
        # exist_ok: a registry outliving one frontend (tests, restarts)
        # re-registers the fresh histogram over the dead one's.
        obs.registry.register(
            self.latency_metric,
            self.request_latency,
            help=self.latency_help,
            exist_ok=True,
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests / in-process embedding)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class EvaluationHTTPServer(FrontDoor):
    """Threaded HTTP server bound to one :class:`EvaluationService`."""

    def __init__(
        self,
        address: tuple[str, int],
        service: EvaluationService | None = None,
        *,
        verbose: bool = False,
        slos: tuple | list | None = None,
        robustness_file: str | None = None,
    ) -> None:
        self.service = service if service is not None else EvaluationService()
        super().__init__(
            address,
            _Handler,
            self.service.obs,
            slos=slos,
            robustness_file=robustness_file,
            verbose=verbose,
        )
        # Cluster plumbing, both off for a standalone server: the worker
        # bootstrap installs a WorkerController (POST /control/*) and the
        # current ring epoch (stale-write fencing); see serve/replication.
        self.controller = None
        self.ring_epoch: int | None = None


def serve(
    host: str = "127.0.0.1",
    port: int = 8733,
    *,
    service: EvaluationService | None = None,
    verbose: bool = True,
    robustness_file: str | None = None,
) -> int:
    """Run the server until interrupted; the ``repro serve`` entry point."""
    server = EvaluationHTTPServer(
        (host, port), service, verbose=verbose, robustness_file=robustness_file
    )
    print(f"repro-serve listening on http://{host}:{server.port}")
    print(f"endpoints: {describe_routes(WORKER_ROUTES)}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        server.service.close()
    return 0
