"""Stdlib-only HTTP JSON API over :class:`~repro.serve.service.EvaluationService`.

Endpoints::

    GET  /healthz                      liveness: ok / degraded / closed
    GET  /statusz                      SLO verdicts, burn rates, exemplars
    GET  /robustness                   latest scenario-matrix verdicts
    GET  /metricz                      latency, cache, admission, breakers
    GET  /metricz?format=prometheus    the same registry, Prometheus text
    GET  /runs                         registered runs
    POST /runs                         register a saved training log
    GET  /runs/{id}/contributions      whole-process totals (Eq. 15)
    GET  /runs/{id}/leaderboard?top=k  ranked parties, best first
    GET  /runs/{id}/weights?scheme=s   Eq. 17-18 reweight vector
    GET  /runs/{id}/profile            per-run phase timers (repro.obs)
    GET  /wal/stream?from_seq=n        checksummed WAL frames (replication)
    POST /control/{verb}               supervisor plane: status / epoch /
                                       promote / adopt (cluster workers)

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
* 504 — the request overran its deadline
  (:class:`~repro.serve.resilience.DeadlineExceeded`); the body carries
  the budget, the elapsed time, and any partial-progress counters.
* 503 — the service is closed
  (:class:`~repro.serve.resilience.ServiceClosed`) or the estimator
  failed with no stale answer to fall back on
  (:class:`~repro.serve.resilience.QueryFailed` /
  :class:`~repro.serve.resilience.CircuitOpen`).
* 411 — ``POST /runs`` without a ``Content-Length``; 413 — one above
  ``MAX_BODY_BYTES``; 400 — malformed JSON bodies.
* 405 + ``Allow`` — a known path asked with the wrong method.

The server is a :class:`ThreadingHTTPServer`: each request gets a thread,
the service's admission queue, per-run locks and thread-safe cache do the
rest.  Run it with ``python -m repro.cli serve --port 8733``; add
``--wal-dir``/``--recover`` for a crash-recoverable registry.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.data import HFL_DATASETS, build_hfl_federation
from repro.io import load_training_log, load_vfl_training_log
from repro.metrics.cost import LatencyHistogram
from repro.obs.registry import PROMETHEUS_CONTENT_TYPE
from repro.obs.slo import SloTracker, shed_from_response
from repro.obs.trace import context_from_headers
from repro.nn import make_hfl_model
from repro.serve.resilience import (
    DeadlineExceeded,
    QueryFailed,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.service import EvaluationService
from repro.utils.rng import derive_seed

_DEFAULT_N_SAMPLES = 1200
# POST /runs bodies are small JSON specs; anything bigger is a mistake
# (or a memory-exhaustion attempt) and is refused before being read.
MAX_BODY_BYTES = 1024 * 1024

_RUN_ENDPOINTS = frozenset({"contributions", "leaderboard", "weights", "profile"})
_CONTROL_VERBS = frozenset({"status", "epoch", "promote", "adopt"})
# Default robustness-matrix file (written by benchmarks/bench_scenarios.py
# or `repro scenario matrix --save`), served by GET /robustness.
DEFAULT_ROBUSTNESS_FILE = "BENCH_scenarios.json"


def normalize_route(path: str) -> str:
    """Collapse a request path onto its endpoint *template*.

    This is the RED-metrics cardinality bound: run ids, unknown paths and
    query strings must never become label values, or a load test
    registering a thousand runs mints a thousand series.  Every possible
    input maps onto one of a fixed, small set of templates —
    ``/runs/{id}/leaderboard``, ``/control/promote``, ... — with
    everything unrecognised pooled under ``/other``.
    """
    parts = [p for p in urlparse(path).path.split("/") if p]
    if not parts:
        return "/"
    if parts[0] in (
        "healthz", "metricz", "runs", "statusz", "robustness", "cluster"
    ) and len(parts) == 1:
        return f"/{parts[0]}"
    if parts == ["wal", "stream"]:
        return "/wal/stream"
    if parts == ["cluster", "resize"]:
        return "/cluster/resize"
    if len(parts) == 3 and parts[0] == "runs" and parts[2] in _RUN_ENDPOINTS:
        return "/runs/{id}/" + parts[2]
    if len(parts) == 2 and parts[0] == "control" and parts[1] in _CONTROL_VERBS:
        return "/control/" + parts[1]
    return "/other"


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
        endpoint = normalize_route(path)
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
    """A non-JSON handler result: raw body bytes plus a content type.

    Routes return this instead of a payload dict when the wire format is
    not JSON — the Prometheus text exposition of ``/metricz`` is the one
    current case.
    """

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str) -> None:
        self.body = body.encode()
        self.content_type = content_type


class ApiError(Exception):
    """An error with an HTTP status (and optional extra response headers)."""

    def __init__(
        self, status: int, message: str, *, headers: dict | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


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


def register_from_spec(service: EvaluationService, spec: dict) -> dict:
    """Handle a ``POST /runs`` body: load the log, register, ingest.

    Registration, WAL recording and ingestion happen in that order, so
    an attached :class:`~repro.serve.wal.WriteAheadLog` sees the
    ``register`` record before any of the run's ``ingest`` records —
    exactly the replay order :func:`repro.serve.wal.recover` needs when
    the process is killed mid-ingest.
    """
    kind = spec.get("kind")
    if kind not in ("hfl", "vfl"):
        raise ApiError(400, "kind must be 'hfl' or 'vfl'")
    log_path = spec.get("log_path")
    if not log_path:
        raise ApiError(400, "log_path is required")
    estimator, estimator_options = _resolve_estimator(spec, kind)
    requested = estimator
    run_id = spec.get("run_id")
    try:
        if kind == "hfl":
            log = load_training_log(log_path)
            if estimator == "auto":
                estimator = _auto_estimator(
                    kind, len(log.participant_ids), estimator_options
                )
            validation, model_factory = hfl_validation_and_model(
                spec.get("dataset", "mnist"),
                int(spec.get("seed", 0)),
                spec.get("n_samples"),
            )
            run_id = service.register_hfl(
                log.participant_ids,
                validation,
                model_factory,
                run_id=run_id,
                use_logged_weights=bool(spec.get("use_logged_weights", False)),
                estimator=estimator,
                estimator_options=estimator_options,
            )
            service.record_registration(
                {
                    "kind": "hfl",
                    "log_path": str(log_path),
                    "run_id": run_id,
                    "dataset": spec.get("dataset", "mnist"),
                    "seed": int(spec.get("seed", 0)),
                    "n_samples": spec.get("n_samples"),
                    "use_logged_weights": bool(
                        spec.get("use_logged_weights", False)
                    ),
                    "estimator": estimator,
                    "estimator_options": estimator_options,
                }
            )
        else:
            log = load_vfl_training_log(log_path)
            if estimator == "auto":
                estimator = _auto_estimator(
                    kind, len(log.feature_blocks), estimator_options
                )
            run_id = service.register_vfl(
                log.feature_blocks,
                log.active_parties,
                run_id=run_id,
                estimator=estimator,
                estimator_options=estimator_options,
            )
            service.record_registration(
                {
                    "kind": "vfl",
                    "log_path": str(log_path),
                    "run_id": run_id,
                    "estimator": estimator,
                    "estimator_options": estimator_options,
                }
            )
        service.ingest_log(run_id, log)
    except ApiError:
        raise
    except FileNotFoundError:
        raise ApiError(400, f"no training log at {log_path!r}") from None
    except (ValueError, KeyError) as exc:
        raise ApiError(400, str(exc)) from None
    summary = {
        "run_id": run_id,
        "kind": kind,
        "estimator": estimator,
        "epochs": log.n_epochs,
    }
    if requested == "auto":
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
    policy needs the log's party count, so :func:`register_from_spec`
    resolves it (via :func:`repro.core.backends.choose_backend`) right
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


def _allowed_methods(parts: list[str]) -> frozenset[str] | None:
    """The methods a path supports, or ``None`` for an unknown path."""
    if parts in (
        ["healthz"],
        ["metricz"],
        ["statusz"],
        ["robustness"],
        ["wal", "stream"],
    ):
        return frozenset({"GET"})
    if parts == ["runs"]:
        return frozenset({"GET", "POST"})
    if len(parts) == 3 and parts[0] == "runs" and parts[2] in _RUN_ENDPOINTS:
        return frozenset({"GET"})
    if len(parts) == 2 and parts[0] == "control":
        return frozenset({"POST"})
    return None


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`EvaluationService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> EvaluationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # ------------------------------------------------------------- plumbing

    def _dispatch(self, handler) -> None:
        started = time.perf_counter()
        headers: dict = {}
        tracer = self.service.obs.tracer
        # A cluster router (or any instrumented client) propagates its
        # trace through X-Repro-Trace-Id / X-Repro-Parent-Span, so the
        # worker-side request span joins the caller's trace instead of
        # rooting its own — one client request, one trace, two processes.
        with tracer.span(
            "http.request",
            parent=context_from_headers(self.headers),
            http_method=self.command,
            path=self.path,
        ) as span:
            try:
                payload, status = handler()
            except ApiError as exc:
                payload, status, headers = {"error": str(exc)}, exc.status, exc.headers
            except ServiceOverloaded as exc:
                payload = {"error": str(exc), "retry_after_s": exc.retry_after_s}
                status = 429
                headers = {"Retry-After": str(int(exc.retry_after_s))}
            except DeadlineExceeded as exc:
                payload = {
                    "error": str(exc),
                    "budget_ms": exc.budget_ms,
                    "elapsed_ms": exc.elapsed_ms,
                    "progress": exc.progress,
                }
                status = 504
            except ServiceClosed as exc:
                payload, status = {"error": str(exc)}, 503
            except QueryFailed as exc:  # includes CircuitOpen
                payload, status = {"error": str(exc)}, 503
            except KeyError as exc:
                payload, status = {"error": str(exc.args[0] if exc.args else exc)}, 404
            except ValueError as exc:
                payload, status = {"error": str(exc)}, 400
            except Exception as exc:  # pragma: no cover - last-resort guard
                payload, status = {"error": f"internal error: {exc}"}, 500
            span.set_attribute("status", status)
            if status >= 400:
                span.end(status="error")
            trace_id = span.trace_id if span.context is not None else None
        write_response(self, payload, status, headers)
        elapsed = time.perf_counter() - started
        self.server.request_latency.record(elapsed)  # type: ignore[attr-defined]
        self.server.observe_request(  # type: ignore[attr-defined]
            self.path,
            status,
            elapsed,
            retry_after="Retry-After" in headers,
            trace_id=trace_id,
        )
        logger = self.service.obs.logger
        if logger.enabled:
            logger.log(
                "http.request",
                level="warning" if status >= 400 else "info",
                http_method=self.command,
                path=self.path,
                status=status,
            )

    def _method_not_allowed(self, parts: list[str], method: str):
        allowed = _allowed_methods(parts)
        if allowed is None:
            raise ApiError(404, f"no such endpoint: {method} /{'/'.join(parts)}")
        raise ApiError(
            405,
            f"{method} is not supported here; allowed: "
            f"{', '.join(sorted(allowed))}",
            headers={"Allow": ", ".join(sorted(allowed))},
        )

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_post)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_other("PUT"))

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_other("DELETE"))

    def do_PATCH(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_other("PATCH"))

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_other("HEAD"))

    def do_OPTIONS(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._route_other("OPTIONS"))

    def _route_other(self, method: str):
        parts = [p for p in urlparse(self.path).path.split("/") if p]

        def route():
            self._method_not_allowed(parts, method)

        return route

    def _route_get(self) -> tuple[dict, int]:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if parts == ["healthz"]:
            return self.service.health(), 200
        if parts == ["statusz"]:
            return self.server.statusz(), 200  # type: ignore[attr-defined]
        if parts == ["robustness"]:
            return load_robustness(self.server.robustness_file), 200  # type: ignore[attr-defined]
        if parts == ["metricz"]:
            fmt = query.get("format", ["json"])[0]
            if fmt == "prometheus":
                return (
                    RawResponse(
                        self.service.obs.registry.render_prometheus(),
                        PROMETHEUS_CONTENT_TYPE,
                    ),
                    200,
                )
            if fmt == "snapshot":
                # The raw registry snapshot, for cluster aggregation: a
                # router scrapes every worker's snapshot and folds them
                # into one registry via MetricsRegistry.merge().
                return {"snapshot": self.service.obs.registry.snapshot()}, 200
            if fmt != "json":
                raise ApiError(
                    400,
                    "format must be 'json', 'prometheus' or 'snapshot', "
                    f"got {fmt!r}",
                )
            stats = self.service.stats()
            stats["latency"]["http"] = self.server.request_latency.summary()  # type: ignore[attr-defined]
            return stats, 200
        if parts == ["runs"]:
            return {"runs": self.service.runs()}, 200
        if len(parts) == 3 and parts[0] == "runs":
            run_id, endpoint = parts[1], parts[2]
            if endpoint == "contributions":
                return self.service.query("contributions", run_id), 200
            if endpoint == "leaderboard":
                top = query.get("top", [None])[0]
                return (
                    self.service.query(
                        "leaderboard", run_id, top=int(top) if top is not None else None
                    ),
                    200,
                )
            if endpoint == "weights":
                scheme = query.get("scheme", ["rectified"])[0]
                return self.service.query("weights", run_id, scheme=scheme), 200
            if endpoint == "profile":
                return self.service.profile(run_id), 200
        if parts == ["wal", "stream"]:
            wal = getattr(self.service, "wal", None)
            if wal is None:
                raise ApiError(
                    404, "no write-ahead log is attached to this worker"
                )
            from_seq = int(query.get("from_seq", ["1"])[0])
            limit = int(query.get("limit", ["512"])[0])
            return wal.frames_from(from_seq, limit=limit), 200
        raise ApiError(404, f"no such endpoint: GET {url.path}")

    def _route_post(self) -> tuple[dict, int]:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "control":
            controller = getattr(self.server, "controller", None)
            if controller is None:
                raise ApiError(404, "this server has no cluster controller")
            return controller.handle(parts[1], read_json_body(self)), 200
        if parts != ["runs"]:
            self._method_not_allowed(parts, "POST")
        self._check_ring_epoch()
        return register_from_spec(self.service, read_json_body(self)), 201

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
        fence = getattr(self.server, "ring_epoch", None)
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


class EvaluationHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`EvaluationService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: EvaluationService | None = None,
        *,
        verbose: bool = False,
        slos: tuple | list | None = None,
        robustness_file: str | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service if service is not None else EvaluationService()
        self.request_latency = LatencyHistogram()
        self.verbose = verbose
        # Cluster plumbing, both off for a standalone server: the worker
        # bootstrap installs a WorkerController (POST /control/*) and the
        # current ring epoch (stale-write fencing); see serve/replication.
        self.controller = None
        self.ring_epoch: int | None = None
        # The SLO engine + RED series: every finished request is
        # classified good/bad per objective; GET /statusz serves verdicts.
        self.telemetry = RequestTelemetry(self.service.obs.registry, slos=slos)
        self.slo_tracker = self.telemetry.slo_tracker
        self.robustness_file = robustness_file or DEFAULT_ROBUSTNESS_FILE
        # exist_ok: a service outliving one HTTP frontend (tests, restarts)
        # re-registers the fresh histogram over the dead one's.
        self.service.obs.registry.register(
            "repro_http_request_latency_seconds",
            self.request_latency,
            help="HTTP request wall time, routing through response write",
            exist_ok=True,
        )

    def observe_request(
        self,
        path: str,
        status: int,
        seconds: float,
        *,
        retry_after: bool = False,
        trace_id: str | None = None,
    ) -> None:
        """One finished request into the SLO tracker and RED series."""
        self.telemetry.observe(
            path, status, seconds, retry_after=retry_after, trace_id=trace_id
        )

    def statusz(self) -> dict:
        """The ``GET /statusz`` payload: verdicts, not raw series.

        SLO burn rates and budgets, per-endpoint latency summaries with
        the slowest exemplar (a trace id to pull up first), breaker
        states, and — on a standby — replication lag.
        """
        payload = self.telemetry.status()
        stats = self.service.stats()
        follower = getattr(self.controller, "follower", None)
        payload.update(
            {
                "health": self.service.health()["status"],
                "breakers": stats["breakers"],
                "replication": (
                    follower.stats() if follower is not None else None
                ),
                "uptime_seconds": stats["uptime_seconds"],
                "ring_epoch": self.ring_epoch,
            }
        )
        return payload

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests / in-process embedding)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


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
    print("endpoints: /healthz /statusz /robustness "
          "/metricz[?format=prometheus] /runs "
          "/runs/{id}/contributions /runs/{id}/leaderboard /runs/{id}/weights "
          "/runs/{id}/profile")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        server.service.close()
    return 0
