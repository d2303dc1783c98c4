"""The repository benchmark: real server processes under seeded load.

Run one workload from the repository root::

    python3 loadbench/run.py --workload read-keepalive --seed 1 --seconds 24 --trace 0
    python3 loadbench/run.py --workload ingest-mixed --seed 1 --seconds 24 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and carry a ``report`` line with the
details (seed, input checksum, percentiles used, sample counts).  See
``loadbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# -------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shards: int  # 0: one `repro serve` process; N: --cluster N
    wal: bool
    keepalive: bool  # read clients hold one connection each
    read_rate: float  # open-loop reads per second
    open_share: float  # share of --seconds in the reads-only open-loop phase
    seed_runs: int  # VFL runs registered during set-up
    hfl_logs: int = 0  # HFL logs for the producer or the registrations
    mixed_share: float = 0.0  # > 0: a closed-loop HFL producer beside a reader
    # Read workloads time this many digfl HFL registrations before their
    # reads, so every workload reports the ingest metrics.  An HFL post is
    # mostly computation; a VFL post is a few milliseconds of connection
    # handling and, behind a write-ahead log, fsyncs, and its median moved
    # by a third between runs.
    registrations: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read-keepalive",
            "Real HTTP clients reuse connections: nearly all time is in the "
            "serve.http front door and the socket, with no estimator work; a "
            "front-door write-path fix shows here and nowhere else.",
            shards=0, wal=False, keepalive=True, read_rate=20.0, open_share=0.6,
            seed_runs=40, hfl_logs=2, registrations=100,
        ),
        Workload(
            "read-cluster3",
            "Puts the serve.cluster router-to-worker hop on the blocking path; "
            "fresh client connections keep the keep-alive stall from hiding "
            "it, so a router connection pool shows here.",
            shards=3, wal=True, keepalive=False, read_rate=69.0, open_share=0.6,
            seed_runs=40, hfl_logs=2, registrations=100,
        ),
        Workload(
            "ingest-mixed",
            "Writes beside reads on one process: time goes to io, the "
            "estimators and serve.wal, and reads show ingest interference; a "
            "coalition-evaluation or fsync change shows here.",
            shards=0, wal=True, keepalive=False, read_rate=55.0, open_share=0.2,
            seed_runs=12, hfl_logs=4, mixed_share=0.55,
        ),
    )
}

SETUPS = 3  # untraced runs set up this many times and report the median
CAPACITY_SHARE = 0.25  # share of --seconds in the closed-loop read phase
# The first part of the closed-loop phase is not counted.  Its read rate
# often starts up to 1.5x higher and drops within about two seconds, once
# the scheduler has placed the client's and the server's threads; how
# long that lasted made the counted rate differ from run to run.
SETTLE_SHARE = 0.4
VFL_LOGS = 4  # generated VFL logs the seeded runs cycle through
HOP_PROBES = 100

# Tails (read_tail_ms, ingest_p90_ms) swing by more than any bound a
# shared two-core machine allows; they are reported in the details and
# among the per-layer metrics, not as bounded metrics.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_capacity_rps": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _require_program() -> None:
    """Refuse to run, printing no result, without the program's source."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)


# Imports that need the program's source on sys.path.
_require_program()
sys.path.insert(0, str(ROOT / "src"))

import inputs as gen  # noqa: E402
import scrape  # noqa: E402
import spans as spanlib  # noqa: E402
import stats  # noqa: E402
from loadgen import Client, Sample, WrongAnswer, closed_loop, open_loop  # noqa: E402
from servers import HOST, ServerSet, get_json  # noqa: E402

READ_TEMPLATES = {f"/runs/{{id}}/{ep}" for ep in gen.READ_ENDPOINTS}
# Endpoint templates of workload traffic; scrapes and checks fall outside.
WORKLOAD_TEMPLATES = READ_TEMPLATES | {"/runs"}


# ---------------------------------------------------------------- checks


def _created(run_id: str):
    def check(status: int, body: bytes) -> bool:
        if status != 201:
            return False
        if json.loads(body).get("run_id") != run_id:
            raise WrongAnswer(f"POST /runs for {run_id} answered {body[:200]!r}")
        return True

    return check


def _same_bytes(expected: bytes, path: str):
    def check(status: int, body: bytes) -> bool:
        if status != 200:
            return False
        if body != expected:
            raise WrongAnswer(f"GET {path} answered {body[:200]!r}")
        return True

    return check


def _validate_read(payload: dict, ref: gen.VflRun, endpoint: str, path: str) -> None:
    """A warm-up answer must equal the batch ``estimate_vfl_first_order``."""
    if payload.get("stale"):
        ok = False
    elif endpoint == "contributions":
        ok = (
            payload["participant_ids"] == ref.participant_ids
            and payload["totals"] == ref.totals
        )
    elif endpoint == "leaderboard":
        rows = [(row["participant"], row["contribution"]) for row in payload["leaderboard"]]
        ok = rows == ref.leaderboard()
    else:
        ok = (
            payload["participant_ids"] == ref.participant_ids
            and payload["weights"] == ref.weights
        )
    if not ok:
        raise WrongAnswer(f"GET {path} differs from the batch estimate: {payload}")


def ingest_mismatches(posted, answers: dict, reference) -> tuple[list[str], int]:
    """Every ingested pair must equal the backend's batch estimate, exactly.

    ``answers`` maps run id to the served ``/contributions`` totals and
    ``reference(pair)`` computes the batch totals.  A run that was created
    but has no answer is wrong too.  Returns the mismatches and the number
    of distinct pairs checked.
    """
    references: dict[tuple, list] = {}
    wrong = []
    for post in posted:
        if post.pair not in references:
            references[post.pair] = reference(post.pair)
        label = f"{post.run_id} ({post.estimator} {dict(post.options)})"
        got = answers.get(post.run_id)
        if got is None:
            wrong.append(f"{label} was created but served no contributions")
        elif got != references[post.pair]:
            wrong.append(f"{label} totals {got} != batch {references[post.pair]}")
    return wrong, len(references)


def _cpu_ticks() -> list[int] | None:
    """The machine's CPU time counters (``/proc/stat``), None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between.

    A shared host slows every timing by about this share; the report
    states it so that a slow run can be told from a slow program.
    """
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return stats.ratio(delta[7], sum(delta))


def _send_all(client: Client, requests) -> list[Sample]:
    out = []
    for method, path, body, check in requests:
        sent = time.perf_counter()
        status, data = client.request(method, path, body)
        done = time.perf_counter()
        out.append(Sample(sent, sent, done, status, check(status, data)))
    return out


# ----------------------------------------------------------- measurement


@dataclass
class Measurement:
    setup_times: list[float] = field(default_factory=list)
    open_samples: list[Sample] = field(default_factory=list)
    mixed_samples: list[Sample] = field(default_factory=list)
    settle_samples: list[Sample] = field(default_factory=list)
    capacity_samples: list[Sample] = field(default_factory=list)
    capacity_elapsed: float = 0.0
    ingest_samples: list[Sample] = field(default_factory=list)
    ingest_posts: list = field(default_factory=list)  # HFL posts, to verify
    ingest_elapsed: float = 0.0
    verify_samples: list[Sample] = field(default_factory=list)
    hop: dict | None = None
    rss_mb: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)  # the whole measured window
    open_window: tuple[float, float] = (0.0, 0.0)
    open_delta: scrape.Delta | None = None
    closed_delta: scrape.Delta | None = None
    all_delta: scrape.Delta | None = None
    producer_error: BaseException | None = None
    ingest_epochs: int = 0
    statusz: str = "unknown"
    wrong: list[str] = field(default_factory=list)
    distinct_pairs: int = 0
    steal_share: float | None = None  # over the measured window

    def samples(self) -> list[Sample]:
        return (
            self.ingest_samples + self.mixed_samples + self.open_samples
            + self.settle_samples + self.capacity_samples + self.verify_samples
        )


class Bench:
    """One benchmark invocation: inputs, deployments, phases, metrics."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.wl = workload
        self.workdir = workdir
        self.senders = max(1, min(2, os.cpu_count() or 1))
        self.inputs = gen.Inputs(seed)
        self.servers: ServerSet | None = None

    # -- inputs ---------------------------------------------------------

    def make_inputs(self) -> None:
        data = self.workdir / "inputs"
        data.mkdir(parents=True)
        gen.make_vfl(self.inputs, data, VFL_LOGS)
        gen.make_reads(self.inputs, self.wl.seed_runs)
        if self.wl.hfl_logs:
            gen.make_hfl(self.inputs, data, self.wl.hfl_logs)
        if self.wl.mixed_share:
            gen.make_posts(self.inputs, length=4000)

    # -- set-up ---------------------------------------------------------

    def _deploy(self, tag: str, trace_dir: Path | None) -> ServerSet:
        run_dir = self.workdir / tag
        return ServerSet(
            ROOT,
            run_dir,
            shards=self.wl.shards,
            wal_dir=run_dir / "wal" if self.wl.wal else None,
            trace_dir=trace_dir,
        )

    def set_up(self, m: Measurement, tag: str, trace_dir: Path | None) -> dict:
        """Boot, register the seeded VFL runs, warm every read once.

        Returns the expected answer bytes of every (run, endpoint); the
        warm-up checks each against the batch estimate first.
        """
        servers = self.servers = self._deploy(tag, trace_dir)
        started = time.perf_counter()
        servers.start()
        client = Client(HOST, servers.port, keepalive=False)
        seeding = []
        for r in range(self.wl.seed_runs):
            run = self.inputs.vfl[r % len(self.inputs.vfl)]
            spec = {"kind": "vfl", "run_id": f"seed-{r}", "log_path": str(run.path)}
            seeding.append(("POST", "/runs", json.dumps(spec).encode(), _created(f"seed-{r}")))
        for sample in _send_all(client, seeding):
            if not sample.ok:
                raise WrongAnswer(f"seeding POST /runs answered {sample.status}")
        expected = {}
        for r in range(self.wl.seed_runs):
            ref = self.inputs.vfl[r % len(self.inputs.vfl)]
            for endpoint in gen.READ_ENDPOINTS:
                path = f"/runs/seed-{r}/{endpoint}"
                status, body = client.request("GET", path)
                if status != 200:
                    raise WrongAnswer(f"warm-up GET {path} answered {status}")
                _validate_read(json.loads(body), ref, endpoint, path)
                expected[(r, endpoint)] = body
        m.setup_times.append(time.perf_counter() - started)
        return expected

    # -- phases ---------------------------------------------------------

    def measure(self, seconds: float, *, setups: int, traced: bool, hop: bool) -> Measurement:
        m = Measurement()
        trace_dir = None
        if traced:
            trace_dir = self.workdir / "trace"
            trace_dir.mkdir()
        for i in range(setups):
            tag = f"{'traced' if traced else 'untraced'}-{i}"
            expected = self.set_up(m, tag, trace_dir if i == setups - 1 else None)
            if i < setups - 1:
                self.stop()
        servers = self.servers
        reads = [
            ("GET", f"/runs/seed-{r}/{ep}", None,
             _same_bytes(expected[(r, ep)], f"/runs/seed-{r}/{ep}"))
            for r, ep in self.inputs.reads
        ]
        keepalive = self.wl.keepalive
        open_s, capacity_s = seconds * self.wl.open_share, seconds * CAPACITY_SHARE
        started, ticks = time.perf_counter(), _cpu_ticks()
        before = scrape.take(servers)
        if self.wl.mixed_share:
            self._mix(m, reads, seconds * self.wl.mixed_share)
        else:
            self._register(m)
        open_before = scrape.take(servers)
        readers = [
            Client(HOST, servers.port, keepalive=keepalive) for _ in range(self.senders)
        ]
        try:
            opened = time.perf_counter()
            m.open_samples = open_loop(readers, reads, self.wl.read_rate, open_s)
            m.open_window = (opened, time.perf_counter())
            mid = scrape.take(servers)
            m.settle_samples, _ = closed_loop(readers, reads, capacity_s * SETTLE_SHARE)
            m.capacity_samples, m.capacity_elapsed = closed_loop(
                readers, reads, capacity_s * (1 - SETTLE_SHARE)
            )
        finally:
            for reader in readers:
                reader.close()
        posted = [
            post for post, sample in zip(m.ingest_posts, m.ingest_samples) if sample.ok
        ]
        after = scrape.take(servers, [post.run_id for post in posted])
        m.window = (started, time.perf_counter())
        m.steal_share = steal_share(ticks, _cpu_ticks())
        m.open_delta = scrape.diff(open_before, mid)
        m.closed_delta = scrape.diff(mid, after)
        m.all_delta = scrape.diff(before, after)
        if hop and self.wl.shards:
            m.hop = self._hop_probe(expected)
        m.statusz = get_json(servers.port, "/statusz")["status"]
        m.rss_mb = servers.peak_rss_mb()
        answers = self._fetch_ingested(m, posted)
        self.stop()
        self._verify_ingested(m, posted, answers)
        return m

    def _register(self, m: Measurement) -> None:
        """The read workloads' ingest phase: a fixed count of registrations."""
        posts = []
        for k in range(self.wl.registrations):
            post = gen.Post(f"reg-{k}", k % len(self.inputs.hfl_paths), "digfl")
            m.ingest_posts.append(post)
            spec = json.dumps(self.inputs.post_spec(post)).encode()
            posts.append(("POST", "/runs", spec, _created(post.run_id)))
        started = time.perf_counter()
        m.ingest_samples = _send_all(Client(HOST, self.servers.port, keepalive=False), posts)
        m.ingest_elapsed = time.perf_counter() - started
        m.ingest_epochs = gen.HFL_EPOCHS * sum(1 for s in m.ingest_samples if s.ok)

    def _mix(self, m: Measurement, reads, seconds: float) -> None:
        """ingest-mixed: the producer beside one open-loop reader."""
        producer = threading.Thread(target=self._produce, args=(m, seconds))
        producer.start()
        reader = Client(HOST, self.servers.port, keepalive=self.wl.keepalive)
        try:
            m.mixed_samples = open_loop([reader], reads, self.wl.read_rate, seconds)
        finally:
            reader.close()
            producer.join()
        if m.producer_error is not None:
            raise m.producer_error

    def _produce(self, m: Measurement, seconds: float) -> None:
        """The ingest producer: closed-loop HFL posts for ``seconds``."""
        posts = [
            ("POST", "/runs", json.dumps(self.inputs.post_spec(p)).encode(), _created(p.run_id))
            for p in self.inputs.posts
        ]
        client = Client(HOST, self.servers.port, keepalive=False)
        m.ingest_posts = self.inputs.posts
        try:
            m.ingest_samples, m.ingest_elapsed = closed_loop([client], posts, seconds)
            if len(m.ingest_samples) >= len(posts):
                raise RuntimeError("the post schedule is too short for --seconds")
            m.ingest_epochs = gen.HFL_EPOCHS * sum(1 for s in m.ingest_samples if s.ok)
        except BaseException as exc:  # re-raised on the measuring thread
            m.producer_error = exc

    def _fetch_ingested(self, m: Measurement, posted) -> dict:
        client = Client(HOST, self.servers.port, keepalive=False)
        answers = {}

        def keep(run_id):
            def check(status, body):
                if status == 200:
                    answers[run_id] = json.loads(body)["totals"]
                return status == 200
            return check

        m.verify_samples = _send_all(
            client,
            [("GET", f"/runs/{p.run_id}/contributions", None, keep(p.run_id)) for p in posted],
        )
        return answers

    def _verify_ingested(self, m: Measurement, posted, answers: dict) -> None:
        wrong, m.distinct_pairs = ingest_mismatches(
            posted, answers, self.inputs.hfl_reference
        )
        m.wrong += wrong

    def _hop_probe(self, expected: dict) -> dict:
        """Reads through the router against the same reads sent to the owner."""
        owner_port: dict[str, int] = {}
        via_router, direct = [], []
        for r, endpoint in self.inputs.reads[:HOP_PROBES]:
            run_id = f"seed-{r}"
            if run_id not in owner_port:
                shard = get_json(self.servers.port, f"/cluster?key={run_id}")["shard"]
                owner_port[run_id] = self.servers.worker_ports[shard]
            path = f"/runs/{run_id}/{endpoint}"
            check = _same_bytes(expected[(r, endpoint)], path)
            for port, bucket in ((self.servers.port, via_router), (owner_port[run_id], direct)):
                bucket.extend(_send_all(Client(HOST, port, keepalive=False), [("GET", path, None, check)]))
        router_p50 = statistics.median(s.service for s in via_router)
        direct_p50 = statistics.median(s.service for s in direct)
        return {"router_p50_ms": router_p50 * 1e3, "direct_p50_ms": direct_p50 * 1e3,
                "n": len(via_router)}

    def stop(self) -> None:
        if self.servers is not None:
            self.servers.stop()
            self.servers = None


# --------------------------------------------------------------- metrics


def _ok_latencies(samples: list[Sample], attr: str = "latency") -> list[float]:
    return [getattr(s, attr) for s in samples if s.ok]


def end_to_end(wl: Workload, m: Measurement) -> tuple[dict, dict]:
    """The end-to-end metrics and the details behind them."""
    reads = stats.summarize(_ok_latencies(m.open_samples))
    ingest_ms = sorted(_ok_latencies(m.ingest_samples, "service"))
    capacity_ok = sum(1 for s in m.capacity_samples if s.ok)
    metrics = {
        "setup_s": statistics.median(m.setup_times),
        "read_p50_ms": reads["p50"] * 1e3,
        "read_capacity_rps": capacity_ok / m.capacity_elapsed,
        "ingest_p50_ms": stats.nearest_rank(ingest_ms, 0.5) * 1e3,
        "ingest_epochs_per_s": m.ingest_epochs / m.ingest_elapsed,
        "peak_rss_mb": m.rss_mb,
    }
    mixed = _ok_latencies(m.mixed_samples)
    details = {
        "mixed_read_p50_ms": statistics.median(mixed) * 1e3 if mixed else 0.0,
        "read_tail_ms": reads["tail"] * 1e3,
        "read_tail": f"{reads['tail_label']} of n={reads['n']} ({reads['tail_beyond']} beyond)",
        "ingest_p90_ms": stats.nearest_rank(ingest_ms, 0.9) * 1e3,
        "ingest_p90": f"n={len(ingest_ms)} ({stats.beyond(len(ingest_ms), 0.9)} beyond)",
        "ingest_source": (
            "HFL producer" if wl.mixed_share
            else f"{wl.registrations} digfl HFL registrations"
        ),
        "setup_runs_s": m.setup_times,
        "capacity_requests": capacity_ok,
        "open_loop_rate": wl.read_rate,
        "ingest_epochs": m.ingest_epochs,
        "ingest_distinct_pairs": m.distinct_pairs,
    }
    return metrics, details


def per_layer(wl: Workload, untraced: Measurement, traced: Measurement,
              trace_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: instrument deltas (untraced) and span self times (traced)."""
    op = "ingest" if wl.mixed_share else "read"
    u_e2e, u_details = end_to_end(wl, untraced)
    t_e2e, _ = end_to_end(wl, traced)
    e2e_key = f"{op}_p50_ms"
    # The residual uses means: unlike medians, means of parts add up to
    # the mean of the whole.
    if op == "read":
        t_ops = _ok_latencies(traced.open_samples)
    else:
        t_ops = _ok_latencies(traced.ingest_samples, "service")
    t_mean_ms = statistics.fmean(t_ops) * 1e3
    opened, whole = untraced.open_delta, untraced.all_delta
    is_read = lambda labels: labels.get("endpoint") in READ_TEMPLATES  # noqa: E731
    is_workload = lambda labels: labels.get("endpoint") in WORKLOAD_TEMPLATES  # noqa: E731

    def p50_ms(delta, name, where=lambda labels: True, router=False):
        return stats.histogram_quantile(delta.histogram(name, where, router=router), 0.5) * 1e3

    def per_call_ms(phase):
        calls, total, _ = whole.phase(phase)
        return stats.ratio(total, calls) * 1e3

    def per_epoch_ms(phase):
        _, total, epochs = whole.phase(phase)
        return stats.ratio(total, epochs) * 1e3

    def wire(delta, samples):
        """Server p50 of the reads in ``delta``; client p50 minus it."""
        server = p50_ms(delta, "repro_http_request_duration_seconds", is_read)
        client = statistics.median(_ok_latencies(samples, "service")) * 1e3
        return server, client - server

    server_p50, wire_wait = wire(opened, untraced.open_samples)
    closed_server_p50, closed_wire_wait = wire(
        untraced.closed_delta, untraced.capacity_samples
    )
    events = lambda event: whole.counter(  # noqa: E731
        "repro_serve_cache_events_total", lambda labels: labels.get("event") == event
    )
    hits, misses = events("hits"), events("misses")

    # Set-up and the closing checks are traced too; keep the measured
    # window, and for reads only the open-loop phase the e2e median covers.
    spans = spanlib.within(spanlib.load(trace_dir), traced.window)
    selves = spanlib.self_times(spans)
    breakdown_spans = (
        spanlib.within(spans, traced.open_window) if op == "read" else spans
    )
    n_ops, layers = spanlib.op_breakdown(breakdown_spans, selves, op)
    layer_ms = {layer: seconds * 1e3 for layer, seconds in layers.items()}
    epochs = {name: spanlib.count(spans, f"estimator.ingest.{name}") for name in ("gtg", "dpvs")}
    evaluations = spanlib.count(spans, "coalition.value")
    coalition_hits = spanlib.count(spans, "coalition.cache_hit")

    def mean_ms(name):
        values = spanlib.durations(spans, name)
        return stats.ratio(sum(values), len(values)) * 1e3

    def eval_round_self(name):
        total = spanlib.self_total(spans, selves, f"phase:{name}.eval_round")
        return stats.ratio(total, epochs[name]) * 1e3

    lag = stats.summarize([s.lag for s in untraced.open_samples])
    metrics = {
        "http.server_p50_ms": server_p50,
        "http.wire_wait_ms": wire_wait,
        "http.closed_server_p50_ms": closed_server_p50,
        "http.closed_wire_wait_ms": closed_wire_wait,
        "http.requests": whole.counter("repro_http_requests_total", is_workload),
        "http.errors": whole.counter("repro_http_errors_total"),
        "service.query_p50_ms": p50_ms(whole, "repro_serve_query_latency_seconds"),
        "service.ingest_epoch_p50_ms": p50_ms(whole, "repro_serve_ingest_latency_seconds"),
        "service.admission_shed": whole.counter("repro_serve_admission_shed_total"),
        "cache.hit_ratio": stats.ratio(hits, hits + misses),
        "cache.evictions": events("evictions"),
        "cache.digest_ms_per_epoch": per_call_ms("cache.digest"),
        "router.hop_p50_ms": (
            untraced.hop["router_p50_ms"] - untraced.hop["direct_p50_ms"]
            if untraced.hop else 0.0
        ),
        "router.server_p50_ms": (
            p50_ms(opened, "repro_http_request_duration_seconds", is_read, router=True)
            if wl.shards else 0.0
        ),
        "router.proxy_errors": (
            whole.counter("repro_router_proxy_errors_total", router=True)
            if wl.shards else 0.0
        ),
        "io.load_log_ms": mean_ms("io.load_log"),
        "spec.validation_build_ms": mean_ms("spec.validation_build"),
        "estimator.valgrad_ms_per_epoch": per_call_ms("estimator.valgrad"),
        "estimator.dot_products_ms_per_epoch": per_call_ms("estimator.dot_products"),
        "gtg.reconstruct_ms_per_epoch": per_epoch_ms("gtg.reconstruct"),
        "gtg.eval_round_self_ms_per_epoch": eval_round_self("gtg"),
        "dpvs.reconstruct_ms_per_epoch": per_epoch_ms("dpvs.reconstruct"),
        "dpvs.eval_round_self_ms_per_epoch": eval_round_self("dpvs"),
        "coalition.evals_per_epoch": stats.ratio(evaluations, sum(epochs.values())),
        "coalition.cache_hit_ratio": stats.ratio(coalition_hits, coalition_hits + evaluations),
        "wal.fsync_ms": per_call_ms("wal.fsync"),
        "wal.appends": float(spanlib.count(spans, "wal.append")),
        "loadgen.lag_tail_ms": lag["tail"] * 1e3,
        "e2e.read_tail_ms": u_details["read_tail_ms"],
        "e2e.ingest_p90_ms": u_details["ingest_p90_ms"],
        "e2e.mixed_read_p50_ms": u_details["mixed_read_p50_ms"],
        "trace.e2e_p50_ms": t_e2e[e2e_key],
        "trace.e2e_mean_ms": t_mean_ms,
        "unattributed_ms": stats.unattributed(t_mean_ms, layer_ms),
        "trace.overhead_pct": (t_e2e[e2e_key] - u_e2e[e2e_key]) / u_e2e[e2e_key] * 100.0,
        **{f"layer.{layer}_self_ms": value for layer, value in layer_ms.items()},
    }
    details = {
        "primary_op": op,
        "traced_ops": n_ops,
        "spans": len(spans),
        "loadgen_lag": f"{lag['tail_label']} of n={lag['n']}",
        "hop_probe": untraced.hop,
        "untraced_e2e_p50_ms": u_e2e[e2e_key],
    }
    return metrics, details


# Per-layer units follow the name: the first matching suffix wins.
UNITS = (
    ("_ms_per_epoch", "ms"), ("_ms", "ms"), ("_per_s", "1/s"), ("_pct", "%"),
    ("_ratio", "ratio"),
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ------------------------------------------------------------------ main


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".loadbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    bench = Bench(wl, args.seed, workdir)
    try:
        bench.make_inputs()
        report = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "inputs_sha256": bench.inputs.checksum(),
            "seconds": args.seconds,
            # ingest-mixed: one producer thread beside one reader thread
            "sender_threads": 2 if wl.mixed_share else bench.senders,
            "cpu_count": os.cpu_count(),
        }
        if args.trace:
            half = args.seconds / 2
            untraced = bench.measure(half, setups=1, traced=False, hop=True)
            traced = bench.measure(half, setups=1, traced=True, hop=False)
            metrics, details = per_layer(wl, untraced, traced, workdir / "trace")
            measurements = [untraced, traced]
        else:
            m = bench.measure(args.seconds, setups=SETUPS, traced=False, hop=False)
            metrics, details = end_to_end(wl, m)
            measurements = [m]
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        bench.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for m in measurements for s in m.samples()]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    bare_500 = sum(1 for s in samples if s.status == 500)
    problems = [w for m in measurements for w in m.wrong]
    if bare_500:
        problems.append(f"{bare_500} bare 500 response(s)")
    problems += [f"SLO burning ({m.statusz})" for m in measurements if m.statusz != "ok"]
    report.update(details)
    report["cpu_steal_share"] = [m.steal_share for m in measurements]
    report.update({"attempted": attempted, "failed": failed, "problems": problems,
                   "error_rate": stats.ratio(failed, attempted)})
    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {unit_of(name)}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
