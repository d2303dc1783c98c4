"""Self-tests of the benchmark's own arithmetic and span recorder.

Run from the repository root::

    python3 -m pytest loadbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scrape
import spans as spanlib
import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# ------------------------------------------------------- percentile rule


@pytest.mark.parametrize(
    "n, q, label",
    [
        (10, None, "max"),  # nothing has ten samples beyond it
        (20, 0.5, "p50"),
        (99, 0.5, "p50"),  # p90 would leave 9 beyond
        (100, 0.9, "p90"),
        (288, 0.95, "p95"),
        (399, 0.95, "p95"),  # p97.5 would leave 9 beyond
        (400, 0.975, "p97.5"),
        (993, 0.975, "p97.5"),
        (1000, 0.99, "p99"),
        (2000, 0.995, "p99.5"),
        (10000, 0.999, "p99.9"),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q, label):
    assert stats.tail_quantile(n) == q
    summary = stats.summarize([float(i) for i in range(n)])
    assert summary["n"] == n
    assert summary["tail_label"] == label
    if q is not None:
        assert summary["tail_beyond"] >= stats.MIN_BEYOND
        assert stats.beyond(n, q) == summary["tail_beyond"]
        # the next rung up would not have been supported
        higher = [r for r in stats.TAIL_LADDER if r > q]
        assert all(stats.beyond(n, r) < stats.MIN_BEYOND for r in higher)


def test_nearest_rank_and_beyond_agree():
    values = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(values, 0.5) == 50
    assert stats.nearest_rank(values, 0.9) == 90
    assert stats.beyond(100, 0.9) == 10  # 91..100
    assert stats.nearest_rank([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_summarize_tail_of_a_short_sample_is_its_max():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {
        "n": 3, "p50": 2.0, "tail": 3.0, "tail_label": "max", "tail_beyond": 0,
    }


# ------------------------------------------------- counter/histogram deltas


def _hist(counts, bounds=(0.001, 0.01, 0.1), total=0.0, maximum=0.0):
    return {
        "bounds": list(bounds),
        "bucket_counts": list(counts),
        "count": sum(counts),
        "total": total,
        "max": maximum,
    }


def test_counter_delta():
    assert stats.counter_delta(3.0, 10.0) == 7.0
    assert stats.counter_delta(None, 4.0) == 4.0  # born mid-phase
    with pytest.raises(ValueError):
        stats.counter_delta(10.0, 3.0)  # a restart is not a negative delta


def test_histogram_delta_subtracts_bucketwise():
    before = _hist([1, 2, 0, 0], total=0.5, maximum=0.05)
    after = _hist([1, 5, 4, 1], total=2.0, maximum=0.3)
    delta = stats.histogram_delta(before, after)
    assert delta["bucket_counts"] == [0, 3, 4, 1]
    assert delta["count"] == 8
    assert delta["total"] == pytest.approx(1.5)
    assert stats.histogram_delta(None, after)["bucket_counts"] == [1, 5, 4, 1]
    with pytest.raises(ValueError):
        stats.histogram_delta(after, before)
    with pytest.raises(ValueError):
        stats.histogram_delta(_hist([0, 0, 0, 0], bounds=(1, 2, 3)), after)


def test_histogram_quantile_interpolates_within_the_bucket():
    # ten observations, all in (0.001, 0.01]: the median sits half-way
    delta = _hist([0, 10, 0, 0])
    assert stats.histogram_quantile(delta, 0.5) == pytest.approx(0.0055)
    # overflow bucket is capped at the observed max
    delta = _hist([0, 0, 0, 4], maximum=0.5)
    assert stats.histogram_quantile(delta, 1.0) == pytest.approx(0.5)
    assert stats.histogram_quantile(None, 0.5) == 0.0
    merged = stats.merge_histograms([_hist([1, 0, 0, 0]), _hist([0, 3, 0, 0]), None])
    assert merged["bucket_counts"] == [1, 3, 0, 0] and merged["count"] == 4


def _snapshot(requests, durations):
    return {
        "repro_http_requests_total": {
            "type": "counter",
            "series": [
                {"labels": {"endpoint": e, "code": "200"}, "value": v}
                for e, v in requests.items()
            ],
        },
        "repro_http_request_duration_seconds": {
            "type": "histogram",
            "series": [
                {"labels": {"endpoint": e}, "value": _hist(c)}
                for e, c in durations.items()
            ],
        },
    }


def _profile(epochs, phases):
    return {
        "epochs": epochs,
        "phases": [
            {"phase": name, "calls": calls, "total_s": total}
            for name, (calls, total) in phases.items()
        ],
    }


def test_scrape_delta_sums_workers_and_filters_labels():
    lb, other = "/runs/{id}/leaderboard", "/metricz"
    before = scrape.Scrape(
        workers={
            "0": _snapshot({lb: 5, other: 2}, {lb: [0, 5, 0, 0]}),
            "1": _snapshot({lb: 1}, {lb: [0, 1, 0, 0]}),
        },
        profiles={"run-a": _profile(2, {"wal.fsync": (2, 0.2)})},
    )
    after = scrape.Scrape(
        workers={
            "0": _snapshot({lb: 9, other: 7}, {lb: [1, 8, 0, 0]}),
            "1": _snapshot({lb: 4}, {lb: [0, 3, 1, 0]}),
        },
        profiles={
            "run-a": _profile(5, {"wal.fsync": (5, 0.8)}),
            "run-b": _profile(3, {"wal.fsync": (3, 0.3), "gtg.eval_round": (3, 0.9)}),
        },
    )
    delta = scrape.diff(before, after)
    is_read = lambda labels: labels["endpoint"] == lb  # noqa: E731
    assert delta.counter("repro_http_requests_total", is_read) == 7
    assert delta.counter("repro_http_requests_total") == 12
    hist = delta.histogram("repro_http_request_duration_seconds", is_read)
    assert hist["bucket_counts"] == [1, 5, 1, 0] and hist["count"] == 7
    calls, total, epochs = delta.phase("wal.fsync")
    assert (calls, epochs) == (6, 6) and total == pytest.approx(0.9)
    assert delta.phase("gtg.eval_round")[2] == 3  # only run-b recorded it


def test_prometheus_parse_matches_the_program_registry():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(
        "repro_router_proxy_errors_total", labels={"kind": "timeout"}
    ).inc(3)
    histogram = registry.histogram(
        "repro_http_request_duration_seconds",
        labels={"endpoint": "/runs/{id}/leaderboard"},
    )
    for seconds in (0.0004, 0.002, 0.002, 0.7):
        histogram.record(seconds, trace_id="abc")
    merged = MetricsRegistry().merge(registry.snapshot(), labels={"worker": "router"})
    parsed = scrape.parse_prometheus(merged.render_prometheus(), "router")
    series = parsed["repro_http_request_duration_seconds"]["series"][0]
    assert series["labels"] == {"endpoint": "/runs/{id}/leaderboard"}
    want = histogram.snapshot()
    assert series["value"]["bucket_counts"] == list(want["bucket_counts"])
    assert series["value"]["count"] == 4
    assert series["value"]["total"] == pytest.approx(want["total"])
    errors = parsed["repro_router_proxy_errors_total"]["series"]
    assert errors == [{"labels": {"kind": "timeout"}, "value": 3.0}]
    assert scrape.parse_prometheus(merged.render_prometheus(), "0") == {}


# ---------------------------------------------------------- span self-time


def _span(name, start, end, sid, *, root, parent=0, op="ingest", proc=1):
    return spanlib.Span(proc, name, start, end, sid, parent, op, root)


def test_self_time_subtracts_children_and_their_overlap_once():
    spans = [
        _span("http.dispatch", 0.0, 10.0, 1, root=1),
        _span("service.ingest", 1.0, 5.0, 2, parent=1, root=1),
        _span("wal.append", 4.0, 7.0, 3, parent=1, root=1),  # overlaps its sibling
    ]
    selves = spanlib.self_times(spans)
    assert selves[(1, 1)] == pytest.approx(10.0 - 6.0)  # union [1, 7]
    assert selves[(1, 2)] == pytest.approx(4.0)
    assert spanlib.covered(0, 10, [(1, 5), (4, 7), (20, 30)]) == pytest.approx(6.0)


def test_nested_profile_phases_eval_round_contains_reconstruct():
    # gtg.eval_round wraps three coalition evaluations, each of which
    # wraps a gtg.reconstruct phase: only the walk's own bookkeeping is
    # eval_round self time.
    spans = [
        _span("estimator.ingest.gtg", 0.0, 20.0, 1, root=1),
        _span("phase:gtg.reconstruct", 0.0, 2.0, 2, parent=1, root=1),  # base loss
        _span("phase:gtg.eval_round", 2.0, 20.0, 3, parent=1, root=1),
    ]
    sid = 4
    for start in (3.0, 8.0, 13.0):
        spans.append(_span("coalition.value", start, start + 4.0, sid, parent=3, root=1))
        spans.append(
            _span("phase:gtg.reconstruct", start + 0.5, start + 3.5, sid + 1, parent=sid, root=1)
        )
        sid += 2
    selves = spanlib.self_times(spans)
    assert spanlib.self_total(spans, selves, "phase:gtg.eval_round") == pytest.approx(18.0 - 12.0)
    assert spanlib.self_total(spans, selves, "phase:gtg.reconstruct") == pytest.approx(2.0 + 9.0)
    assert spanlib.self_total(spans, selves, "coalition.value") == pytest.approx(3.0)
    # self times of a tree add up to its root's duration
    assert sum(selves.values()) == pytest.approx(20.0)


def test_breakdown_charges_the_hop_to_the_router_not_the_worker():
    router, worker = 1, 2
    spans = [
        _span("router.dispatch", 0.0, 10.0, 1, op="read", root=1, proc=router),
        _span("router.proxy", 1.0, 9.0, 2, parent=1, op="read", root=1, proc=router),
        _span("http.dispatch", 2.0, 7.0, 1, op="read", root=1, proc=worker),
        _span("service.query", 3.0, 6.0, 2, parent=1, op="read", root=1, proc=worker),
        _span("cache.get", 4.0, 5.0, 3, parent=2, op="read", root=1, proc=worker),
        _span("http.dispatch", 20.0, 21.0, 9, op="other", root=9, proc=worker),
    ]
    selves = spanlib.self_times(spans)
    n_ops, layers = spanlib.op_breakdown(spans, selves, "read")
    assert n_ops == 1
    assert layers["router"] == pytest.approx(2.0)
    assert layers["hop"] == pytest.approx(8.0 - 5.0)
    assert layers["http"] == pytest.approx(2.0)
    assert layers["service"] == pytest.approx(2.0)
    assert layers["cache"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(10.0)  # the router's whole span
    assert len(spanlib.within(spans, (0.0, 15.0))) == 5


def test_unattributed_is_what_the_layers_leave():
    layers = {"http": 0.4, "service": 0.06, "cache": 0.01}
    assert stats.unattributed(1.2, layers) == pytest.approx(1.2 - 0.47)
    # layers that explain more than the mean leave a negative residual
    assert stats.unattributed(0.3, layers) < 0


# ------------------------------------------------------------ ingest checks


def test_a_created_run_without_an_answer_is_wrong():
    import inputs as gen
    import run

    posted = [
        gen.Post("run-0", 0, "digfl"),
        gen.Post("run-1", 0, "digfl"),  # same pair as run-0
        gen.Post("run-2", 1, "gtg_shapley", (("seed", 3),)),
        gen.Post("run-3", 1, "dpvs"),
    ]
    batch = {post.pair: [float(post.log), 0.5] for post in posted}
    computed = []

    def reference(pair):
        computed.append(pair)
        return batch[pair]

    answers = {
        "run-0": [0.0, 0.5],
        "run-1": [0.0, 0.5],
        # run-2 was created but its /contributions answered 404
        "run-3": [1.0, 0.25],  # the wrong totals
    }
    wrong, pairs = run.ingest_mismatches(posted, answers, reference)
    assert pairs == 3 and len(computed) == 3  # one batch estimate per pair
    assert len(wrong) == 2
    assert wrong[0].startswith("run-2 ") and "no contributions" in wrong[0]
    assert wrong[1].startswith("run-3 ") and "!= batch [1.0, 0.5]" in wrong[1]
    answers["run-2"], answers["run-3"] = [1.0, 0.5], [1.0, 0.5]
    assert run.ingest_mismatches(posted, answers, reference) == ([], 3)


def test_steal_share_reads_the_eighth_proc_stat_counter():
    import run

    # user nice system idle iowait irq softirq steal guest guest_nice
    before = [100, 0, 50, 800, 10, 0, 5, 20, 0, 0]
    after = [160, 0, 70, 900, 10, 0, 5, 40, 0, 0]
    assert run.steal_share(before, after) == pytest.approx(20 / 200)
    assert run.steal_share(None, after) is None


# ------------------------------------------------------------ span recorder


def test_trace_hook_records_nested_phases_in_a_fresh_process(tmp_path):
    program = (
        "from repro.obs.profile import Profiler\n"
        "from repro.serve.cache import ResultCache\n"
        "p = Profiler()\n"
        "with p.phase('gtg.eval_round'):\n"
        "    with p.phase('gtg.reconstruct'):\n"
        "        ResultCache().get('k')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(spanlib.__file__).resolve().parent / "trace_hook"), str(ROOT / "src")]
    )
    env["LOADBENCH_TRACE_OUT"] = str(tmp_path)
    subprocess.run([sys.executable, "-c", program], env=env, check=True, timeout=120)
    recorded = spanlib.load(tmp_path)
    by_name = {s.name: s for s in recorded}
    assert set(by_name) == {"phase:gtg.eval_round", "phase:gtg.reconstruct", "cache.get"}
    outer = by_name["phase:gtg.eval_round"]
    assert by_name["phase:gtg.reconstruct"].parent == outer.sid
    assert by_name["cache.get"].parent == by_name["phase:gtg.reconstruct"].sid
    assert all(s.root == outer.sid for s in recorded)
    payload = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
    assert payload["pid"] == recorded[0].proc
