"""Command-line interface for quick contribution audits.

Subcommands::

    python -m repro.cli datasets                       # list the 14 datasets
    python -m repro.cli audit-hfl --dataset mnist --parties 5 --mislabeled 1
    python -m repro.cli audit-vfl --dataset boston --parties 6
    python -m repro.cli audit-hfl ... --exact          # add 2^n ground truth
    python -m repro.cli audit-hfl ... --save-log run.npz --save-report run.json
    python -m repro.cli audit-hfl --runtime threads --workers 4 \
        --dropout-rate 0.2 --straggler-ms 30 --round-deadline 80
    python -m repro.cli audit-hfl --robust-agg trimmed --screen \
        --checkpoint-dir ckpt            # re-run with --resume after a crash
    python -m repro.cli serve --port 8733  # streaming evaluation HTTP API
    python -m repro.cli serve --trace --trace-export spans.jsonl
    python -m repro.cli serve --cluster 3 --router-port 8733 --wal-dir wals
    python -m repro.cli serve --cluster 3 --replicas 1   # warm standbys
    python -m repro.cli cluster resize 4   # online rebalance, zero downtime
    python -m repro.cli cluster status
    python -m repro.cli slo check          # exit 1 if any SLO is burning
    python -m repro.cli profile run.npz --kind hfl --dataset mnist
    python -m repro.cli estimate run.npz --estimator gtg_shapley
    python -m repro.cli estimate run.npz --estimator gtg_shapley \
        --option seed=3 --option max_permutations=32
    python -m repro.cli compare run.npz --estimators digfl,gtg_shapley,dpvs
    python -m repro.cli scenario run free_rider --backend digfl
    python -m repro.cli scenario matrix --backends all --check
    python -m repro.cli scenario matrix --scenarios free_rider,label_noise_symmetric \
        --backends digfl,gtg_shapley --save BENCH_scenarios.json

Every audit builds the named synthetic dataset, trains the federation,
runs DIG-FL and prints a contribution table.  The ``--runtime`` family of
flags swaps the synchronous loop for the event-driven engine of
:mod:`repro.runtime` — parallel local updates, dropouts, stragglers and
deadline-based partial aggregation — and prints the fault summary.  The
robust flags activate :mod:`repro.robust`: ``--robust-agg`` picks a
Byzantine-robust aggregation rule, ``--screen`` quarantines bad updates
before aggregation (and prints the quarantine summary), and
``--checkpoint-dir`` / ``--resume`` give crash-safe audits.  ``serve``
boots the :mod:`repro.serve` query service: register saved training logs
over HTTP and query contributions, leaderboards and reweight vectors —
including live, mid-training, when an engine publishes into the same
service; ``--trace`` arms :mod:`repro.obs` span recording and
``--trace-export`` writes the buffered spans as JSONL on shutdown.
``profile`` replays a saved training log through the evaluation service
with the :mod:`repro.obs` phase timers armed and prints where the
estimator's time went (validation gradients, dot products, digests — and
``gtg.reconstruct`` / ``gtg.eval_round`` for the Shapley backends).
``estimate`` replays a saved log through any registered contribution
backend (:mod:`repro.estimators`; ``--estimator`` choices come from the
registry, ``--option KEY=VALUE`` tunes it); ``compare`` runs several
backends over one log and prints the volatility report — per-participant
coefficient of variation, rank stability, and cross-backend Spearman
agreement.  ``scenario`` drives the adversarial suite of
:mod:`repro.scenario`: ``scenario run`` generates one adverse federation
(Dirichlet skew, label noise, free-riders, VFL modality dropout) and
judges one backend against it; ``scenario matrix`` runs the full
scenario × backend grid and prints per-cell verdicts (``--check`` exits
nonzero on any rank-correctness or streaming-equality regression — the
CI gate).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import (
    backend_names,
    estimate_hfl_resource_saving,
    estimate_vfl_first_order,
)
from repro.core.selection import flag_low_quality
from repro.data import ALL_DATASETS, HFL_DATASETS, VFL_DATASETS
from repro.experiments.workloads import build_hfl_workload, build_vfl_workload
from repro.io import save_report, save_training_log, save_vfl_training_log
from repro.metrics import pearson_correlation
from repro.render import contribution_bars
from repro.robust import AGGREGATOR_NAMES, RobustConfig
from repro.runtime import FaultPlan, RuntimeConfig
from repro.shapley import HFLRetrainUtility, VFLRetrainUtility, exact_shapley


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime", "event-driven execution engine")
    group.add_argument(
        "--runtime", choices=("sync", "serial", "threads"), default="sync",
        help="sync in-process loop (default), serial engine, or thread pool",
    )
    group.add_argument("--workers", type=int, default=1,
                       help="thread-pool size (runtime=threads)")
    group.add_argument("--dropout-rate", type=float, default=0.0,
                       help="per-round probability a party skips the round")
    group.add_argument("--straggler-ms", type=float, default=0.0,
                       help="mean exponential extra delay per local update")
    group.add_argument("--round-deadline", type=float, default=None, metavar="MS",
                       help="aggregate whatever arrived within MS per round")


def _add_robust_flags(parser: argparse.ArgumentParser, *, vfl: bool = False) -> None:
    group = parser.add_argument_group("robust", "defense and recovery layer")
    if not vfl:
        group.add_argument(
            "--robust-agg", choices=AGGREGATOR_NAMES, default="mean",
            help="Byzantine-robust aggregation rule (default: weighted mean)",
        )
    group.add_argument(
        "--screen", action="store_true",
        help="quarantine non-finite / norm-blowup / cosine-outlier updates",
    )
    group.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist the training log per round for crash-safe resume",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="continue from the last complete round in --checkpoint-dir",
    )


def _robust_config(args) -> RobustConfig:
    """Translate CLI flags into a RobustConfig (default = seed regime)."""
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("error: --resume needs --checkpoint-dir")
    return RobustConfig(
        aggregator=getattr(args, "robust_agg", "mean"),
        screen=args.screen,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )


def _print_quarantine_summary(workload) -> None:
    if workload.quarantine is None:
        return
    stats = workload.quarantine.summary()
    if not stats["incidents"]:
        print("screening: no updates quarantined")
        return
    rules = ", ".join(f"{rule}={n}" for rule, n in sorted(stats["by_rule"].items()))
    print(
        f"screening: {stats['incidents']} updates quarantined "
        f"from parties {stats['parties']} ({rules})"
    )


def _runtime_config(args) -> RuntimeConfig | None:
    """Translate CLI flags into a RuntimeConfig (None = synchronous loop)."""
    wants_faults = (
        args.dropout_rate > 0.0
        or args.straggler_ms > 0.0
        or args.round_deadline is not None
    )
    if args.runtime == "sync":
        if wants_faults or args.workers != 1:
            raise SystemExit(
                "error: --workers / --dropout-rate / --straggler-ms / "
                "--round-deadline need --runtime serial or threads"
            )
        return None
    return RuntimeConfig(
        executor="serial" if args.runtime == "serial" else "threads",
        workers=args.workers if args.runtime == "threads" else 1,
        faults=FaultPlan(
            dropout_rate=args.dropout_rate,
            straggler_ms=args.straggler_ms,
            seed=args.seed,
        ),
        round_deadline_ms=args.round_deadline,
    )


def _print_runtime_summary(workload) -> None:
    if workload.runtime is None:
        return
    stats = workload.runtime.event_log.summary()
    print(
        f"runtime: {stats['rounds']:.0f} rounds in {stats['sim_seconds']*1e3:.1f} "
        f"sim-ms | completed {stats['completed']:.0f}/{stats['dispatched']:.0f} "
        f"dispatched, {stats['dropouts']:.0f} dropouts, "
        f"{stats['timeouts']:.0f} deadline misses, {stats['retries']:.0f} retries"
    )


def _cmd_datasets(_args) -> int:
    print(f"{'name':<14} {'key':<6} {'setting':<8} {'task':<11} paper size")
    for name, info in ALL_DATASETS.items():
        print(
            f"{name:<14} {info.key:<6} {info.setting:<8} {info.task:<11} "
            f"{info.paper_size}"
        )
    return 0


def _print_contribution_table(report, qualities=None, exact=None) -> None:
    header = "participant  contribution"
    if qualities is not None:
        header += "  quality"
    if exact is not None:
        header += "      exact"
    print(header)
    for row, pid in enumerate(report.participant_ids):
        line = f"{pid:>11}  {report.totals[row]:+12.5f}"
        if qualities is not None:
            line += f"  {qualities[row]:<10}"
        if exact is not None:
            line += f"  {exact.totals[row]:+9.5f}"
        print(line)
    flagged = flag_low_quality(report)
    if flagged:
        print(f"flagged as low-quality outliers: {flagged}")
    print()
    print(contribution_bars(report, qualities=qualities))


def _cmd_audit_hfl(args) -> int:
    if args.dataset not in HFL_DATASETS:
        print(f"error: {args.dataset!r} is not an HFL dataset "
              f"(choose from {sorted(HFL_DATASETS)})", file=sys.stderr)
        return 2
    workload = build_hfl_workload(
        args.dataset,
        n_parties=args.parties,
        n_mislabeled=args.mislabeled,
        n_noniid=args.noniid,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        runtime=_runtime_config(args),
        robust=_robust_config(args),
    )
    _print_runtime_summary(workload)
    _print_quarantine_summary(workload)
    fed = workload.federation
    report = estimate_hfl_resource_saving(
        workload.result.log, fed.validation, workload.model_factory
    )
    exact = None
    if args.exact:
        utility = HFLRetrainUtility(
            workload.trainer, fed.locals, fed.validation,
            init_theta=workload.result.log.initial_theta,
        )
        exact = exact_shapley(utility)
        print(
            f"exact Shapley value: {utility.evaluations} retrainings, "
            f"{utility.ledger.compute_seconds:.1f}s"
        )
    _print_contribution_table(report, qualities=fed.qualities, exact=exact)
    if exact is not None:
        print(f"PCC(DIG-FL, exact) = "
              f"{pearson_correlation(report.totals, exact.totals):.3f}")
    if args.save_log:
        save_training_log(workload.result.log, args.save_log)
        print(f"training log -> {args.save_log}")
    if args.save_report:
        save_report(report, args.save_report)
        print(f"report -> {args.save_report}")
    return 0


def _cmd_audit_vfl(args) -> int:
    if args.dataset not in VFL_DATASETS:
        print(f"error: {args.dataset!r} is not a VFL dataset "
              f"(choose from {sorted(VFL_DATASETS)})", file=sys.stderr)
        return 2
    workload = build_vfl_workload(
        args.dataset,
        n_parties=args.parties if args.parties else None,
        epochs=args.epochs,
        seed=args.seed,
        runtime=_runtime_config(args),
        robust=_robust_config(args),
    )
    _print_runtime_summary(workload)
    _print_quarantine_summary(workload)
    report = estimate_vfl_first_order(workload.result.log)
    exact = None
    if args.exact:
        utility = VFLRetrainUtility(
            workload.trainer, workload.split.train, workload.split.validation
        )
        exact = exact_shapley(utility)
        print(
            f"exact Shapley value: {utility.evaluations} retrainings, "
            f"{utility.ledger.compute_seconds:.1f}s"
        )
    _print_contribution_table(report, exact=exact)
    if exact is not None:
        print(f"PCC(DIG-FL, exact) = "
              f"{pearson_correlation(report.totals, exact.totals):.3f}")
    if args.save_log:
        save_vfl_training_log(workload.result.log, args.save_log)
        print(f"training log -> {args.save_log}")
    if args.save_report:
        save_report(report, args.save_report)
        print(f"report -> {args.save_report}")
    return 0


def _cmd_serve(args) -> int:
    # Imported here so plain audits never pay for the server stack.
    from repro.obs import Observability
    from repro.serve import EvaluationService, serve

    if args.cluster:
        from repro.serve import serve_cluster

        if args.recover:
            raise SystemExit(
                "--recover is implicit in cluster mode: every shard "
                "replays its own WAL on start"
            )
        if args.trace_export:
            raise SystemExit(
                "--trace-export is per-process; cluster workers export "
                "spans via the router's propagated trace ids instead"
            )
        return serve_cluster(
            args.host,
            args.router_port,
            args.cluster,
            wal_root=args.wal_dir,
            standby_replicas=args.replicas,
            drain_deadline_s=args.drain_deadline_s,
            cache_bytes=args.cache_mb * 1024 * 1024,
            max_workers=args.query_workers,
            query_deadline_ms=args.query_deadline_ms,
            admission_limit=args.max_queue,
            chaos_ingest_ms=args.chaos_ingest_ms,
            trace=args.trace,
            robustness_file=args.robustness_file,
        )
    if args.replicas:
        raise SystemExit("--replicas requires --cluster N")

    obs = Observability(trace=args.trace)
    service = EvaluationService(
        cache_bytes=args.cache_mb * 1024 * 1024,
        max_workers=args.query_workers,
        query_deadline_ms=args.query_deadline_ms,
        admission_limit=args.max_queue,
        obs=obs,
    )
    if args.chaos_ingest_ms:
        from repro.serve.chaos import delay_ingest

        delay_ingest(service, args.chaos_ingest_ms)
    if args.wal_dir:
        from repro.serve.wal import WriteAheadLog, recover

        wal = WriteAheadLog(args.wal_dir)
        if args.recover:
            report = recover(service, wal)
            print(f"recovery: {report.summary()}")
        service.attach_wal(wal)
    elif args.recover:
        raise SystemExit("--recover requires --wal-dir")
    try:
        return serve(
            args.host,
            args.port,
            service=service,
            robustness_file=args.robustness_file,
        )
    finally:
        if args.trace_export:
            count = obs.tracer.export_jsonl(args.trace_export)
            print(f"exported {count} span(s) -> {args.trace_export}")


def _cmd_cluster(args) -> int:
    # Talks to a running `repro serve --cluster N` router over HTTP.
    import json as _json
    from http.client import HTTPException

    from repro.serve.http import http_request

    if args.action == "resize" and args.shards < 1:
        raise SystemExit("error: resize needs at least 1 shard")
    if args.action == "resize":
        method, path = "POST", "/cluster/resize"
        body = _json.dumps({"shards": args.shards}).encode()
    else:
        method, path, body = "GET", "/cluster", None
    try:
        status, _, data = http_request(
            args.host, args.router_port, method, path,
            timeout_s=args.timeout_s, body=body,
        )
        payload = _json.loads(data.decode() or "{}")
    except (OSError, HTTPException, ValueError) as exc:
        raise SystemExit(
            f"error: no router at http://{args.host}:{args.router_port} "
            f"({exc})"
        ) from exc
    if status >= 400:
        raise SystemExit(
            f"error: router answered {status}: "
            f"{payload.get('error', 'unknown error')}"
        )
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_slo(args) -> int:
    # Scrapes /statusz on a running server (worker or router) and turns
    # the SLO verdict into an exit code a CI gate can consume:
    # 0 = every objective healthy, 1 = a burn-rate alert is firing,
    # 2 = the server could not be reached or answered an error.
    import json as _json
    import sys
    from http.client import HTTPException

    from repro.obs.slo import SloReport
    from repro.serve.http import http_request

    try:
        status, _, data = http_request(
            args.host, args.port, "GET", "/statusz", timeout_s=args.timeout_s
        )
        payload = _json.loads(data.decode() or "{}")
    except (OSError, HTTPException, ValueError) as exc:
        print(
            f"error: no server at http://{args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 2
    if status >= 400:
        print(
            f"error: server answered {status}: "
            f"{payload.get('error', 'unknown error')}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        slo = payload.get("slo", {})
        report = SloReport(
            generated_at=slo.get("generated_at", 0.0),
            results=slo.get("slos", []),
            counts=slo.get("counts", {}),
        )
        print(report.table())
        counts = slo.get("counts", {})
        print(
            f"requests={counts.get('requests', 0)} "
            f"shed={counts.get('shed', 0)} errors={counts.get('errors', 0)}"
        )
        # A router's /statusz carries every worker's verdict too.
        for shard, worker in sorted(payload.get("workers", {}).items()):
            print(f"worker {shard}: {worker.get('status', 'unknown')}")
    return 1 if payload.get("status") == "burning" else 0


def _cmd_profile(args) -> int:
    # Imported here so plain audits never pay for the server stack.
    from repro.io import load_training_log, load_vfl_training_log
    from repro.obs import Observability
    from repro.serve import EvaluationService
    from repro.serve.http import ApiError

    obs = Observability(trace=False, profile=True)
    service = EvaluationService(obs=obs)
    run_id = "profile"
    try:
        if args.kind == "hfl":
            from repro.serve.http import hfl_validation_and_model

            log = load_training_log(args.log)
            validation, model_factory = hfl_validation_and_model(
                args.dataset, args.seed, args.n_samples
            )
            service.register_hfl(
                log.participant_ids, validation, model_factory, run_id=run_id
            )
        else:
            log = load_vfl_training_log(args.log)
            service.register_vfl(
                log.feature_blocks, log.active_parties, run_id=run_id
            )
        service.ingest_log(run_id, log)
        # Exercise both cached queries so every estimator phase fires.
        service.query("contributions", run_id)
        service.query("leaderboard", run_id)
    except (ApiError, FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    finally:
        service.close()
    print(f"profile of {args.log} ({args.kind}, {log.n_epochs} epochs)")
    print(obs.profiles.for_run(run_id).table())
    return 0


def _parse_backend_options(pairs) -> dict:
    """Turn repeated ``--option KEY=VALUE`` flags into a backend kwargs dict.

    Values parse as JSON when they can (``seed=3`` → int, ``tol=0.01`` →
    float) and fall back to the raw string otherwise.
    """
    import json as _json

    options: dict = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --option needs KEY=VALUE, got {pair!r}")
        try:
            options[key] = _json.loads(raw)
        except _json.JSONDecodeError:
            options[key] = raw
    return options


def _load_log_for_estimation(args):
    """Load the saved log plus, for HFL, its validation set and model."""
    from repro.io import load_training_log, load_vfl_training_log

    if args.kind == "hfl":
        from repro.serve.http import hfl_validation_and_model

        log = load_training_log(args.log)
        validation, model_factory = hfl_validation_and_model(
            args.dataset, args.seed, args.n_samples
        )
        return log, validation, model_factory
    return load_vfl_training_log(args.log), None, None


def _run_estimator_backend(name, options, args, log, validation, model_factory):
    from repro.core import get_backend

    backend = get_backend(name, **options)
    backend.require(args.kind)
    if args.kind == "hfl":
        return backend.estimate_hfl(log, validation, model_factory)
    return backend.estimate_vfl(log)


def _cmd_estimate(args) -> int:
    options = _parse_backend_options(args.option)
    try:
        log, validation, model_factory = _load_log_for_estimation(args)
        report = _run_estimator_backend(
            args.estimator, options, args, log, validation, model_factory
        )
    except FileNotFoundError:
        raise SystemExit(f"error: no training log at {args.log!r}") from None
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(
        f"estimator {args.estimator} (method {report.method}) over "
        f"{log.n_epochs} epochs"
    )
    _print_contribution_table(report)
    if args.save_report:
        save_report(report, args.save_report)
        print(f"report -> {args.save_report}")
    return 0


def _cmd_compare(args) -> int:
    from repro.core import get_backend
    from repro.estimators import volatility_report

    if args.estimators == "all":
        names = [
            n for n in backend_names() if get_backend(n).supports(args.kind)
        ]
    else:
        names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    if len(names) < 2:
        raise SystemExit(
            "error: --estimators needs at least two backends to compare "
            f"(registered: {', '.join(backend_names())})"
        )
    try:
        log, validation, model_factory = _load_log_for_estimation(args)
        reports = {
            name: _run_estimator_backend(
                name, {}, args, log, validation, model_factory
            )
            for name in names
        }
    except FileNotFoundError:
        raise SystemExit(f"error: no training log at {args.log!r}") from None
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    width = max(len(n) for n in names)
    print(f"totals over {log.n_epochs} epochs")
    print(f"{'backend':<{width}}  " + "  ".join(
        f"p{pid:<9}" for pid in reports[names[0]].participant_ids
    ))
    for name in names:
        cells = "  ".join(f"{v:+10.5f}" for v in reports[name].totals)
        print(f"{name:<{width}}  {cells}")
    print()
    print(volatility_report(reports).table())
    return 0


def _matrix_scenarios(raw: str):
    from repro.scenario import get_scenario, scenario_grid, scenario_names

    if raw == "all":
        return scenario_grid()
    try:
        return [get_scenario(token.strip())
                for token in raw.split(",") if token.strip()]
    except KeyError:
        raise SystemExit(
            f"error: unknown scenario in {raw!r} "
            f"(known: {', '.join(scenario_names())})"
        ) from None


def _matrix_backends(raw: str):
    """``all`` → None (every capable backend per scenario kind)."""
    if raw == "all":
        return None
    names = [token.strip() for token in raw.split(",") if token.strip()]
    unknown = sorted(set(names) - set(backend_names()))
    if unknown:
        raise SystemExit(
            f"error: unknown backend(s) {', '.join(unknown)} "
            f"(registered: {', '.join(backend_names())})"
        )
    return names


def _cmd_scenario_run(args) -> int:
    import json as _json

    from repro.scenario import RobustnessMatrix

    scenarios = _matrix_scenarios(args.name)
    result = RobustnessMatrix(
        scenarios=scenarios,
        backends=[args.backend],
        seed=args.seed,
        exact_max_parties=args.exact_max_parties,
    ).run()
    if not result.cells:
        raise SystemExit(
            f"error: backend {args.backend!r} supports none of the "
            f"requested scenarios' log kinds"
        )
    print(result.table())
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_scenario_matrix(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.scenario import RobustnessMatrix

    result = RobustnessMatrix(
        scenarios=_matrix_scenarios(args.scenarios),
        backends=_matrix_backends(args.backends),
        seed=args.seed,
        exact_max_parties=args.exact_max_parties,
    ).run()
    print(result.table())
    if args.save:
        Path(args.save).write_text(
            _json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"matrix -> {args.save}")
    failures = result.failures()
    if failures:
        print()
        print("verdict regressions:", file=sys.stderr)
        for problem in failures:
            print(f"  {problem}", file=sys.stderr)
        if args.check:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the paper's 14 datasets").set_defaults(
        func=_cmd_datasets
    )

    hfl = sub.add_parser("audit-hfl", help="contribution audit for HFL")
    hfl.add_argument("--dataset", default="mnist")
    hfl.add_argument("--parties", type=int, default=5)
    hfl.add_argument("--mislabeled", type=int, default=1)
    hfl.add_argument("--noniid", type=int, default=1)
    hfl.add_argument("--epochs", type=int, default=10)
    hfl.add_argument("--lr", type=float, default=0.5)
    hfl.add_argument("--seed", type=int, default=0)
    hfl.add_argument("--exact", action="store_true",
                     help="also compute the 2^n-retraining ground truth")
    hfl.add_argument("--save-log", metavar="PATH")
    hfl.add_argument("--save-report", metavar="PATH")
    _add_runtime_flags(hfl)
    _add_robust_flags(hfl)
    hfl.set_defaults(func=_cmd_audit_hfl)

    vfl = sub.add_parser("audit-vfl", help="contribution audit for VFL")
    vfl.add_argument("--dataset", default="boston")
    vfl.add_argument("--parties", type=int, default=0,
                     help="0 = the paper's Table III party count")
    vfl.add_argument("--epochs", type=int, default=30)
    vfl.add_argument("--seed", type=int, default=0)
    vfl.add_argument("--exact", action="store_true")
    vfl.add_argument("--save-log", metavar="PATH")
    vfl.add_argument("--save-report", metavar="PATH")
    _add_runtime_flags(vfl)
    _add_robust_flags(vfl, vfl=True)
    vfl.set_defaults(func=_cmd_audit_vfl)

    serve = sub.add_parser(
        "serve", help="HTTP query service for streaming contribution evaluation"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8733)
    serve.add_argument("--cluster", type=int, default=0, metavar="N",
                       help="shard across N worker processes behind a "
                            "consistent-hash router (0 = single process)")
    serve.add_argument("--router-port", type=int, default=8733,
                       help="router port in --cluster mode (workers take "
                            "OS-assigned ports)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="warm standbys per shard in --cluster mode "
                            "(0 or 1; a standby tails its primary's WAL "
                            "and is promoted on primary death)")
    serve.add_argument("--drain-deadline-s", type=float, default=10.0,
                       help="on SIGINT/SIGTERM in --cluster mode, wait "
                            "this long for in-flight requests before "
                            "stopping (new requests get 503+Retry-After)")
    serve.add_argument("--cache-mb", type=int, default=64,
                       help="result/gradient cache budget in MiB")
    serve.add_argument("--query-workers", type=int, default=4,
                       help="thread-pool size for asynchronous queries")
    serve.add_argument("--query-deadline-ms", type=float, default=None,
                       help="per-request deadline; overruns answer 504")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="admission limit; a full queue sheds with 429")
    serve.add_argument("--wal-dir", metavar="DIR", default=None,
                       help="write-ahead log directory for a "
                            "crash-recoverable run registry")
    serve.add_argument("--recover", action="store_true",
                       help="rebuild the registry from --wal-dir before "
                            "serving (pushes the logged rows to the exact "
                            "ingested epoch)")
    serve.add_argument("--chaos-ingest-ms", type=float, default=0.0,
                       help=argparse.SUPPRESS)  # CI chaos-job test hook
    serve.add_argument("--trace", action="store_true",
                       help="arm repro.obs span recording (spans per "
                            "request, per ingest, per WAL append)")
    serve.add_argument("--trace-export", metavar="PATH", default=None,
                       help="write buffered spans as JSONL on shutdown")
    serve.add_argument("--robustness-file", metavar="PATH", default=None,
                       help="scenario-matrix verdict file served by GET "
                            "/robustness (default BENCH_scenarios.json), "
                            "resolved against the start-up directory")
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster", help="administer a running repro serve --cluster router"
    )
    cluster_sub = cluster.add_subparsers(dest="action", required=True)
    resize = cluster_sub.add_parser(
        "resize",
        help="online rebalance to N shards (moves only the runs the "
             "consistent-hash ring reassigns; serving continues)",
    )
    resize.add_argument("shards", type=int, metavar="N")
    status = cluster_sub.add_parser(
        "status", help="print the router's /cluster topology JSON"
    )
    for sub_parser in (resize, status):
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--router-port", type=int, default=8733)
        sub_parser.add_argument("--timeout-s", type=float, default=120.0)
        sub_parser.set_defaults(func=_cmd_cluster)

    slo = sub.add_parser(
        "slo", help="judge a running server's SLOs from its /statusz"
    )
    slo_sub = slo.add_subparsers(dest="action", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help="exit 0 when every objective is healthy, 1 when a "
             "burn-rate alert is firing, 2 when the server is unreachable",
    )
    slo_check.add_argument("--host", default="127.0.0.1")
    slo_check.add_argument("--port", type=int, default=8733)
    slo_check.add_argument("--timeout-s", type=float, default=30.0)
    slo_check.add_argument("--json", action="store_true",
                           help="print the raw /statusz payload instead "
                                "of the verdict table")
    slo_check.set_defaults(func=_cmd_slo)

    profile = sub.add_parser(
        "profile",
        help="replay a saved training log and print estimator phase timings",
    )
    profile.add_argument("log", help="training log (.npz) to profile")
    profile.add_argument("--kind", choices=("hfl", "vfl"), default="hfl")
    profile.add_argument("--dataset", default="mnist",
                         help="dataset the log was trained on (hfl only; "
                              "rebuilds the validation set and model)")
    profile.add_argument("--seed", type=int, default=0,
                         help="seed the log was trained with (hfl only)")
    profile.add_argument("--n-samples", type=int, default=None,
                         help="dataset size override used at training time")
    profile.set_defaults(func=_cmd_profile)

    def _add_log_context_flags(p) -> None:
        p.add_argument("log", help="training log (.npz) to evaluate")
        p.add_argument("--kind", choices=("hfl", "vfl"), default="hfl")
        p.add_argument("--dataset", default="mnist",
                       help="dataset the log was trained on (hfl only; "
                            "rebuilds the validation set and model)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed the log was trained with (hfl only)")
        p.add_argument("--n-samples", type=int, default=None,
                       help="dataset size override used at training time")

    estimate = sub.add_parser(
        "estimate",
        help="replay a saved log through any registered contribution backend",
    )
    _add_log_context_flags(estimate)
    estimate.add_argument("--estimator", choices=backend_names(),
                          default="digfl",
                          help="registered backend (see repro.estimators)")
    estimate.add_argument("--option", action="append", metavar="KEY=VALUE",
                          help="backend option override (repeatable); values "
                               "parse as JSON, e.g. --option seed=3")
    estimate.add_argument("--save-report", metavar="PATH")
    estimate.set_defaults(func=_cmd_estimate)

    compare = sub.add_parser(
        "compare",
        help="run several backends over one log and print the volatility "
             "report",
    )
    _add_log_context_flags(compare)
    compare.add_argument("--estimators", default="all", metavar="A,B,...",
                         help="comma-separated backend names (default: every "
                              "registered backend supporting --kind)")
    compare.set_defaults(func=_cmd_compare)

    scenario = sub.add_parser(
        "scenario",
        help="adversarial scenario suite: generate adverse federations and "
             "judge estimator robustness",
    )
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_run = scenario_sub.add_parser(
        "run", help="run one adverse scenario against one backend"
    )
    scenario_run.add_argument(
        "name",
        help="scenario name from the default grid (e.g. free_rider, "
             "dirichlet_a0.1, vfl_modality_dropout), or 'all'",
    )
    scenario_run.add_argument("--backend", choices=backend_names(),
                              default="digfl")
    scenario_run.add_argument("--json", action="store_true",
                              help="also print the full verdict JSON")
    scenario_run.set_defaults(func=_cmd_scenario_run)
    scenario_matrix = scenario_sub.add_parser(
        "matrix",
        help="run the scenario × backend robustness grid and print verdicts",
    )
    scenario_matrix.add_argument(
        "--scenarios", default="all", metavar="A,B,...",
        help="comma-separated scenario names (default: the full grid)",
    )
    scenario_matrix.add_argument(
        "--backends", default="all", metavar="A,B,...",
        help="comma-separated backend names (default: every registered "
             "backend capable of each scenario's log kind)",
    )
    scenario_matrix.add_argument(
        "--check", action="store_true",
        help="exit 1 on any rank-correctness or streaming-equality "
             "regression (the CI gate)",
    )
    scenario_matrix.add_argument("--save", metavar="PATH",
                                 help="write the verdict grid as JSON")
    scenario_matrix.set_defaults(func=_cmd_scenario_matrix)
    for sub_parser in (scenario_run, scenario_matrix):
        sub_parser.add_argument("--seed", type=int, default=0)
        sub_parser.add_argument(
            "--exact-max-parties", type=int, default=6,
            help="cap on the 2^n exact-Shapley reference (larger "
                 "federations skip the Spearman cell)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=5, suppress=True)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
