"""Seeded inputs: training logs, request schedules and reference answers.

Everything the servers receive is generated here from the workload
seed: VFL logs for the warm read mix, HFL logs for the ingest producer
and the cluster's registrations, the order of reads and posts.  The reference answers are computed in the
benchmark's own process with the batch estimators, so a served answer is
checked against an independent computation, not against itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.backends import get_backend
from repro.core.digfl_vfl import estimate_vfl_first_order
from repro.core.reweight import rectified_weights
from repro.experiments.workloads import build_hfl_workload, build_vfl_workload
from repro.io import (
    load_training_log,
    save_training_log,
    save_vfl_training_log,
    training_log_checksum,
    vfl_training_log_checksum,
)
from repro.serve.http import hfl_validation_and_model
from repro.utils.rng import derive_seed

READ_ENDPOINTS = ("leaderboard", "contributions", "weights")
HFL_DATASET = "mnist"
HFL_PARTIES = 6
HFL_EPOCHS = 10
HFL_SAMPLES = 1200
# The producer's backend for each post, in turn.  DIG-FL, the paper's
# method, is two posts in three, so the median post is a DIG-FL post; the
# Shapley backends, several times slower, set the tail and most of the
# producer's wall time.
POST_CYCLE = ("digfl", "gtg_shapley", "digfl", "digfl", "dpvs", "digfl")


def _small_seed(seed: int, *salt: int) -> int:
    return derive_seed(seed, *salt) % 1_000_000


@dataclass
class VflRun:
    """One seeded VFL log and the batch answers every read must match."""

    path: Path
    checksum: str
    participant_ids: list
    totals: list
    weights: list

    def leaderboard(self) -> list[tuple]:
        order = np.argsort(np.asarray(self.totals))[::-1]
        return [(self.participant_ids[i], self.totals[i]) for i in order]


@dataclass(frozen=True)
class Post:
    """One HFL ``POST /runs``: a producer post or a registration."""

    run_id: str
    log: int
    estimator: str
    options: tuple = ()
    use_logged_weights: bool = False

    @property
    def pair(self) -> tuple:
        """What makes two posts compute the same answer."""
        return (self.log, self.estimator, self.options, self.use_logged_weights)


@dataclass
class Inputs:
    seed: int
    vfl: list[VflRun] = field(default_factory=list)
    hfl_paths: list[Path] = field(default_factory=list)
    hfl_seeds: list[int] = field(default_factory=list)
    hfl_checksums: list[str] = field(default_factory=list)
    reads: list[tuple[int, str]] = field(default_factory=list)  # (seed run, endpoint)
    posts: list[Post] = field(default_factory=list)

    def checksum(self) -> str:
        """SHA-256 over every generated input, independent of where it lives."""
        payload = {
            "vfl": [run.checksum for run in self.vfl],
            "hfl": self.hfl_checksums,
            "hfl_seeds": self.hfl_seeds,
            "reads": self.reads,
            "posts": [
                [p.run_id, p.log, p.estimator, list(p.options), p.use_logged_weights]
                for p in self.posts
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def post_spec(self, post: Post) -> dict:
        return {
            "kind": "hfl",
            "run_id": post.run_id,
            "log_path": str(self.hfl_paths[post.log]),
            "dataset": HFL_DATASET,
            "seed": self.hfl_seeds[post.log],
            "n_samples": HFL_SAMPLES,
            "estimator": post.estimator,
            "estimator_options": dict(post.options),
            "use_logged_weights": post.use_logged_weights,
        }

    def hfl_reference(self, pair: tuple) -> list:
        """Batch totals for one (log, backend, options) pair."""
        log_index, estimator, options, use_logged_weights = pair
        log = load_training_log(self.hfl_paths[log_index])
        validation, model_factory = hfl_validation_and_model(
            HFL_DATASET, self.hfl_seeds[log_index], HFL_SAMPLES
        )
        report = get_backend(estimator, **dict(options)).estimate_hfl(
            log,
            validation,
            model_factory,
            use_logged_weights=use_logged_weights,
        )
        return [float(v) for v in report.totals]


def make_vfl(inputs: Inputs, workdir: Path, n_logs: int) -> None:
    for k in range(n_logs):
        workload = build_vfl_workload(
            "boston", n_parties=5, epochs=25, seed=_small_seed(inputs.seed, 1, k)
        )
        log = workload.result.log
        path = workdir / f"vfl-{k}.npz"
        save_vfl_training_log(log, path)
        report = estimate_vfl_first_order(log)
        inputs.vfl.append(
            VflRun(
                path=path,
                checksum=vfl_training_log_checksum(log),
                participant_ids=list(report.participant_ids),
                totals=[float(v) for v in report.totals],
                weights=[float(w) for w in rectified_weights(report.per_epoch[-1])],
            )
        )


def make_reads(inputs: Inputs, n_seed_runs: int, length: int = 4096) -> None:
    """A seeded read mix over the seeded runs and the three read endpoints."""
    rng = np.random.default_rng(_small_seed(inputs.seed, 2))
    runs = rng.integers(n_seed_runs, size=length)
    endpoints = rng.integers(len(READ_ENDPOINTS), size=length)
    inputs.reads = [
        (int(r), READ_ENDPOINTS[int(e)]) for r, e in zip(runs, endpoints)
    ]


def make_hfl(inputs: Inputs, workdir: Path, n_logs: int) -> None:
    for k in range(n_logs):
        seed = _small_seed(inputs.seed, 3, k)
        workload = build_hfl_workload(
            HFL_DATASET,
            n_parties=HFL_PARTIES,
            n_mislabeled=1,
            epochs=HFL_EPOCHS,
            n_samples=HFL_SAMPLES,
            seed=seed,
        )
        path = workdir / f"hfl-{k}.npz"
        save_training_log(workload.result.log, path)
        inputs.hfl_paths.append(path)
        inputs.hfl_seeds.append(seed)
        inputs.hfl_checksums.append(training_log_checksum(workload.result.log))


def make_posts(inputs: Inputs, length: int) -> None:
    """The producer's post sequence: ``POST_CYCLE``, every other one reused.

    For each backend, posts alternate between a *fresh* pair — one the
    server has not computed — and a *reused* pair drawn from those
    already posted, so the result cache and the validation-gradient memo
    see real reuse.  Fresh ``gtg_shapley``/``dpvs`` pairs vary the
    sampling seed; fresh ``digfl`` pairs vary the log and the weighting,
    and once those run out every ``digfl`` post is a reuse.
    """
    rng = np.random.default_rng(_small_seed(inputs.seed, 4))
    n_logs = len(inputs.hfl_paths)
    digfl_fresh = [
        (log, weighted) for weighted in (False, True) for log in range(n_logs)
    ]
    sampling_seed = {"gtg_shapley": 0, "dpvs": 0}
    seen: dict[str, list[Post]] = {name: [] for name in POST_CYCLE}
    turns = dict.fromkeys(POST_CYCLE, 0)
    for k in range(length):
        estimator = POST_CYCLE[k % len(POST_CYCLE)]
        run_id = f"ingest-{k}"
        reuse = turns[estimator] % 2 == 1 or (
            estimator == "digfl" and not digfl_fresh
        )
        turns[estimator] += 1
        if reuse and seen[estimator]:
            base = seen[estimator][int(rng.integers(len(seen[estimator])))]
            post = Post(
                run_id, base.log, estimator, base.options, base.use_logged_weights
            )
        elif estimator == "digfl":
            log, weighted = digfl_fresh.pop(0)
            post = Post(run_id, log, estimator, (), weighted)
        else:
            options = (("seed", sampling_seed[estimator]),)
            sampling_seed[estimator] += 1
            post = Post(run_id, int(rng.integers(n_logs)), estimator, options)
        if not reuse:
            seen[estimator].append(post)
        inputs.posts.append(post)
