"""Smoke + shape tests for the experiment harness (quick scale).

Each run_* function is exercised on a minimal configuration; the full-size
runs live in ``benchmarks/`` and ``python -m repro.experiments``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    run_attack_detection,
    run_hfl_accuracy,
    run_hfl_baselines,
    run_learning_rate_ablation,
    run_model_size_scaling,
    run_participant_scaling,
    run_per_epoch,
    run_reweight,
    run_second_term,
    run_second_term_per_epoch,
    run_validation_size_ablation,
    run_vfl_accuracy,
    run_vfl_baselines,
    run_weighting_scheme_ablation,
)
from repro.experiments.common import ExperimentReport, Row, format_table
from repro.experiments.workloads import build_hfl_workload, build_vfl_workload


class TestCommon:
    def test_row_format(self):
        row = Row(experiment="e", labels={"d": "mnist"}, metrics={"pcc": 0.5})
        text = row.format()
        assert "[e]" in text and "d=mnist" in text and "pcc=0.5" in text

    def test_report_format(self):
        report = ExperimentReport(name="x", paper_reference="Fig. 0")
        report.add({"a": 1}, {"m": 2.0})
        report.notes.append("hello")
        text = report.format()
        assert "== x (Fig. 0) ==" in text
        assert "note: hello" in text

    def test_format_table(self):
        report = ExperimentReport(name="x", paper_reference="")
        report.add({"d": "mnist"}, {"pcc": 0.123456})
        table = format_table(report.rows, ["d", "pcc"])
        assert "mnist" in table
        assert "0.1235" in table


class TestWorkloads:
    def test_hfl_workload_contents(self):
        w = build_hfl_workload("mnist", n_parties=3, epochs=2, seed=0)
        assert w.result.log.n_epochs == 2
        assert len(w.qualities) == 3

    def test_hfl_workload_deterministic(self):
        a = build_hfl_workload("mnist", n_parties=3, epochs=2, seed=1)
        b = build_hfl_workload("mnist", n_parties=3, epochs=2, seed=1)
        np.testing.assert_array_equal(
            a.result.model.get_flat(), b.result.model.get_flat()
        )

    def test_vfl_workload_party_count_default(self):
        w = build_vfl_workload("iris", epochs=3, seed=0)
        assert w.split.n_parties == 4  # Table III

    def test_vfl_workload_override(self):
        w = build_vfl_workload("boston", n_parties=3, epochs=3, seed=0)
        assert w.split.n_parties == 3


class TestSecondTerm:
    def test_quick_run(self):
        report = run_second_term(
            hfl_datasets=("mnist",), vfl_datasets=("iris",), hfl_epochs=3,
            vfl_epochs=5,
        )
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.metrics["rel_error"] >= 0

    def test_per_epoch_rows(self):
        report = run_second_term_per_epoch(hfl_dataset="mnist", vfl_dataset="iris")
        settings = {row.labels["setting"] for row in report.rows}
        assert settings == {"hfl", "vfl"}


class TestAccuracyExperiments:
    def test_hfl_accuracy_row_shape(self):
        report = run_hfl_accuracy(datasets=("mnist",), ms=(0,), epochs=3)
        row = report.rows[0]
        assert set(row.metrics) >= {"pcc", "t_digfl_s", "t_actual_s"}
        assert -1.0 <= row.metrics["pcc"] <= 1.0

    def test_vfl_accuracy_row_shape(self):
        report = run_vfl_accuracy(
            datasets=("iris",), epochs=5, max_parties=4, max_rows=150
        )
        row = report.rows[0]
        assert row.metrics["retrainings"] == 16
        assert row.metrics["pcc"] > 0.8

    def test_per_epoch_rows(self):
        report = run_per_epoch(datasets=("mnist",), epochs=3)
        epochs = [r.labels["epoch"] for r in report.rows]
        assert "all" in epochs
        assert 1 in epochs


class TestBaselineExperiments:
    def test_hfl_baselines_methods(self):
        report = run_hfl_baselines(datasets=("mnist",), epochs=3)
        methods = {row.labels["method"] for row in report.rows}
        assert methods == {"DIG-FL", "TMC-shapley", "GT-shapley", "MR", "IM"}

    def test_vfl_baselines_methods(self):
        report = run_vfl_baselines(
            datasets=("iris",), epochs=5, max_parties=4, max_rows=150
        )
        methods = {row.labels["method"] for row in report.rows}
        assert methods == {"DIG-FL", "TMC-shapley", "GT-shapley"}


class TestReweightExperiment:
    def test_rows_and_curves(self):
        report = run_reweight(
            settings=(("motor", "mislabeled"),), ms=(0, 2), epochs=4
        )
        summary_rows = [r for r in report.rows if "epoch" not in r.labels]
        curve_rows = [r for r in report.rows if "epoch" in r.labels]
        assert len(summary_rows) == 2
        assert len(curve_rows) == 4  # epochs of the largest m

    def test_cells_are_the_same_in_every_process(self):
        """Fig. 7 seeds must not depend on Python's per-process str hash."""
        script = (
            "import json\n"
            "from repro.experiments.reweight import cell_seed, run_reweight\n"
            "seeds = [cell_seed(0, d, k, m) for d, k in "
            "(('cifar10', 'noniid'), ('motor', 'mislabeled')) for m in (0, 2, 4)]\n"
            "report = run_reweight(settings=(('motor', 'mislabeled'),), "
            "ms=(2,), epochs=2)\n"
            "rows = [[r.labels, r.metrics] for r in report.rows]\n"
            "print(json.dumps({'seeds': seeds, 'rows': rows}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout.splitlines()[-1]))
        assert outputs[0] == outputs[1]
        assert len(set(outputs[0]["seeds"])) == 6


class TestAblations:
    def test_validation_size(self):
        report = run_validation_size_ablation(fractions=(0.1,), epochs=3)
        assert report.rows[0].labels["val_fraction"] == 0.1

    def test_learning_rate(self):
        report = run_learning_rate_ablation(lrs=(0.3,), epochs=3)
        assert report.rows[0].labels["lr"] == 0.3

    def test_weighting_scheme(self):
        report = run_weighting_scheme_ablation(m=2, epochs=4)
        metrics = report.rows[0].metrics
        assert set(metrics) == {"acc_fedsgd", "acc_rectified", "acc_softmax"}


class TestScalingAndRobustness:
    def test_participant_scaling(self):
        report = run_participant_scaling(party_counts=(3,), epochs=2)
        assert report.rows[0].metrics["retrainings"] == 8

    def test_model_size_scaling(self):
        report = run_model_size_scaling(hidden_sizes=(8,), epochs=2)
        assert report.rows[0].labels["hidden"] == 8

    def test_attack_detection_rows(self):
        report = run_attack_detection(attacks=("sign_flip",), epochs=5)
        row = report.rows[0]
        assert row.metrics["recall"] == 1.0
        assert row.metrics["mean_attacker_phi"] < row.metrics["mean_honest_phi"]

    def test_attack_detection_validation(self):
        with pytest.raises(ValueError):
            run_attack_detection(n_attackers=6, n_parties=6)
        with pytest.raises(KeyError):
            run_attack_detection(attacks=("nuke",))


class TestDegradationSweeps:
    def test_compression_sweep_shapes(self):
        from repro.experiments import run_compression_sweep

        report = run_compression_sweep(
            topk_fractions=(0.1,), quantize_bits=(8,), epochs=4
        )
        labels = [row.labels["compression"] for row in report.rows]
        assert labels == ["none", "topk-0.1", "quant-8bit"]
        by_label = {row.labels["compression"]: row.metrics for row in report.rows}
        # 8-bit quantisation is essentially lossless for the estimator.
        assert by_label["quant-8bit"]["pcc"] == pytest.approx(
            by_label["none"]["pcc"], abs=0.1
        )

    def test_heterogeneity_sweep_spread_grows_with_skew(self):
        from repro.experiments import run_heterogeneity_sweep

        report = run_heterogeneity_sweep(alphas=(100.0, 0.1), epochs=6)
        by_alpha = {row.labels["alpha"]: row.metrics for row in report.rows}
        assert (
            by_alpha[0.1]["contribution_spread"]
            > by_alpha[100.0]["contribution_spread"]
        )


class TestBudgetCurves:
    def test_rows_and_monotone_trend(self):
        from repro.experiments import run_estimator_budget_curves

        report = run_estimator_budget_curves(
            budgets=(16, 128), n_repeats=2, epochs=4
        )
        methods = {row.labels["method"] for row in report.rows}
        assert methods == {"DIG-FL", "TMC", "GT", "stratified", "kernel"}
        tmc = {
            row.labels["budget"]: row.metrics["pcc"]
            for row in report.rows
            if row.labels["method"] == "TMC"
        }
        # More budget should help TMC (allow small sampling noise).
        assert tmc[128] > tmc[16] - 0.1

    def test_digfl_has_zero_budget_row(self):
        from repro.experiments import run_estimator_budget_curves

        report = run_estimator_budget_curves(budgets=(16,), n_repeats=1, epochs=3)
        digfl = next(r for r in report.rows if r.labels["method"] == "DIG-FL")
        assert digfl.labels["budget"] == 0
        assert "distinct_evals" not in digfl.metrics

    def test_distinct_evals_capped_at_2n(self):
        from repro.experiments import run_estimator_budget_curves

        report = run_estimator_budget_curves(
            budgets=(4096,), n_repeats=1, epochs=3, n_parties=4
        )
        for row in report.rows:
            if "distinct_evals" in row.metrics:
                assert row.metrics["distinct_evals"] <= 2**4


class TestFedAvgSweep:
    def test_pcc_usable_across_local_steps(self):
        from repro.experiments import run_fedavg_sweep

        report = run_fedavg_sweep(local_steps=(1, 4), epochs=5)
        pccs = {row.labels["local_steps"]: row.metrics["pcc"] for row in report.rows}
        assert pccs[1] > 0.6
        assert pccs[4] > 0.6


class TestEncryptedOverhead:
    def test_rows_and_equivalence(self):
        from repro.experiments import run_encrypted_overhead

        report = run_encrypted_overhead(key_bits=(128,), epochs=2, n_rows=40)
        modes = {row.labels["mode"] for row in report.rows}
        assert modes == {"plaintext", "paillier"}
        paillier = next(r for r in report.rows if r.labels["mode"] == "paillier")
        plaintext = next(r for r in report.rows if r.labels["mode"] == "plaintext")
        # Encryption is pure overhead: slower, chattier, same results.
        assert paillier.metrics["t_s"] > plaintext.metrics["t_s"]
        assert paillier.metrics["comm_mb"] > plaintext.metrics["comm_mb"]
        assert paillier.metrics["pcc_vs_plaintext"] > 0.999
        assert paillier.metrics["theta_err"] < 1e-6
