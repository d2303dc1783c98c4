"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_report, load_training_log


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_audit_hfl_defaults(self):
        args = build_parser().parse_args(["audit-hfl"])
        assert args.dataset == "mnist"
        assert args.parties == 5
        assert not args.exact

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8733
        assert args.cache_mb == 64
        assert not hasattr(args, "query_workers")
        assert not hasattr(args, "query_deadline_ms")

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-mb", "8", "--max-queue", "2"]
        )
        assert args.port == 0
        assert args.cache_mb == 8
        assert args.max_queue == 2

    def test_serve_trace_flags(self):
        args = build_parser().parse_args(["serve"])
        assert not args.trace
        assert args.trace_export is None
        args = build_parser().parse_args(
            ["serve", "--trace", "--trace-export", "spans.jsonl"]
        )
        assert args.trace
        assert args.trace_export == "spans.jsonl"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "run.npz"])
        assert args.command == "profile"
        assert args.log == "run.npz"
        assert args.kind == "hfl"
        assert args.dataset == "mnist"

    def test_scenario_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "free_rider"])
        assert args.command == "scenario"
        assert args.name == "free_rider"
        assert args.backend == "digfl"
        assert args.seed == 0
        assert args.exact_max_parties == 6
        assert not args.json

    def test_scenario_matrix_defaults(self):
        args = build_parser().parse_args(["scenario", "matrix"])
        assert args.scenarios == "all"
        assert args.backends == "all"
        assert not args.check
        assert args.save is None

    def test_scenario_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "free_rider", "--backend", "ouija"]
            )


class TestDatasets:
    def test_lists_all_14(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("D_M", "D_C", "D_O", "D_R", "D_B", "D_A"):
            assert key in out
        assert out.count("\n") == 15  # header + 14 rows


class TestAuditHFL:
    def test_basic_run(self, capsys):
        code = main(
            ["audit-hfl", "--dataset", "mnist", "--parties", "3",
             "--mislabeled", "1", "--noniid", "0", "--epochs", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "participant" in out
        assert "mislabeled" in out

    def test_unknown_dataset(self, capsys):
        code = main(["audit-hfl", "--dataset", "boston"])
        assert code == 2
        assert "not an HFL dataset" in capsys.readouterr().err

    def test_exact_flag(self, capsys):
        code = main(
            ["audit-hfl", "--parties", "3", "--epochs", "2", "--noniid", "0",
             "--mislabeled", "0", "--exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PCC(DIG-FL, exact)" in out
        assert "8 retrainings" in out

    def test_save_outputs(self, tmp_path, capsys):
        log_path = tmp_path / "run.npz"
        report_path = tmp_path / "run.json"
        code = main(
            ["audit-hfl", "--parties", "3", "--epochs", "2", "--noniid", "0",
             "--save-log", str(log_path), "--save-report", str(report_path)]
        )
        assert code == 0
        log = load_training_log(log_path)
        assert log.n_epochs == 2
        report = load_report(report_path)
        assert report.method == "digfl-resource-saving"
        payload = json.loads(report_path.read_text())
        assert len(payload["totals"]) == 3


class TestAuditVFL:
    def test_basic_run(self, capsys):
        code = main(["audit-vfl", "--dataset", "iris", "--epochs", "5"])
        assert code == 0
        assert "participant" in capsys.readouterr().out

    def test_unknown_dataset(self, capsys):
        code = main(["audit-vfl", "--dataset", "mnist"])
        assert code == 2
        assert "not a VFL dataset" in capsys.readouterr().err

    def test_exact_and_party_override(self, capsys):
        code = main(
            ["audit-vfl", "--dataset", "diabetes", "--parties", "4",
             "--epochs", "5", "--exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "16 retrainings" in out
        assert "PCC" in out

    def test_save_vfl_log(self, tmp_path, capsys):
        from repro.io import load_vfl_training_log

        path = tmp_path / "vfl.npz"
        code = main(
            ["audit-vfl", "--dataset", "iris", "--epochs", "4",
             "--save-log", str(path)]
        )
        assert code == 0
        log = load_vfl_training_log(path)
        assert log.n_epochs == 4


class TestProfile:
    def test_profiles_a_saved_hfl_log(self, tmp_path, capsys):
        log_path = tmp_path / "run.npz"
        assert main(
            ["audit-hfl", "--parties", "3", "--epochs", "2", "--noniid", "0",
             "--save-log", str(log_path)]
        ) == 0
        capsys.readouterr()
        assert main(["profile", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "2 epochs" in out
        assert "phase" in out  # the table header
        assert "estimator.valgrad" in out
        assert "cache.digest" in out

    def test_profiles_a_saved_vfl_log(self, tmp_path, capsys):
        log_path = tmp_path / "vfl.npz"
        assert main(
            ["audit-vfl", "--dataset", "iris", "--epochs", "3",
             "--save-log", str(log_path)]
        ) == 0
        capsys.readouterr()
        assert main(["profile", str(log_path), "--kind", "vfl"]) == 0
        out = capsys.readouterr().out
        assert "estimator.dot_products" in out

    def test_missing_log_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(["profile", str(tmp_path / "ghost.npz")])


class TestScenario:
    def test_run_one_scenario(self, capsys):
        assert main(
            ["scenario", "run", "label_noise_symmetric", "--backend", "digfl"]
        ) == 0
        out = capsys.readouterr().out
        assert "label_noise_symmetric" in out
        assert "digfl" in out
        assert "PASS" in out

    def test_run_json_output(self, capsys):
        assert main(
            ["scenario", "run", "free_rider", "--backend", "digfl", "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert payload["cells"][0]["scenario"] == "free_rider"

    def test_matrix_reduced_with_save_and_check(self, tmp_path, capsys):
        out_path = tmp_path / "matrix.json"
        assert main(
            ["scenario", "matrix",
             "--scenarios", "label_noise_symmetric,free_rider",
             "--backends", "digfl",
             "--check", "--save", str(out_path)]
        ) == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert len(payload["cells"]) == 2

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "matrix", "--scenarios", "meteor_strike"])

    def test_unknown_matrix_backend_exits(self):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["scenario", "matrix", "--backends", "ouija"])

    def test_incapable_backend_exits(self):
        with pytest.raises(SystemExit, match="supports none"):
            main(
                ["scenario", "run", "vfl_modality_dropout",
                 "--backend", "gtg_shapley"]
            )
