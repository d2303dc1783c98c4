"""Examples stay runnable: import each, and execute the fast ones.

The slow examples (the 2^10-retraining audit, the Paillier credit-scoring
demo) are exercised only down to module level here — their full runs are
part of the documented workflow, not the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name.removesuffix('.py')}", EXAMPLES_DIR / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesInventory:
    def test_at_least_five_examples(self):
        assert len(ALL_EXAMPLES) >= 5
        assert "quickstart.py" in ALL_EXAMPLES

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), f"{name} has no main()"

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_has_docstring(self, name):
        module = load_example(name)
        assert module.__doc__ and len(module.__doc__) > 50


class TestFastExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "ranking (best first)" in out
        assert "mislabeled" in out

    def test_reweight_robust_training(self, capsys):
        load_example("reweight_robust_training.py").main()
        out = capsys.readouterr().out
        assert "FedSGD" in out and "DIG-FL" in out

    def test_backend_faceoff(self, capsys):
        load_example("backend_faceoff.py").main()
        out = capsys.readouterr().out
        assert "leaderboards (best participant first)" in out
        assert "cross-backend agreement" in out
        assert "gtg_shapley budget" in out

    def test_adversarial_detection(self, capsys):
        load_example("adversarial_detection.py").main()
        out = capsys.readouterr().out
        assert "flagged by the robust outlier rule: [1, 4]" in out

    def test_robust_audit(self, capsys):
        load_example("robust_audit.py").main()
        out = capsys.readouterr().out
        assert "CRASH: power lost after round 4" in out
        assert "bit-for-bit equals an uninterrupted run: True" in out
        assert "rule=norm" in out
        assert "attacker ranked last: True" in out

    def test_live_leaderboard(self, capsys):
        load_example("live_leaderboard.py").main()
        out = capsys.readouterr().out
        assert "mislabeled party ranked last: True" in out
        assert "live totals bit-for-bit equal batch audit: True" in out

    def test_traced_run(self, capsys):
        load_example("traced_run.py").main()
        out = capsys.readouterr().out
        assert "slowest task" in out
        assert "lowest total contribution: party 4 (mislabeled party is 4)" in out
        assert "statuses all ok: True" in out

    def test_resilient_leaderboard(self, capsys):
        load_example("resilient_leaderboard.py").main()
        out = capsys.readouterr().out
        assert "poisoned epoch 5 refused: NonFiniteRow" in out
        assert "leaderboard still serves every clean epoch: epochs=4, unchanged=True" in out
        assert "healthz status: ok" in out
        assert "healed: epochs=6, totals bit-for-bit equal batch audit: True" in out
        assert "recovered totals bit-for-bit equal pre-crash: True" in out
