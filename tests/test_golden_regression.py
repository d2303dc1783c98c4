"""Golden-number regression tests.

Fixed-seed end-to-end pipelines whose key metrics are pinned (with small
tolerances).  A legitimate algorithm change may move these numbers — when
it does, verify the shape criteria in EXPERIMENTS.md still hold and update
the goldens deliberately; an *unintentional* drift is a regression in the
estimator, the simulator or the data generators.
"""

import numpy as np
import pytest

from repro.core import (
    DIGFLReweighter,
    estimate_hfl_resource_saving,
    estimate_vfl_first_order,
)
from repro.experiments.workloads import build_hfl_workload, build_vfl_workload
from repro.hfl.attacks import AdversarialHFLTrainer, scale
from repro.metrics import pearson_correlation
from repro.nn import LRSchedule
from repro.robust.quarantine import QuarantineLedger
from repro.robust.screening import ScreenConfig, UpdateScreener
from repro.shapley import (
    HFLRetrainUtility,
    VFLRetrainUtility,
    exact_shapley,
    per_round_exact_shapley,
)


class TestHFLGolden:
    @pytest.fixture(scope="class")
    def pipeline(self):
        workload = build_hfl_workload(
            "mnist", n_parties=5, n_mislabeled=1, n_noniid=1, epochs=10, seed=0
        )
        digfl = estimate_hfl_resource_saving(
            workload.result.log,
            workload.federation.validation,
            workload.model_factory,
        )
        utility = HFLRetrainUtility(
            workload.trainer,
            workload.federation.locals,
            workload.federation.validation,
            init_theta=workload.result.log.initial_theta,
        )
        exact = exact_shapley(utility)
        return workload, digfl, exact

    def test_training_accuracy(self, pipeline):
        workload, _, _ = pipeline
        acc = workload.result.log.records[-1].val_accuracy
        assert acc == pytest.approx(0.7417, abs=0.02)

    def test_digfl_totals(self, pipeline):
        _, digfl, _ = pipeline
        expected = [0.4027, 0.3956, 0.1348, 0.3874, 0.3733]
        np.testing.assert_allclose(digfl.totals, expected, atol=0.02)

    def test_exact_totals(self, pipeline):
        _, _, exact = pipeline
        expected = [0.4577, 0.4547, 0.1015, 0.4232, 0.1779]
        np.testing.assert_allclose(exact.totals, expected, atol=0.02)

    def test_pcc(self, pipeline):
        _, digfl, exact = pipeline
        pcc = pearson_correlation(digfl.totals, exact.totals)
        assert pcc == pytest.approx(0.785, abs=0.05)

    def test_qualities_fixed(self, pipeline):
        workload, _, _ = pipeline
        assert workload.qualities == ["clean", "clean", "mislabeled", "clean", "noniid"]


class TestVFLGolden:
    @pytest.fixture(scope="class")
    def pipeline(self):
        workload = build_vfl_workload("iris", epochs=30, seed=0)
        digfl = estimate_vfl_first_order(workload.result.log)
        utility = VFLRetrainUtility(
            workload.trainer, workload.split.train, workload.split.validation
        )
        exact = exact_shapley(utility)
        return workload, digfl, exact

    def test_pcc(self, pipeline):
        _, digfl, exact = pipeline
        pcc = pearson_correlation(digfl.totals, exact.totals)
        assert pcc > 0.95  # Table III iris row: 0.981

    def test_party_count_matches_table3(self, pipeline):
        workload, _, _ = pipeline
        assert workload.split.n_parties == 4

    def test_best_party_agreement(self, pipeline):
        _, digfl, exact = pipeline
        assert int(np.argmax(digfl.totals)) == int(np.argmax(exact.totals))


class TestMRGolden:
    """MR's per-round exact Shapley matrix on the HFL golden log."""

    @pytest.fixture(scope="class")
    def per_epoch(self):
        workload = build_hfl_workload(
            "mnist", n_parties=5, n_mislabeled=1, n_noniid=1, epochs=10, seed=0
        )
        return per_round_exact_shapley(
            workload.result.log,
            workload.federation.validation,
            workload.model_factory,
        )

    def test_per_epoch_matrix(self, per_epoch):
        expected = [
            [0.0861, 0.0823, -0.0051, 0.0850, 0.1104],
            [0.0729, 0.0695, -0.0090, 0.0700, 0.0753],
            [0.0625, 0.0600, -0.0122, 0.0585, 0.0493],
            [0.0543, 0.0526, -0.0148, 0.0498, 0.0324],
            [0.0477, 0.0466, -0.0168, 0.0433, 0.0219],
            [0.0422, 0.0417, -0.0184, 0.0381, 0.0154],
            [0.0377, 0.0374, -0.0197, 0.0339, 0.0113],
            [0.0338, 0.0337, -0.0207, 0.0304, 0.0086],
            [0.0305, 0.0305, -0.0215, 0.0274, 0.0068],
            [0.0276, 0.0277, -0.0221, 0.0248, 0.0057],
        ]
        np.testing.assert_allclose(per_epoch, expected, atol=0.002)

    def test_mislabeled_party_negative_every_round(self, per_epoch):
        assert (per_epoch[:, 2] < 0).all()


class TestScreenedReweightedGolden:
    """A synchronous HFL log with screening and the DIG-FL reweighter on.

    Party 4 ships 200× boosted updates and is quarantined every round; the
    reweighter drives the mislabeled party 2's weight to zero.
    """

    @pytest.fixture(scope="class")
    def run(self):
        workload = build_hfl_workload(
            "mnist", n_parties=5, n_mislabeled=1, n_noniid=1, epochs=10, seed=0
        )
        trainer = AdversarialHFLTrainer(
            workload.model_factory,
            epochs=10,
            lr_schedule=LRSchedule(0.5),
            attacks={4: scale(200.0)},
        )
        ledger = QuarantineLedger()
        result = trainer.train(
            workload.federation.locals,
            workload.federation.validation,
            track_validation=True,
            screener=UpdateScreener(ScreenConfig(norm_factor=5.0), ledger),
            reweighter=DIGFLReweighter(workload.federation.validation),
            init_theta=workload.result.log.initial_theta,
        )
        return result.log, ledger

    def test_attacker_quarantined_every_round(self, run):
        log, ledger = run
        assert [(i.round, i.party) for i in ledger] == [(t, 4) for t in range(1, 11)]
        matrix = log.participation_matrix()
        assert matrix[:, :4].all() and not matrix[:, 4].any()

    def test_weights(self, run):
        log, _ = run
        expected = [
            [0.2860, 0.2797, 0.1508, 0.2835, 0.0],
            [0.2909, 0.2839, 0.1399, 0.2853, 0.0],
            [0.2964, 0.2894, 0.1271, 0.2870, 0.0],
            [0.3024, 0.2959, 0.1125, 0.2891, 0.0],
            [0.3083, 0.3034, 0.0963, 0.2920, 0.0],
            [0.3142, 0.3119, 0.0780, 0.2959, 0.0],
            [0.3204, 0.3216, 0.0571, 0.3009, 0.0],
            [0.3275, 0.3327, 0.0328, 0.3070, 0.0],
            [0.3359, 0.3454, 0.0043, 0.3144, 0.0],
            [0.3361, 0.3499, 0.0000, 0.3141, 0.0],
        ]
        weights = np.array([record.weights for record in log.records])
        np.testing.assert_allclose(weights, expected, atol=0.005)

    def test_validation_accuracy(self, run):
        log, _ = run
        expected = [0.2, 0.3333, 0.4417, 0.525, 0.6167, 0.6667, 0.7167, 0.75, 0.775, 0.8083]
        accuracy = [record.val_accuracy for record in log.records]
        np.testing.assert_allclose(accuracy, expected, atol=0.02)
