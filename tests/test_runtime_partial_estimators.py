"""DIG-FL estimators on partial-participation training logs.

The estimators' contract under runtime faults: a party absent from round
``t`` shipped nothing, so its per-epoch contribution for that round is
exactly zero, and the uniform divisor becomes the number of updates the
server actually aggregated.  These tests pin that arithmetic against
hand-written loops on hand-built logs (no training, no runtime), then
cover the interactive/second-order variants and the ``.npz`` round-trip
of participation masks.
"""

import json

import numpy as np
import pytest

from repro.core import (
    estimate_hfl_interactive,
    estimate_hfl_resource_saving,
    estimate_vfl_first_order,
    estimate_vfl_second_order,
)
from repro.data import build_hfl_federation, mnist_like
from repro.experiments.workloads import build_vfl_workload
from repro.hfl import HFLTrainer
from repro.hfl.attacks import AdversarialHFLTrainer, scale
from repro.hfl.log import EpochRecord, TrainingLog
from repro.hfl.trainer import flat_gradient
from repro.io import (
    load_training_log,
    load_vfl_training_log,
    save_training_log,
    save_vfl_training_log,
)
from repro.nn import LRSchedule, make_hfl_model
from repro.robust.quarantine import QuarantineLedger
from repro.robust.screening import ScreenConfig, UpdateScreener
from repro.runtime import FaultPlan, FederatedRuntime, RuntimeConfig
from repro.shapley.exact import exact_shapley_values
from repro.shapley.reconstruction import per_round_exact_shapley
from repro.shapley.utility import CallableUtility
from repro.vfl.log import VFLEpochRecord, VFLTrainingLog

K = 3  # participants in the hand-built HFL logs


def _factory():
    return make_hfl_model("mnist", seed=0)


# Round 1: everyone; round 2: party 1 out; round 3: only party 2; round 4:
# nobody (the deadline discarded the whole round).
MASKS = [
    None,
    np.array([True, False, True]),
    np.array([False, False, True]),
    np.array([False, False, False]),
]


def _build_hfl_log() -> TrainingLog:
    """A hand-built 4-round log with the participation patterns above."""
    rng = np.random.default_rng(42)
    p = _factory().num_parameters()
    log = TrainingLog(participant_ids=[0, 1, 2])
    for t, mask in enumerate(MASKS, start=1):
        updates = rng.normal(scale=0.01, size=(K, p))
        if mask is None:
            weights = np.full(K, 1.0 / K)
        else:
            updates[~mask] = 0.0  # absent parties shipped nothing
            arrived = int(mask.sum())
            weights = (
                mask / arrived if arrived else np.zeros(K, dtype=np.float64)
            )
        log.records.append(
            EpochRecord(
                epoch=t,
                lr=0.5,
                theta_before=rng.normal(scale=0.1, size=p),
                local_updates=updates,
                weights=weights,
                participation=mask,
            )
        )
    return log


@pytest.fixture(scope="module")
def hfl_log():
    return _build_hfl_log()


@pytest.fixture(scope="module")
def validation():
    return mnist_like(40, seed=1)


def _hand_computed_uniform(log, validation):
    """φ̂_{t,i} = ⟨∇loss^v(θ_{t-1}), δ_{t,i}⟩ / m_t, written out longhand."""
    model = _factory()
    expected = np.zeros((log.n_epochs, K))
    for t, record in enumerate(log.records):
        model.set_flat(record.theta_before)
        g = flat_gradient(model, validation.X, validation.y)
        mask = record.participation_mask()
        arrived = int(mask.sum())
        for i in range(K):
            if mask[i] and arrived:
                expected[t, i] = float(record.local_updates[i] @ g) / arrived
    return expected


class TestResourceSavingPartial:
    def test_matches_hand_computed_sums(self, hfl_log, validation):
        report = estimate_hfl_resource_saving(hfl_log, validation, _factory)
        expected = _hand_computed_uniform(hfl_log, validation)
        np.testing.assert_allclose(report.per_epoch, expected, rtol=1e-12)
        np.testing.assert_allclose(
            report.totals, expected.sum(axis=0), rtol=1e-12
        )

    def test_absent_rounds_contribute_exactly_zero(self, hfl_log, validation):
        report = estimate_hfl_resource_saving(hfl_log, validation, _factory)
        for t, mask in enumerate(MASKS):
            if mask is None:
                continue
            assert (report.per_epoch[t, ~mask] == 0.0).all()
        # Round 4 discarded everyone: the whole row is zero.
        assert (report.per_epoch[3] == 0.0).all()

    def test_divisor_is_arrived_count_not_n(self, hfl_log, validation):
        """Round 3 has one arrival: its value is the full dot product."""
        report = estimate_hfl_resource_saving(hfl_log, validation, _factory)
        record = hfl_log.records[2]
        model = _factory()
        model.set_flat(record.theta_before)
        g = flat_gradient(model, validation.X, validation.y)
        assert report.per_epoch[2, 2] == pytest.approx(
            float(record.local_updates[2] @ g), rel=1e-12
        )

    def test_logged_weights_path_zeroes_absent(self, hfl_log, validation):
        report = estimate_hfl_resource_saving(
            hfl_log, validation, _factory, use_logged_weights=True
        )
        model = _factory()
        for t, record in enumerate(hfl_log.records):
            model.set_flat(record.theta_before)
            g = flat_gradient(model, validation.X, validation.y)
            expected = record.weights * (record.local_updates @ g)
            np.testing.assert_allclose(report.per_epoch[t], expected, rtol=1e-12)
            mask = record.participation_mask()
            assert (report.per_epoch[t][~mask] == 0.0).all()

    def test_log_helpers_report_attendance(self, hfl_log):
        matrix = hfl_log.participation_matrix()
        expected = np.array(
            [[True] * 3, [True, False, True], [False, False, True], [False] * 3]
        )
        np.testing.assert_array_equal(matrix, expected)
        assert hfl_log.rounds_attended(0) == 2
        assert hfl_log.rounds_attended(1) == 1
        assert hfl_log.rounds_attended(2) == 3
        assert hfl_log.records[1].n_arrived == 2


class TestInteractivePartial:
    @pytest.fixture(scope="class")
    def faulty_run(self):
        federation = build_hfl_federation(
            mnist_like(240, seed=0), n_parties=4, n_mislabeled=1, seed=0
        )
        trainer = HFLTrainer(
            _factory, epochs=4, lr_schedule=LRSchedule(0.5)
        )
        runtime = FederatedRuntime(
            RuntimeConfig(faults=FaultPlan(dropout_rate=0.4, seed=1))
        )
        result = runtime.run_hfl(trainer, federation.locals, federation.validation)
        return federation, result

    def test_absent_rounds_are_zero(self, faulty_run):
        federation, result = faulty_run
        matrix = result.log.participation_matrix()
        assert not matrix.all(), "seed chosen so some party misses some round"
        report = estimate_hfl_interactive(
            result.log, federation.validation, _factory, federation.locals
        )
        np.testing.assert_array_equal(report.per_epoch[~matrix], 0.0)

    def test_first_round_agrees_with_resource_saving(self, faulty_run):
        """At t=1 there is no trajectory drift yet, so Algorithm 1 reduces
        to Algorithm 2 exactly — masked divisor included."""
        federation, result = faulty_run
        interactive = estimate_hfl_interactive(
            result.log, federation.validation, _factory, federation.locals
        )
        first_order = estimate_hfl_resource_saving(
            result.log, federation.validation, _factory
        )
        np.testing.assert_allclose(
            interactive.per_epoch[0], first_order.per_epoch[0], rtol=1e-10
        )


def _present_only_shapley(log, validation):
    """Each round's exact Shapley values on the game of its present parties.

    Written against :func:`repro.shapley.exact.exact_shapley_values` and a
    longhand reconstruction utility, sharing no code with MR.
    """
    model = _factory()
    expected = np.zeros((log.n_epochs, log.n_participants))
    for t, record in enumerate(log.records):
        present = np.flatnonzero(record.participation_mask())
        if not present.size:
            continue
        model.set_flat(record.theta_before)
        base = model.loss(validation.X, validation.y).item()

        def utility(coalition, record=record, present=present, base=base):
            rows = present[sorted(coalition)]
            model.set_flat(record.theta_before - record.local_updates[rows].mean(axis=0))
            return base - model.loss(validation.X, validation.y).item()

        game = CallableUtility(present.size, utility)
        expected[t, present] = exact_shapley_values(game)
    return expected


class TestMRPartial:
    """MR plays each round over the parties whose update entered it."""

    def test_absent_parties_score_exactly_zero(self, hfl_log, validation):
        per_epoch = per_round_exact_shapley(hfl_log, validation, _factory)
        matrix = hfl_log.participation_matrix()
        assert not matrix.all()
        np.testing.assert_array_equal(per_epoch[~matrix], 0.0)

    def test_present_parties_get_the_present_only_game(self, hfl_log, validation):
        per_epoch = per_round_exact_shapley(hfl_log, validation, _factory)
        np.testing.assert_allclose(
            per_epoch, _present_only_shapley(hfl_log, validation), rtol=1e-10, atol=1e-15
        )

    def test_quarantined_party_scores_exactly_zero(self):
        federation = build_hfl_federation(mnist_like(240, seed=0), 4, seed=0)
        ledger = QuarantineLedger()
        trainer = AdversarialHFLTrainer(
            _factory, epochs=3, lr_schedule=LRSchedule(0.5), attacks={3: scale(200.0)}
        )
        log = trainer.train(
            federation.locals,
            federation.validation,
            screener=UpdateScreener(ScreenConfig(norm_factor=5.0), ledger),
        ).log
        assert len(ledger) > 0, "the boosting attacker must get quarantined"
        matrix = log.participation_matrix()
        per_epoch = per_round_exact_shapley(log, federation.validation, _factory)
        np.testing.assert_array_equal(per_epoch[~matrix], 0.0)
        np.testing.assert_allclose(
            per_epoch,
            _present_only_shapley(log, federation.validation),
            rtol=1e-10,
            atol=1e-15,
        )


# VFL: 3 parties owning two coefficients each.
VFL_BLOCKS = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
VFL_MASKS = [None, np.array([True, False, True]), np.array([False, True, True])]


def _build_vfl_log() -> VFLTrainingLog:
    rng = np.random.default_rng(7)
    d = 6
    log = VFLTrainingLog(
        feature_blocks=VFL_BLOCKS, active_parties=[0, 1, 2]
    )
    for t, mask in enumerate(VFL_MASKS, start=1):
        weights = np.ones(3)
        if mask is not None:
            weights = np.where(mask, weights, 0.0)
        log.records.append(
            VFLEpochRecord(
                epoch=t,
                lr=0.1,
                theta_before=rng.normal(size=d),
                train_gradient=rng.normal(size=d),
                val_gradient=rng.normal(size=d),
                weights=weights,
                participation=mask,
            )
        )
    return log


class TestVFLPartial:
    def test_first_order_matches_hand_computed_sums(self):
        log = _build_vfl_log()
        report = estimate_vfl_first_order(log)
        expected = np.zeros((3, 3))
        for t, record in enumerate(log.records):
            for party in (0, 1, 2):
                if record.participated(party):
                    block = VFL_BLOCKS[party]
                    expected[t, party] = record.lr * float(
                        record.val_gradient[block] @ record.train_gradient[block]
                    )
        np.testing.assert_allclose(report.per_epoch, expected, rtol=1e-12)
        np.testing.assert_allclose(report.totals, expected.sum(axis=0), rtol=1e-12)
        assert report.per_epoch[1, 1] == 0.0
        assert report.per_epoch[2, 0] == 0.0

    def test_second_order_zero_at_missed_rounds(self):
        workload = build_vfl_workload(
            "iris",
            epochs=12,
            seed=0,
            runtime=RuntimeConfig(faults=FaultPlan(dropout_rate=0.3, seed=1)),
        )
        log = workload.result.log
        missed = [
            (t, party)
            for t, r in enumerate(log.records)
            for party in log.active_parties
            if not r.participated(party)
        ]
        assert missed, "seed chosen so some party misses some round"
        report = estimate_vfl_second_order(
            log, workload.trainer.model, workload.split.train
        )
        for t, party in missed:
            col = log.active_parties.index(party)
            assert report.per_epoch[t, col] == 0.0


class TestParticipationRoundTrip:
    def test_hfl_masks_survive_npz(self, hfl_log, tmp_path):
        path = tmp_path / "log.npz"
        save_training_log(hfl_log, path)
        loaded = load_training_log(path)
        assert loaded.records[0].participation is None  # full round collapses
        for original, reread in zip(hfl_log.records, loaded.records):
            np.testing.assert_array_equal(
                original.participation_mask(), reread.participation_mask()
            )
        np.testing.assert_array_equal(
            loaded.participation_matrix(), hfl_log.participation_matrix()
        )

    def test_vfl_masks_survive_npz(self, tmp_path):
        log = _build_vfl_log()
        path = tmp_path / "vfl_log.npz"
        save_vfl_training_log(log, path)
        loaded = load_vfl_training_log(path)
        assert loaded.records[0].participation is None
        for original, reread in zip(log.records, loaded.records):
            np.testing.assert_array_equal(
                original.participation_mask(), reread.participation_mask()
            )

    def test_pre_runtime_files_load_as_full_attendance(self, hfl_log, tmp_path):
        """Logs written before the participation field existed still load."""
        path = tmp_path / "log.npz"
        save_training_log(hfl_log, path)
        with np.load(path, allow_pickle=False) as data:
            stripped = {
                key: data[key] for key in data.files if key != "participation"
            }
        # A file that predates the participation field also predates content
        # checksums — drop it from the meta to simulate the real artifact.
        meta = json.loads(str(stripped["meta"]))
        del meta["checksum"]
        stripped["meta"] = json.dumps(meta)
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **stripped)
        with pytest.warns(UserWarning, match="no embedded checksum"):
            loaded = load_training_log(legacy)
        assert all(r.participation is None for r in loaded.records)
        assert loaded.participation_matrix().all()
