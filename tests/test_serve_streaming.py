"""Streaming estimators are *bit-for-bit* the batch estimators.

The acceptance contract of ``repro.core.streaming`` as the service uses it
(imported through ``repro.serve``): ingesting a log one epoch at a time
yields ``np.array_equal`` totals and per-epoch matrices — not merely
allclose — against one batch call, on every workload class the batch
estimators support: clean seed runs, logged-weight attribution, partial
participation (runtime dropouts), and quarantined parties (robust
screening).  The batch estimators are the whole-log fold of these
classes, so the equalities hold by construction; the tests keep the fold
honest (epoch indexing, memo keys, masks).  Plus the incremental-only
surface: prefix queries, leaderboards and running Eq. 17–18 weights.
"""

import numpy as np
import pytest

from repro.core import (
    estimate_hfl_resource_saving,
    estimate_vfl_first_order,
    rectified_weights,
    softmax_weights,
)
from repro.data import build_hfl_federation, mnist_like
from repro.hfl.attacks import AdversarialHFLTrainer, scale
from repro.hfl.log import TrainingLog
from repro.nn import LRSchedule
from repro.robust import QuarantineLedger, ScreenConfig, UpdateScreener
from repro.serve import StreamingHFLEstimator, StreamingVFLEstimator
from repro.vfl.log import VFLTrainingLog
from tests.conftest import small_model_factory
from tests.test_runtime_partial_estimators import (
    _build_hfl_log,
    _build_vfl_log,
    _factory as mnist_factory,
)

pytestmark = pytest.mark.timeout(180)  # inert without pytest-timeout (CI has it)


def _stream_hfl(log, validation, **kwargs) -> StreamingHFLEstimator:
    estimator = StreamingHFLEstimator(
        log.participant_ids, validation, small_model_factory, **kwargs
    )
    estimator.ingest_log(log)
    return estimator


def _assert_bit_for_bit(streaming_report, batch_report):
    assert np.array_equal(streaming_report.totals, batch_report.totals)
    assert np.array_equal(streaming_report.per_epoch, batch_report.per_epoch)
    assert streaming_report.participant_ids == batch_report.participant_ids
    assert streaming_report.method == batch_report.method


class TestHFLBitForBit:
    def test_clean_seed_run(self, hfl_result, hfl_federation):
        streaming = _stream_hfl(hfl_result.log, hfl_federation.validation)
        batch = estimate_hfl_resource_saving(
            hfl_result.log, hfl_federation.validation, small_model_factory
        )
        _assert_bit_for_bit(streaming.report(), batch)

    def test_logged_weights(self, hfl_result, hfl_federation):
        streaming = _stream_hfl(
            hfl_result.log, hfl_federation.validation, use_logged_weights=True
        )
        batch = estimate_hfl_resource_saving(
            hfl_result.log,
            hfl_federation.validation,
            small_model_factory,
            use_logged_weights=True,
        )
        _assert_bit_for_bit(streaming.report(), batch)

    def test_partial_participation_log(self):
        """The hand-built dropout log: masked rounds, an all-absent round."""
        log = _build_hfl_log()
        validation = mnist_like(40, seed=1)
        streaming = StreamingHFLEstimator(
            log.participant_ids, validation, mnist_factory
        )
        streaming.ingest_log(log)
        batch = estimate_hfl_resource_saving(log, validation, mnist_factory)
        assert np.array_equal(streaming.per_epoch(), batch.per_epoch)
        assert np.array_equal(streaming.totals(), batch.totals)
        # The all-absent round streams to an exactly-zero row too.
        assert (streaming.per_epoch()[3] == 0.0).all()

    def test_quarantine_log(self):
        """Screening marks a boosting attacker absent; streaming agrees."""
        federation = build_hfl_federation(mnist_like(400, seed=0), 6, seed=0)
        ledger = QuarantineLedger()
        screener = UpdateScreener(ScreenConfig(norm_factor=5.0), ledger)
        trainer = AdversarialHFLTrainer(
            small_model_factory,
            epochs=4,
            lr_schedule=LRSchedule(0.5),
            attacks={5: scale(200.0)},
        )
        result = trainer.train(
            federation.locals, federation.validation, screener=screener
        )
        assert len(ledger) > 0, "the boosting attacker must get quarantined"
        assert not result.log.participation_matrix().all()
        streaming = _stream_hfl(result.log, federation.validation)
        batch = estimate_hfl_resource_saving(
            result.log, federation.validation, small_model_factory
        )
        _assert_bit_for_bit(streaming.report(), batch)
        # Quarantined rounds contribute exactly zero for the attacker.
        matrix = result.log.participation_matrix()
        np.testing.assert_array_equal(streaming.per_epoch()[~matrix], 0.0)

    def test_every_prefix_matches_batch_on_truncated_log(
        self, hfl_result, hfl_federation
    ):
        """Mid-training queries equal a batch re-estimate of the prefix."""
        log = hfl_result.log
        streaming = StreamingHFLEstimator(
            log.participant_ids, hfl_federation.validation, small_model_factory
        )
        for t, record in enumerate(log.records, start=1):
            streaming.ingest(record)
            prefix = TrainingLog(
                participant_ids=log.participant_ids, records=log.records[:t]
            )
            batch = estimate_hfl_resource_saving(
                prefix, hfl_federation.validation, small_model_factory
            )
            assert np.array_equal(streaming.totals(), batch.totals)
            assert np.array_equal(streaming.per_epoch(), batch.per_epoch)


class TestVFLBitForBit:
    def test_clean_seed_run(self, vfl_result):
        streaming = StreamingVFLEstimator(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        streaming.ingest_log(vfl_result.log)
        batch = estimate_vfl_first_order(vfl_result.log)
        _assert_bit_for_bit(streaming.report(), batch)

    def test_partial_participation_log(self):
        log = _build_vfl_log()
        streaming = StreamingVFLEstimator(log.feature_blocks, log.active_parties)
        streaming.ingest_log(log)
        batch = estimate_vfl_first_order(log)
        assert np.array_equal(streaming.per_epoch(), batch.per_epoch)
        assert np.array_equal(streaming.totals(), batch.totals)
        assert streaming.per_epoch()[1, 1] == 0.0
        assert streaming.per_epoch()[2, 0] == 0.0

    def test_every_prefix_matches_batch(self, vfl_result):
        log = vfl_result.log
        streaming = StreamingVFLEstimator(log.feature_blocks, log.active_parties)
        for t, record in enumerate(log.records, start=1):
            streaming.ingest(record)
            prefix = VFLTrainingLog(
                feature_blocks=log.feature_blocks,
                active_parties=log.active_parties,
                records=log.records[:t],
            )
            batch = estimate_vfl_first_order(prefix)
            assert np.array_equal(streaming.totals(), batch.totals)


class TestStreamingSurface:
    def test_leaderboard_is_sorted_and_truncates(self, vfl_result):
        streaming = StreamingVFLEstimator(
            vfl_result.log.feature_blocks, vfl_result.log.active_parties
        )
        streaming.ingest_log(vfl_result.log)
        board = streaming.leaderboard()
        values = [v for _, v in board]
        assert values == sorted(values, reverse=True)
        assert streaming.leaderboard(top=2) == board[:2]

    def test_current_weights_match_reweight_module(self, hfl_result, hfl_federation):
        streaming = _stream_hfl(hfl_result.log, hfl_federation.validation)
        last_row = streaming.per_epoch()[-1]
        np.testing.assert_array_equal(
            streaming.current_weights(), rectified_weights(last_row)
        )
        np.testing.assert_array_equal(
            streaming.current_weights("softmax"), softmax_weights(last_row, 1.0)
        )
        with pytest.raises(ValueError, match="scheme"):
            streaming.current_weights("banana")

    def test_weight_history_rows_are_simplex_points(self, hfl_result, hfl_federation):
        streaming = _stream_hfl(hfl_result.log, hfl_federation.validation)
        history = streaming.weight_history()
        assert history.shape == (
            hfl_result.log.n_epochs,
            len(hfl_result.log.participant_ids),
        )
        np.testing.assert_allclose(history.sum(axis=1), 1.0, rtol=1e-12)
        assert (history >= 0.0).all()

    def test_empty_estimator_raises(self, hfl_federation):
        streaming = StreamingHFLEstimator(
            [0, 1], hfl_federation.validation, small_model_factory
        )
        assert streaming.n_epochs == 0
        assert streaming.per_epoch().shape == (0, 2)
        with pytest.raises(ValueError, match="no epochs"):
            streaming.report()
        with pytest.raises(ValueError, match="no epochs"):
            streaming.current_weights()

    def test_mismatched_log_rejected(self, hfl_result, hfl_federation):
        streaming = StreamingHFLEstimator(
            [0, 1], hfl_federation.validation, small_model_factory
        )
        with pytest.raises(ValueError, match="do not match"):
            streaming.ingest_log(hfl_result.log)
        with pytest.raises(ValueError, match="update rows"):
            streaming.ingest(hfl_result.log.records[0])
