"""The estimator-backend registry and the ``digfl`` equivalence contract.

Two things must hold for the registry to be safe to serve through: the
registry itself is strict (duplicate names refused, unknown names and
options are typed errors, not silent fallbacks), and the ``digfl``
backend is a pure rebinding — ``np.array_equal`` to the pre-registry
batch estimators on clean, partial-participation and quarantine-shaped
logs, through both its batch and streaming entry points.
"""

import numpy as np
import pytest

from repro.core import (
    UnknownBackendError,
    UnsupportedLogKind,
    backend_infos,
    backend_names,
    choose_backend,
    estimate_hfl_resource_saving,
    estimate_vfl_first_order,
    get_backend,
    kind_capable_backends,
    register_backend,
)
from repro.core.backends import EstimatorBackend, HFLRunContext, _REGISTRY
from repro.data import build_hfl_federation, mnist_like
from repro.hfl.attacks import AdversarialHFLTrainer, scale
from repro.nn import LRSchedule, make_mlp_classifier
from repro.robust import QuarantineLedger, ScreenConfig, UpdateScreener
from tests.test_runtime_partial_estimators import (
    _build_hfl_log,
    _build_vfl_log,
    _factory,
)


class TestRegistryContract:
    def test_builtin_backends_registered_and_sorted(self):
        names = backend_names()
        assert names == sorted(names)
        for expected in ("digfl", "dpvs", "gtg_shapley"):
            assert expected in names

    def test_unknown_name_is_typed_and_lists_backends(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("nope")
        assert isinstance(excinfo.value, ValueError)  # -> HTTP 400
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message

    def test_unknown_option_refused(self):
        with pytest.raises(ValueError, match="no option"):
            get_backend("gtg_shapley", not_a_knob=3)
        with pytest.raises(ValueError, match="no option"):
            get_backend("digfl", seed=0)  # digfl has no options at all

    def test_duplicate_name_refused_same_class_idempotent(self):
        assert "digfl" in backend_names()  # force lazy population first

        class Impostor(EstimatorBackend):
            name = "digfl"
            kinds = ("hfl",)

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Impostor)
        # Re-registering the exact same class (module re-import) is fine.
        existing = _REGISTRY["digfl"]
        assert register_backend(existing) is existing

    def test_nameless_or_kindless_backend_refused(self):
        class NoName(EstimatorBackend):
            kinds = ("hfl",)

        class NoKinds(EstimatorBackend):
            name = "no-kinds"

        with pytest.raises(ValueError, match="non-empty 'name'"):
            register_backend(NoName)
        with pytest.raises(ValueError, match="log kinds"):
            register_backend(NoKinds)

    def test_kind_gating(self):
        gtg = get_backend("gtg_shapley")
        assert gtg.supports("hfl") and not gtg.supports("vfl")
        with pytest.raises(UnsupportedLogKind, match="does not support 'vfl'"):
            gtg.require("vfl")
        digfl = get_backend("digfl")
        digfl.require("hfl")
        digfl.require("vfl")

    def test_kind_gating_names_capable_backends(self):
        """Regression: the VFL gating error must point at usable backends."""
        with pytest.raises(UnsupportedLogKind) as excinfo:
            get_backend("gtg_shapley").require("vfl")
        message = str(excinfo.value)
        assert "backends supporting 'vfl': digfl" in message
        assert excinfo.value.capable == ["digfl"]
        # The offending backend never recommends itself.
        assert "gtg_shapley" not in excinfo.value.capable

    def test_kind_capable_backends(self):
        vfl_capable = kind_capable_backends("vfl")
        assert "digfl" in vfl_capable
        assert "gtg_shapley" not in vfl_capable
        hfl_capable = kind_capable_backends("hfl")
        assert {"digfl", "dpvs", "gtg_shapley"} <= set(hfl_capable)
        assert hfl_capable == sorted(hfl_capable)

    def test_digest_tokens_distinguish_backend_and_options(self):
        tokens = {
            get_backend("digfl").digest_token(),
            get_backend("gtg_shapley").digest_token(),
            get_backend("gtg_shapley", seed=1).digest_token(),
            get_backend("dpvs").digest_token(),
        }
        assert len(tokens) == 4
        # Same backend + same options -> same token (cache-key stability).
        assert (
            get_backend("gtg_shapley", seed=1).digest_token()
            == get_backend("gtg_shapley", seed=1).digest_token()
        )

    def test_backend_infos_expose_defaults(self):
        infos = {info.name: info for info in backend_infos()}
        assert infos["gtg_shapley"].option_defaults["max_permutations"] == 16
        assert infos["digfl"].kinds == ("hfl", "vfl")
        assert infos["dpvs"].summary


class TestChooseBackend:
    """Crossover-driven auto-selection from BENCH_estimators.json."""

    def _bench(self, tmp_path, payload):
        import json

        path = tmp_path / "BENCH_estimators.json"
        path.write_text(json.dumps(payload))
        return path

    def test_vfl_always_digfl(self, tmp_path):
        bench = self._bench(tmp_path, {"crossover": {"n_parties": 3}})
        assert choose_backend(2, "vfl", bench_path=bench) == "digfl"
        assert choose_backend(50, "vfl", bench_path=bench) == "digfl"

    def test_hfl_crossover_switches_backend(self, tmp_path):
        bench = self._bench(tmp_path, {"crossover": {"n_parties": 6}})
        assert choose_backend(3, "hfl", bench_path=bench) == "gtg_shapley"
        assert choose_backend(5, "hfl", bench_path=bench) == "gtg_shapley"
        assert choose_backend(6, "hfl", bench_path=bench) == "dpvs"
        assert choose_backend(40, "hfl", bench_path=bench) == "dpvs"

    def test_missing_bench_falls_back_to_digfl(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert choose_backend(5, "hfl", bench_path=missing) == "digfl"

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no crossover key
            {"crossover": {}},  # no n_parties
            {"crossover": {"n_parties": None}},  # sweep found no crossover
            {"crossover": {"n_parties": "soon"}},  # not numeric
            {"crossover": {"n_parties": 0}},  # nonsense value
        ],
    )
    def test_malformed_crossover_falls_back(self, tmp_path, payload):
        bench = self._bench(tmp_path, payload)
        assert choose_backend(5, "hfl", bench_path=bench) == "digfl"

    def test_invalid_json_falls_back(self, tmp_path):
        bench = tmp_path / "BENCH_estimators.json"
        bench.write_text("{not json")
        assert choose_backend(5, "hfl", bench_path=bench) == "digfl"

    def test_repo_bench_file_drives_selection(self):
        # The checked-in bench records a crossover, so HFL picks a
        # Shapley-family backend and never errors.
        name = choose_backend(4, "hfl")
        assert name in backend_names()

    def test_working_directory_is_not_an_input(self, tmp_path, monkeypatch):
        # A conflicting bench file in the cwd must not change the answer:
        # "auto" may not depend on where a server was started.
        before = [choose_backend(n, "hfl") for n in range(1, 9)]
        self._bench(tmp_path, {"crossover": {"n_parties": 100}})
        monkeypatch.chdir(tmp_path)
        assert [choose_backend(n, "hfl") for n in range(1, 9)] == before

    def test_validation(self):
        with pytest.raises(ValueError, match="n_parties"):
            choose_backend(0, "hfl")
        with pytest.raises(ValueError, match="kind"):
            choose_backend(4, "diagonal")


@pytest.fixture(scope="module")
def quarantine_log():
    """A log shaped by screening: quarantined rounds punch participation holes."""
    federation = build_hfl_federation(mnist_like(400, seed=0), 6, seed=0)
    trainer = AdversarialHFLTrainer(
        _factory, epochs=4, lr_schedule=LRSchedule(0.5),
        attacks={5: scale(200.0)},
    )
    ledger = QuarantineLedger()
    screener = UpdateScreener(ScreenConfig(norm_factor=5.0), ledger)
    result = trainer.train(
        federation.locals, federation.validation, screener=screener
    )
    assert len(ledger) > 0, "attack strong enough to trip the screener"
    return federation, result.log


class TestDigFLBitEquality:
    """``digfl`` through the registry == the original estimators, exactly."""

    def _assert_reports_equal(self, ours, reference):
        assert ours.participant_ids == reference.participant_ids
        assert np.array_equal(ours.totals, reference.totals)
        assert np.array_equal(ours.per_epoch, reference.per_epoch)

    def test_clean_hfl_batch(self, hfl_result, hfl_federation):
        factory = lambda: make_mlp_classifier(100, 10, hidden=(16,), seed=0)
        reference = estimate_hfl_resource_saving(
            hfl_result.log, hfl_federation.validation, factory
        )
        ours = get_backend("digfl").estimate_hfl(
            hfl_result.log, hfl_federation.validation, factory
        )
        self._assert_reports_equal(ours, reference)
        assert ours.method == reference.method == "digfl-resource-saving"

    def test_partial_hfl_batch_and_streaming(self):
        log = _build_hfl_log()
        validation = mnist_like(40, seed=1)
        reference = estimate_hfl_resource_saving(log, validation, _factory)
        backend = get_backend("digfl")
        self._assert_reports_equal(
            backend.estimate_hfl(log, validation, _factory), reference
        )
        streaming = backend.streaming_hfl(
            HFLRunContext(log.participant_ids, validation, _factory)
        )
        for record in log.records:
            streaming.ingest(record)
        self._assert_reports_equal(streaming.report(), reference)

    def test_logged_weights_path(self):
        log = _build_hfl_log()
        validation = mnist_like(40, seed=1)
        reference = estimate_hfl_resource_saving(
            log, validation, _factory, use_logged_weights=True
        )
        ours = get_backend("digfl").estimate_hfl(
            log, validation, _factory, use_logged_weights=True
        )
        self._assert_reports_equal(ours, reference)

    def test_quarantine_hfl(self, quarantine_log):
        federation, log = quarantine_log
        reference = estimate_hfl_resource_saving(
            log, federation.validation, _factory
        )
        ours = get_backend("digfl").estimate_hfl(
            log, federation.validation, _factory
        )
        self._assert_reports_equal(ours, reference)

    def test_clean_vfl_batch(self, vfl_result):
        reference = estimate_vfl_first_order(vfl_result.log)
        ours = get_backend("digfl").estimate_vfl(vfl_result.log)
        self._assert_reports_equal(ours, reference)
        assert ours.method == "digfl-vfl"

    def test_partial_vfl_batch(self):
        log = _build_vfl_log()
        reference = estimate_vfl_first_order(log)
        self._assert_reports_equal(
            get_backend("digfl").estimate_vfl(log), reference
        )

    def test_empty_log_refused(self):
        from repro.hfl.log import TrainingLog

        with pytest.raises(ValueError, match="empty"):
            get_backend("gtg_shapley").estimate_hfl(
                TrainingLog(participant_ids=[0, 1]),
                mnist_like(40, seed=1),
                _factory,
            )
