"""The content-addressed result cache: LRU budget, counters, digests.

Pins the properties the service relies on: the byte budget actually
bounds memory (evicting least-recently-used first, rejecting values
larger than the whole budget), the counters stay internally consistent
(``lookups = hits + misses``), and :class:`RunDigest` is a pure function
of log *content* — two runs ingesting the same records converge on the
same hex state, and any single changed byte diverges.
"""

import numpy as np
import pytest

from repro.serve import CacheMemo, ResultCache, RunDigest, fingerprint_arrays
from tests.test_runtime_partial_estimators import _build_hfl_log, _build_vfl_log

pytestmark = pytest.mark.timeout(120)  # inert without pytest-timeout (CI has it)


class TestResultCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = ResultCache(1024)
        assert cache.get("k") is None
        cache.put("k", b"value")
        assert cache.get("k") == b"value"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["lookups"] == stats["hits"] + stats["misses"]
        assert stats["entries"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"x" * 40)
        assert cache.get("a") == b"x" * 40  # refresh "a": now "b" is LRU
        cache.put("c", b"x" * 40)  # 120 bytes > 100: evict "b"
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1
        assert cache.current_bytes <= 100

    def test_oversize_value_rejected_not_admitted(self):
        cache = ResultCache(64)
        cache.put("small", b"x" * 10)
        cache.put("huge", b"x" * 1000)
        assert "huge" not in cache
        assert "small" in cache, "an oversize value must not flush the cache"
        assert cache.rejected == 1
        assert cache.evictions == 0

    def test_reput_same_key_replaces_without_double_charge(self):
        cache = ResultCache(100)
        cache.put("k", b"x" * 60)
        cache.put("k", b"x" * 30)
        assert cache.current_bytes == 30
        assert len(cache) == 1

    def test_get_or_compute_computes_once(self):
        cache = ResultCache(1024)
        calls = []

        def compute():
            calls.append(1)
            return {"totals": [1.0, 2.0]}

        first = cache.get_or_compute("q", compute)
        second = cache.get_or_compute("q", compute)
        assert first == second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_numpy_payloads_charged_by_nbytes(self):
        cache = ResultCache(100)
        cache.put("g", np.zeros(10))  # 80 bytes
        assert cache.current_bytes == 80
        cache.put("g2", np.zeros(10))  # would be 160: evict "g"
        assert cache.evictions == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(0)

    def test_clear(self):
        cache = ResultCache(1024)
        cache.put("k", b"v")
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0


class TestCacheMemo:
    def test_mapping_view_shares_the_cache(self):
        cache = ResultCache(1024)
        memo = cache.memo("valgrad")
        assert isinstance(memo, CacheMemo)
        memo["abc"] = np.arange(3.0)
        np.testing.assert_array_equal(memo["abc"], np.arange(3.0))
        np.testing.assert_array_equal(cache.get(("valgrad", "abc")), np.arange(3.0))
        assert memo.get("missing") is None
        with pytest.raises(KeyError):
            memo["missing"]

    def test_prefixes_namespace_keys(self):
        cache = ResultCache(1024)
        cache.memo("a")["k"] = 1
        cache.memo("b")["k"] = 2
        assert cache.memo("a")["k"] == 1
        assert cache.memo("b")["k"] == 2

    def test_deletion_and_iteration_unsupported(self):
        memo = ResultCache(1024).memo("p")
        with pytest.raises(TypeError):
            del memo["k"]
        with pytest.raises(TypeError):
            list(memo)


class TestRunDigest:
    def test_same_content_same_digest(self):
        log = _build_hfl_log()
        a, b = RunDigest("hfl"), RunDigest("hfl")
        for record in log.records:
            a = a.update_hfl(record)
            b = b.update_hfl(record)
        assert a.hexdigest() == b.hexdigest()
        assert a.epochs == len(log.records)

    def test_any_changed_byte_diverges(self):
        log = _build_hfl_log()
        perturbed = _build_hfl_log()
        perturbed.records[0].local_updates[0, 0] += 1e-9
        a = RunDigest("hfl").update_hfl(log.records[0])
        b = RunDigest("hfl").update_hfl(perturbed.records[0])
        assert a.hexdigest() != b.hexdigest()
        assert a.record_hash != b.record_hash

    def test_seed_parts_separate_estimator_options(self):
        assert (
            RunDigest("hfl", "use_logged_weights=True").hexdigest()
            != RunDigest("hfl", "use_logged_weights=False").hexdigest()
        )

    def test_hexdigest_is_a_snapshot_not_a_finalise(self):
        """A link is a value: extending it leaves it as it was, and the
        chain resumes from a recorded hex digest alone."""
        log = _build_vfl_log()
        seed = RunDigest("vfl")
        first = seed.update_vfl(log.records[0])
        assert seed.hexdigest() == RunDigest("vfl").hexdigest()
        assert seed.epochs == 0
        resumed = RunDigest.resume(first.hexdigest(), first.epochs)
        a, b = first, resumed
        for record in log.records[1:]:
            a, b = a.update_vfl(record), b.update_vfl(record)
        assert a.hexdigest() == b.hexdigest() and a.epochs == b.epochs

    def test_prefix_digests_differ_per_epoch(self):
        log = _build_hfl_log()
        digest = RunDigest("hfl")
        states = []
        for record in log.records:
            link = digest.update_hfl(record)
            # d_t = SHA-256(d_{t-1} || h_t), with h_t logged beside it.
            assert link.hexdigest() == digest.extend(link.record_hash).hexdigest()
            digest = link
            states.append(link.hexdigest())
        assert len(set(states)) == len(states)


class TestFingerprintArrays:
    def test_deterministic_and_name_sensitive(self):
        x = np.arange(6.0).reshape(2, 3)
        assert fingerprint_arrays(X=x) == fingerprint_arrays(X=x.copy())
        assert fingerprint_arrays(X=x) != fingerprint_arrays(Y=x)
        assert fingerprint_arrays(X=x) != fingerprint_arrays(X=x + 1)
