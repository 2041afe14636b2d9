"""Tests for the perf package (memoisation) and the perf counters its
caches record into the metrics registry."""

import pytest

from repro.analysis.histograms import evaluator_for, pattern_histogram
from repro.cli import _perf_table
from repro.core.fx import FXDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.hashing.fields import FileSystem
from repro.obs.metrics import default_registry
from repro.perf import method_signature, shared_evaluator
from repro.perf.memo import LRUCache, clear_memo

REGISTRY = default_registry()


@pytest.fixture(autouse=True)
def _clean_counters():
    REGISTRY.reset_perf()
    yield
    REGISTRY.reset_perf()


class TestCounters:
    def test_hit_miss_and_rate(self):
        REGISTRY.record_perf_hit("c", 3)
        REGISTRY.record_perf_miss("c")
        c = REGISTRY.perf_counter("c")
        assert (c.hits, c.misses, c.lookups) == (3, 1, 4)
        assert c.hit_rate == pytest.approx(0.75)

    def test_throughput(self):
        REGISTRY.record_perf_work("w", events=500, seconds=0.25)
        assert REGISTRY.perf_counter("w").rate == pytest.approx(2000.0)
        assert REGISTRY.perf_counter("idle").rate == 0.0

    def test_snapshot_is_a_copy(self):
        REGISTRY.record_perf_hit("c")
        snap = REGISTRY.snapshot().perf
        REGISTRY.record_perf_hit("c")
        assert snap["c"].hits == 1
        assert REGISTRY.perf_counter("c").hits == 2

    def test_render_report_mentions_counters(self):
        REGISTRY.record_perf_hit("evaluator_lru")
        REGISTRY.record_perf_miss("evaluator_lru")
        text = _perf_table(REGISTRY.snapshot())
        assert "evaluator_lru" in text
        assert "50.0%" in text

    def test_render_report_empty_registry(self):
        assert "no activity" in _perf_table(REGISTRY.snapshot())


class TestLRUCache:
    def test_eviction_order(self):
        lru = LRUCache(2, "lru_test")
        lru.get_or_create("a", lambda: 1)
        lru.get_or_create("b", lambda: 2)
        lru.get_or_create("a", lambda: -1)   # refresh a
        lru.get_or_create("c", lambda: 3)    # evicts b
        calls = []
        assert lru.get_or_create("b", lambda: calls.append(1) or 4) == 4
        assert calls  # b was rebuilt
        assert len(lru) == 2

    def test_counters_recorded(self):
        lru = LRUCache(4, "lru_test")
        lru.get_or_create("k", lambda: 1)
        lru.get_or_create("k", lambda: 2)
        c = REGISTRY.perf_counter("lru_test")
        assert (c.hits, c.misses) == (1, 1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0, "bad")


class TestMethodSignature:
    def test_equal_methods_share_signature(self):
        fs = FileSystem.of(4, 8, m=8)
        assert method_signature(FXDistribution(fs)) == method_signature(
            FXDistribution(fs)
        )

    def test_different_transforms_differ(self):
        fs = FileSystem.of(4, 4, m=16)
        a = FXDistribution(fs, transforms=["I", "U"])
        b = FXDistribution(fs, transforms=["U", "I"])
        assert method_signature(a) != method_signature(b)

    def test_combine_rule_distinguishes(self):
        fs = FileSystem.of(4, 8, m=8)
        assert method_signature(ModuloDistribution(fs)) != method_signature(
            FXDistribution(fs)
        )

    def test_signature_cached_on_instance(self):
        fx = FXDistribution(FileSystem.of(4, 8, m=8))
        assert method_signature(fx) is method_signature(fx)


class TestEvaluatorMemoisation:
    def test_equal_instances_share_one_evaluator(self):
        clear_memo()
        fs = FileSystem.of(4, 8, m=8)
        first = shared_evaluator(FXDistribution(fs))
        second = shared_evaluator(FXDistribution(fs))
        assert first is second
        c = REGISTRY.perf_counter("evaluator_lru")
        assert c.hits >= 1 and c.misses >= 1

    def test_evaluator_for_records_lru_hits(self):
        clear_memo()
        fs = FileSystem.of(4, 8, m=8)
        fx = FXDistribution(fs)
        evaluator_for(fx)
        before = REGISTRY.perf_counter("evaluator_lru").hits
        evaluator_for(fx)
        assert REGISTRY.perf_counter("evaluator_lru").hits == before + 1

    def test_repeated_pattern_histograms_hit_cache(self):
        clear_memo()
        fs = FileSystem.of(4, 8, m=8)
        fx = FXDistribution(fs)
        first = pattern_histogram(fx, {0, 1})
        before = REGISTRY.perf_counter("pattern_histogram").hits
        second = pattern_histogram(fx, {0, 1})
        assert REGISTRY.perf_counter("pattern_histogram").hits == before + 1
        assert second is first          # memoised, returned read-only
        assert not second.flags.writeable
        assert first.sum() == 32

    def test_histograms_still_correct_after_memoisation(self):
        fs = FileSystem.of(4, 4, m=16)
        modulo = ModuloDistribution(fs)
        query_histogram = modulo.response_histogram(
            __import__(
                "repro.query.partial_match", fromlist=["PartialMatchQuery"]
            ).PartialMatchQuery.full_scan(fs)
        )
        counts = [0] * fs.m
        for bucket in fs.buckets():
            counts[modulo.device_of(bucket)] += 1
        assert query_histogram == counts
