"""Tests for the content-keyed analysis caches."""

import pickle

import numpy as np
import pytest

from repro.parallel import AnalysisCache, LruCache, snapshot_fingerprint
from repro.web.page import PageSnapshot, Screenshot


def _snapshot(html="<body>hello world</body>", url="http://a.example.com/"):
    return PageSnapshot(
        starting_url=url, landing_url=url, html=html,
        screenshot=Screenshot(rendered_text="hello"),
    )


class TestFingerprint:
    def test_stable_across_instances(self):
        assert snapshot_fingerprint(_snapshot()) == \
            snapshot_fingerprint(_snapshot())

    def test_differs_on_any_content_change(self):
        base = snapshot_fingerprint(_snapshot())
        assert snapshot_fingerprint(_snapshot(html="<body>bye</body>")) != base
        assert snapshot_fingerprint(
            _snapshot(url="http://b.example.com/")
        ) != base

    def test_sensitive_to_screenshot(self):
        plain = _snapshot()
        with_image = _snapshot()
        with_image.screenshot = Screenshot(
            rendered_text="hello", image_texts=("login now",)
        )
        assert snapshot_fingerprint(plain) != snapshot_fingerprint(with_image)

    def test_survives_serialisation_round_trip(self):
        snapshot = _snapshot()
        clone = PageSnapshot.from_dict(snapshot.to_dict())
        assert snapshot_fingerprint(snapshot) == snapshot_fingerprint(clone)


class TestLruCache:
    def test_get_put_and_counters(self):
        cache = LruCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_eviction_is_lru(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a" -> "b" is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_overwrite_refreshes(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # re-put refreshes recency
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_clear_keeps_counters(self):
        cache = LruCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_rejects_invalid_bound(self):
        with pytest.raises(ValueError):
            LruCache(max_entries=0)

    def test_picklable_despite_lock(self):
        cache = LruCache(max_entries=8)
        cache.put("a", np.arange(3))
        clone = pickle.loads(pickle.dumps(cache))
        assert np.array_equal(clone.get("a"), np.arange(3))
        clone.put("b", 2)  # the restored lock works


class TestAnalysisCache:
    def test_feature_hits_are_copies(self):
        cache = AnalysisCache()
        vector = np.ones(212)
        cache.put_features("k", vector)
        vector[0] = 99.0            # mutating the original is safe
        hit = cache.get_features("k")
        assert hit[0] == 1.0
        hit[1] = 42.0               # and mutating the hit is safe too
        assert cache.get_features("k")[1] == 1.0

    def test_stats_shape(self):
        cache = AnalysisCache()
        cache.put_features("k", np.zeros(212))
        cache.get_features("k")
        cache.get_features("missing")
        stats = cache.stats()
        assert stats["features_entries"] == 1
        assert stats["features_hits"] == 1
        assert stats["features_misses"] == 1
        assert stats["features_hit_rate"] == 0.5
        assert stats["distributions_hits"] == 0

    def test_clear_empties_all_stores(self):
        cache = AnalysisCache()
        cache.put_features("k", np.zeros(212))
        cache.distributions.put("k", "value")
        cache.clear()
        assert cache.stats()["features_entries"] == 0
        assert cache.distributions.get("k") is None


class TestEvictionCounters:
    def test_overfill_counts_evictions(self):
        cache = LruCache(max_entries=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert cache.counts() == {"hits": 0, "misses": 0, "evictions": 7}

    def test_replacing_a_key_is_not_an_eviction(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 1)
        assert cache.evictions == 0

    def test_analysis_cache_stats_report_evictions(self):
        cache = AnalysisCache(max_entries=2)
        for i in range(5):
            cache.put_features(f"k{i}", np.zeros(212))
        stats = cache.stats()
        assert stats["features_evictions"] == 3
        assert stats["features_entries"] == 2
        assert stats["distributions_evictions"] == 0


class TestMergeCounts:
    def test_lru_merge_from_cache_and_dict(self):
        ours = LruCache()
        ours.put("a", 1)
        ours.get("a")
        theirs = LruCache(max_entries=1)
        theirs.get("missing")
        theirs.put("x", 1)
        theirs.put("y", 1)          # evicts x
        ours.merge_counts(theirs)
        assert ours.counts() == {"hits": 1, "misses": 1, "evictions": 1}
        ours.merge_counts({"hits": 2})
        assert ours.hits == 3

    def test_analysis_cache_merge_counts(self):
        ours = AnalysisCache()
        theirs = AnalysisCache()
        theirs.get_features("missing")
        theirs.put_features("k", np.zeros(212))
        theirs.get_features("k")
        theirs.distributions.get("nope")
        ours.merge_counts(theirs)
        assert ours.features.hits == 1
        assert ours.features.misses == 1
        assert ours.distributions.misses == 1
        # merging a partial delta dict only touches the named stores
        ours.merge_counts({"features": {"hits": 4}})
        assert ours.features.hits == 5

    def test_fill_metrics_bridges_all_stores(self):
        from repro.obs import MetricsRegistry

        cache = AnalysisCache(max_entries=1)
        cache.get_features("missing")
        cache.put_features("a", np.zeros(212))
        cache.get_features("a")
        cache.put_features("b", np.zeros(212))   # evicts a
        metrics = MetricsRegistry()
        cache.fill_metrics(metrics)
        assert metrics.counter_value(
            "cache_hits_total", store="features") == 1.0
        assert metrics.counter_value(
            "cache_misses_total", store="features") == 1.0
        assert metrics.counter_value(
            "cache_evictions_total", store="features") == 1.0
        assert metrics.counter_value(
            "cache_hits_total", store="distributions") == 0.0


class TestCacheCountsProbe:
    def test_snapshot_delta_merge_round_trip(self):
        from repro.parallel import CacheCountsProbe

        cache = AnalysisCache()
        probe = CacheCountsProbe(cache)
        before = probe.snapshot()
        cache.get_features("missing")
        cache.put_features("k", np.zeros(212))
        cache.get_features("k")
        delta = probe.delta(before)
        assert delta["features"] == {"hits": 1, "misses": 1, "evictions": 0}

        other = AnalysisCache()
        CacheCountsProbe(other).merge(delta)
        assert other.features.hits == 1
        assert other.features.misses == 1
