"""Content-keyed memoization for the feature-extraction hot path.

The paper's deployment argument (Table VIII) needs feature computation
fast enough for in-browser use; at crawl scale the same page content is
re-analysed constantly (re-crawls, retries, evaluation re-runs).  This
module amortises that work:

* :func:`snapshot_fingerprint` — a stable content hash of a
  :class:`~repro.web.page.PageSnapshot` (its serialised form), so equal
  content maps to equal keys across processes and runs;
* :class:`LruCache` — a thread-safe, size-bounded LRU with hit/miss
  counters, the same eviction idiom as the add-on's
  :class:`~repro.addon.cache.VerdictCache` (minus the TTL: features are
  a pure function of content and never go stale);
* :class:`AnalysisCache` — one bundle of two keyed stores for the
  quantities worth memoizing per snapshot: the Table I term
  distributions and the full 212-dimension feature vector.

Cached values are immutable or defensively copied, so a hit is
indistinguishable from a recomputation — bit-identical, by construction.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict

import numpy as np

from repro.web.page import PageSnapshot


def snapshot_fingerprint(snapshot: PageSnapshot) -> str:
    """Stable content hash of a snapshot (sha256 over canonical JSON).

    Two snapshots with equal serialised content (URLs, redirection
    chain, logged links, HTML, screenshot) share a fingerprint — even
    across processes, unlike ``id()``- or ``hash()``-based keys.
    """
    payload = json.dumps(
        snapshot.to_dict(), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LruCache:
    """A thread-safe, size-bounded LRU mapping with hit/miss counters.

    Parameters
    ----------
    max_entries:
        Maximum stored keys; least-recently-used entries are evicted.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> object | None:
        """Return the cached value or ``None``, updating counters."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        """Store a value, evicting the oldest entry when full."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Current counter values (a snapshot, safe to diff later)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def merge_counts(self, other: "LruCache | dict[str, int]") -> None:
        """Fold another store's counters (or a delta dict) into this one.

        This is how process-backend workers report back: their pickled
        cache copy accumulates hits/misses/evictions that would
        otherwise be lost when the worker exits, so the caller merges
        the per-item counter *deltas* returned by
        :meth:`repro.parallel.WorkerPool.map_observed`.
        """
        delta = other.counts() if isinstance(other, LruCache) else other
        with self._lock:
            self.hits += int(delta.get("hits", 0))
            self.misses += int(delta.get("misses", 0))
            self.evictions += int(delta.get("evictions", 0))

    # Locks do not pickle; drop the lock so process-pool workers can
    # receive a copy of a warm cache (their fills stay worker-local).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class AnalysisCache:
    """Memoization bundle for per-snapshot analysis artefacts.

    Two independent LRU stores, both keyed by snapshot fingerprint:

    * ``features`` — full 212-dimension feature vectors, filled and
      read by the batch extractor;
    * ``distributions`` — individual Table I term distributions,
      shared between extraction and target identification of the
      same content.

    One cache belongs to one extractor configuration: feature vectors
    depend on the Alexa ranking and term metric, so sharing a cache
    between differently-configured extractors yields wrong hits.  The
    ``image`` distribution is never cached (it depends on the OCR
    engine, not only on content).

    Parameters
    ----------
    max_entries:
        Bound for the feature store; the distribution store holds up
        to 13 entries per snapshot and is bounded at
        ``16 * max_entries``.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.features = LruCache(max_entries)
        self.distributions = LruCache(16 * max_entries)

    # ------------------------------------------------------------------
    def get_features(self, key: str) -> np.ndarray | None:
        """Cached feature vector (a defensive copy) or ``None``."""
        hit = self.features.get(key)
        return None if hit is None else hit.copy()

    def put_features(self, key: str, vector: np.ndarray) -> None:
        """Store a feature vector (copied, so later mutation is safe)."""
        self.features.put(key, np.array(vector, dtype=np.float64, copy=True))

    # ------------------------------------------------------------------
    def _stores(self) -> tuple[tuple[str, LruCache], ...]:
        return (
            ("features", self.features),
            ("distributions", self.distributions),
        )

    def stats(self) -> dict[str, float]:
        """Flat hit/miss/eviction summary across both stores."""
        out: dict[str, float] = {}
        for name, store in self._stores():
            out[f"{name}_entries"] = len(store)
            out[f"{name}_hits"] = store.hits
            out[f"{name}_misses"] = store.misses
            out[f"{name}_evictions"] = store.evictions
            out[f"{name}_hit_rate"] = store.hit_rate
        return out

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-store counter snapshot, diffable and mergeable."""
        return {name: store.counts() for name, store in self._stores()}

    def merge_counts(
        self, other: "AnalysisCache | dict[str, dict[str, int]]"
    ) -> None:
        """Fold another cache's counters (or a delta dict) into this one."""
        deltas = (
            other.counts() if isinstance(other, AnalysisCache) else other
        )
        for name, store in self._stores():
            delta = deltas.get(name)
            if delta:
                store.merge_counts(delta)

    def fill_metrics(self, metrics: object) -> None:
        """Bridge current counters into a metrics registry.

        ``metrics`` follows the :class:`repro.obs.metrics.MetricsRegistry`
        API (duck-typed to keep this package import-light).  Called at
        export time: counters land as ``cache_*_total{store=...}``.
        """
        inc = getattr(metrics, "inc")
        for name, store in self._stores():
            counts = store.counts()
            inc("cache_hits_total", counts["hits"], store=name)
            inc("cache_misses_total", counts["misses"], store=name)
            inc("cache_evictions_total", counts["evictions"], store=name)

    def clear(self) -> None:
        """Drop every entry from every store."""
        self.features.clear()
        self.distributions.clear()


class CacheCountsProbe:
    """A :meth:`~repro.parallel.WorkerPool.map_observed` probe for caches.

    Ships inside the task wrapper so that in a process-pool worker the
    probe's ``cache`` is the *same object* as the one the mapped
    function uses (pickle memoization preserves the shared reference);
    per-item counter deltas then merge back into the caller's cache,
    closing the hole where worker-side hits/misses were silently lost.
    """

    def __init__(self, cache: AnalysisCache) -> None:
        self.cache = cache

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Counter state before the mapped call."""
        return self.cache.counts()

    def delta(
        self, before: dict[str, dict[str, int]]
    ) -> dict[str, dict[str, int]]:
        """Counter growth since ``before`` (one item's contribution)."""
        after = self.cache.counts()
        return {
            name: {
                key: after[name][key] - before[name].get(key, 0)
                for key in after[name]
            }
            for name in after
        }

    def merge(self, delta: dict[str, dict[str, int]]) -> None:
        """Fold a worker-side delta into the caller's cache."""
        self.cache.merge_counts(delta)
