"""Versioned score cache for the serving layer.

Entries are keyed by ``(graph_version, algorithm, params)`` — the params
half is a canonical sorted tuple, so label order at the call site never
matters.  A graph mutation bumps the service's version, after which every
lookup for the new version misses and recomputes; :meth:`ScoreCache.invalidate`
then purges the now-unreachable old-version entries.

Every cache event is counted once, in the cache's metrics registry
(``serve.cache.hit`` / ``miss`` / ``invalidate`` / ``evict``, labeled by
algorithm) — the service's, ``BCService.metrics``.  ``stats()`` and the
``cache`` report read it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import Metrics

__all__ = ["ScoreCache", "cache_key"]


def cache_key(graph_version: int, algorithm: str, params: dict) -> tuple:
    """Canonical cache key: version + algorithm + sorted params items."""
    return (int(graph_version), str(algorithm), tuple(sorted(params.items())))


class ScoreCache:
    """A bounded LRU map from :func:`cache_key` tuples to score payloads.

    Thread-safe: HTTP handler threads consult it on the submit fast path
    while the dispatcher thread populates it after each sweep.
    """

    def __init__(self, capacity: int = 4096, *, metrics: Metrics) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.metrics = metrics
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple):
        """The cached payload for ``key``, or None; counts a hit or miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        event = "serve.cache.miss" if value is None else "serve.cache.hit"
        self.metrics.count(event, algorithm=key[1])
        return value

    def peek(self, key: tuple):
        """Like :meth:`get` but counts nothing (re-checks inside a batch)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, value) -> None:
        if value is None:
            raise ValueError("cache payloads must not be None")
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                old, _ = self._entries.popitem(last=False)
                self.metrics.count("serve.cache.evict", algorithm=old[1])

    def invalidate(self, *, before_version: int | None = None) -> int:
        """Drop entries older than ``before_version`` (all when None).

        Returns the number of entries dropped and counts each as a
        ``serve.cache.invalidate`` event.
        """
        dropped: list[tuple] = []
        with self._lock:
            for key in list(self._entries):
                if before_version is None or key[0] < before_version:
                    del self._entries[key]
                    dropped.append(key)
        for key in dropped:
            self.metrics.count("serve.cache.invalidate", algorithm=key[1])
        return len(dropped)

    def stats(self) -> dict:
        """Entries, capacity and the event totals summed over algorithms."""
        hits, misses, invalidated, evicted = (
            int(self.metrics.total(f"serve.cache.{event}"))
            for event in ("hit", "miss", "invalidate", "evict")
        )
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "invalidated": invalidated,
            "evicted": evicted,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
