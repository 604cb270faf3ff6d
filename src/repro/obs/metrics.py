"""Labeled counter series.

A :class:`Metrics` registry keeps one counter *series* per ``(name,
labels)`` pair, e.g. ``kernel.dispatch{kernel="multpath", outcome="hit",
phase="bellman-ford"}``.  Labels are free-form keyword arguments; a
series' identity is the sorted tuple of its label items, so label order
at the call site never matters.

Aggregation across labels uses :meth:`Metrics.total` (sum of the series
matching a label subset) and :meth:`Metrics.series` (all series of one
name).  One lock guards every read and write, so threads may share a
registry (every ``Machine`` holds one, ``machine.metrics``, and a
service's client threads, dispatcher and watchdog all count into it as
``BCService.metrics``).  Like the tracer, this module is stdlib-only.
"""

from __future__ import annotations

import threading

__all__ = ["Metrics"]

LabelKey = tuple  # tuple of sorted (key, value) pairs


def _key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Metrics:
    """A registry of labeled counter series."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        k = _key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[k] = series.get(k, 0.0) + float(value)

    def get_count(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(_key(labels), 0.0)

    def series(self, name: str) -> dict[LabelKey, float]:
        """Every series registered under ``name``: label key -> count."""
        with self._lock:
            return dict(self._counters.get(name, {}))

    def total(self, name: str, **labels) -> float:
        """Sum of the series under ``name`` whose labels contain every
        given ``key=value`` pair — label aggregation.

        ``total("kernel.dispatch")`` sums every product;
        ``total("kernel.dispatch", outcome="hit")`` selects one outcome.
        """
        want = set(labels.items())
        with self._lock:
            return sum(
                v
                for k, v in self._counters.get(name, {}).items()
                if want.issubset(set(k))
            )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._counters)

    def snapshot(self) -> list[dict]:
        """Flat rows for reports / JSONL export."""
        with self._lock:
            return [
                {"metric": name, "type": "counter", "labels": dict(k), "value": v}
                for name in sorted(self._counters)
                for k, v in sorted(self._counters[name].items(), key=lambda kv: repr(kv[0]))
            ]
