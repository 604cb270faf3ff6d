"""Labeled metric series: counters, gauges, and histograms.

A :class:`Metrics` registry keeps one *series* per ``(name, labels)`` pair,
e.g. ``spgemm.products{variant="3D-B,AC(4x2x2)", phase="bellman-ford"}``.
Labels are free-form keyword arguments; a series' identity is the sorted
tuple of its label items, so label order at the call site never matters.

* **counters** accumulate (``count``) — traffic volumes, product counts;
* **gauges** overwrite (``gauge``) — last-seen values like load imbalance;
* **histograms** summarize observations (``observe``) — wall times from
  the :func:`~repro.obs.api.timed` benchmark helper.

Aggregation across labels uses :meth:`Metrics.total` (sum of counter
series matching a label subset) and :meth:`Metrics.series` (all series of
one name).  One lock guards every read and write, so threads may share a
registry (a service's client threads, dispatcher and watchdog all count
into ``BCService.metrics``).  Like the tracer, this module is stdlib-only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

__all__ = ["Histogram", "Metrics"]

LabelKey = tuple  # tuple of sorted (key, value) pairs


@dataclass
class Histogram:
    """Summary statistics of a stream of observations."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


class Metrics:
    """A registry of labeled counter / gauge / histogram series."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._gauges: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}
        self._lock = threading.Lock()

    # -- writes ---------------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        k = _key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[k] = series.get(k, 0.0) + float(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        k = _key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[k] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        k = _key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            hist = series.get(k)
            if hist is None:
                hist = series[k] = Histogram()
            hist.observe(value)

    # -- reads ----------------------------------------------------------------

    def get_count(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(_key(labels), 0.0)

    def get_gauge(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get(name, {}).get(_key(labels))

    def get_histogram(self, name: str, **labels) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name, {}).get(_key(labels))

    def series(self, name: str) -> dict[LabelKey, object]:
        """All series registered under ``name`` (any metric type)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                if name in table:
                    return dict(table[name])
        return {}

    def total(self, name: str, **labels) -> float:
        """Sum of the counter series under ``name`` whose labels contain
        every given ``key=value`` pair — label aggregation.

        ``total("machine.words")`` sums every category;
        ``total("machine.words", category="bcast")`` selects one.
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
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> list[dict]:
        """Flat rows for reports / JSONL export."""
        with self._lock:
            rows: list[dict] = []
            for name in sorted(self._counters):
                for k, v in sorted(self._counters[name].items(), key=lambda kv: repr(kv[0])):
                    rows.append(
                        {"metric": name, "type": "counter", "labels": dict(k), "value": v}
                    )
            for name in sorted(self._gauges):
                for k, v in sorted(self._gauges[name].items(), key=lambda kv: repr(kv[0])):
                    rows.append(
                        {"metric": name, "type": "gauge", "labels": dict(k), "value": v}
                    )
            for name in sorted(self._histograms):
                for k, h in sorted(self._histograms[name].items(), key=lambda kv: repr(kv[0])):
                    rows.append(
                        {
                            "metric": name,
                            "type": "histogram",
                            "labels": dict(k),
                            "count": h.count,
                            "total": h.total,
                            "min": h.min if h.count else None,
                            "max": h.max if h.count else None,
                            "mean": h.mean,
                        }
                    )
            return rows
