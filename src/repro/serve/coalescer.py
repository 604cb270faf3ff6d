"""Query objects and the MFBC batch coalescer.

The coalescer is the serving layer's throughput lever: compatible
source-vertex queries — same algorithm, same non-source parameters — are
drained into one shared frontier sweep, so ``k`` concurrent single-source
BC queries cost one ``k``-wide MFBF+MFBr pass instead of ``k`` passes
(§5.3's batching economics applied to a query mix instead of a fixed
source schedule).

Compatibility deliberately excludes the graph version: a query is always
answered against the version current when its batch executes (the service
holds the execution lock across mutations), and its cache key is stamped
then.  Two queries can therefore only land in one batch when they will be
computed on the same graph.

The pending deque is the service's one record of its queue: only the
admission controller fills it, and it reads :meth:`Coalescer.depth`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Query", "QueryState", "Coalescer"]

_IDS = itertools.count(1)


class QueryState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EXPIRED = "expired"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            QueryState.DONE,
            QueryState.FAILED,
            QueryState.EXPIRED,
            QueryState.CANCELLED,
        )


@dataclass
class Query:
    """One in-flight request against the service."""

    algorithm: str
    params: dict
    deadline: float | None = None  # modeled-seconds budget, per execution
    id: str = field(default_factory=lambda: f"q{next(_IDS)}")
    state: QueryState = QueryState.QUEUED
    result: object = None
    error: str | None = None
    cache_hit: bool = False
    graph_version: int | None = None  # version the answer was computed at
    attempts: int = 0
    batch_size: int = 0  # width of the sweep that answered it
    #: a-priori modeled-seconds cost, summed into the queue's modeled seconds
    cost_estimate: float = 0.0
    #: True when answered in brownout (downgraded algorithm or stale cache)
    degraded: bool = False
    #: the algorithm the client asked for, when brownout rewrote it
    requested_algorithm: str | None = None
    #: graph version a stale brownout answer was computed at, if any
    stale_version: int | None = None
    #: rate-limit principal (HTTP X-Client-Id / remote address)
    client: str | None = None
    submitted_wall: float = field(default_factory=time.perf_counter)
    queue_seconds: float = 0.0
    compute_seconds: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def coalesce_key(self) -> tuple:
        """Batch-compatibility key: algorithm + params minus the source."""
        return (
            self.algorithm,
            tuple(sorted((k, v) for k, v in self.params.items() if k != "source")),
        )

    def finish(
        self,
        state: QueryState,
        *,
        result=None,
        error: str | None = None,
    ) -> None:
        self.result = result
        self.error = error
        self.state = state
        self.done.set()


class Coalescer:
    """A FIFO of queued queries that hands out compatible batches.

    ``take`` blocks until at least one query is pending (or the coalescer
    closes), optionally lingers ``window`` wall-seconds so concurrent
    submitters can pile into the same sweep, then returns the oldest query
    plus every compatible queued query after it, up to ``max_batch``.
    Cancelled queries are dropped on the floor during draining.
    """

    def __init__(self, *, max_batch: int = 64, window: float = 0.0) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.max_batch = int(max_batch)
        self.window = float(window)
        self._pending: deque[Query] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)

    def depth(self) -> tuple[int, float]:
        """Queued queries and their summed ``cost_estimate``, at one instant."""
        with self._cond:
            return self._depth_locked()

    def _depth_locked(self) -> tuple[int, float]:
        return len(self._pending), sum((q.cost_estimate for q in self._pending), 0.0)

    def put(self, query: Query) -> tuple[int, float]:
        """Queue ``query`` last; returns the :meth:`depth` after."""
        with self._cond:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            self._pending.append(query)
            self._cond.notify_all()
            return self._depth_locked()

    def putback(self, queries: list[Query]) -> tuple[int, float]:
        """Requeue survivors (deadline, retry) first; returns the :meth:`depth` after."""
        with self._cond:
            for q in reversed(queries):
                q.state = QueryState.QUEUED
                self._pending.appendleft(q)
            self._cond.notify_all()
            return self._depth_locked()

    def remove(self, query: Query) -> bool:
        """Withdraw a queued query (the cancel path)."""
        with self._cond:
            try:
                self._pending.remove(query)
                return True
            except ValueError:
                return False

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[Query]:
        """Atomically empty the queue (the drain-timeout abandonment path)."""
        with self._cond:
            out = list(self._pending)
            self._pending.clear()
            return out

    def take(self, timeout: float | None = None) -> list[Query] | None:
        """The next compatible batch, or None on timeout / closed-and-empty."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
        if self.window > 0:
            # linger so concurrent submitters can join this sweep
            linger_until = time.perf_counter() + self.window
            with self._cond:
                while len(self._pending) < self.max_batch:
                    remaining = linger_until - time.perf_counter()
                    if remaining <= 0 or self._closed:
                        break
                    self._cond.wait(remaining)
        with self._cond:
            batch: list[Query] = []
            key = None
            kept: deque[Query] = deque()
            while self._pending:
                q = self._pending.popleft()
                if q.state is QueryState.CANCELLED:
                    continue
                if key is None:
                    key = q.coalesce_key
                if q.coalesce_key == key and len(batch) < self.max_batch:
                    batch.append(q)
                else:
                    kept.append(q)
            kept.extend(self._pending)
            self._pending = kept
            return batch or None
