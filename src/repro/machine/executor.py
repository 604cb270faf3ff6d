"""Pluggable local-execution backends for the simulated machine.

The simulated machine models ``p`` ranks, but the process hosting the
simulation is a single Python interpreter: historically every rank's local
kernel ran serially, so modeled time scaled with ``p`` while wall-clock
time did not.  On the real machines the paper ran on, the ``p`` local
SpGEMMs between two collectives execute *concurrently* — that concurrency
is exactly what this module recovers on the host: the independent per-rank
local products inside the §5.2 variant executors, the per-block elementwise
operations of :class:`~repro.dist.distmat.DistMat`, and redistribution
block packing all fan out across host cores.

Two backends implement one surface (:class:`LocalExecutor`):

* :class:`SerialExecutor` — runs every task inline (the default; zero
  overhead, reference semantics);
* :class:`ThreadExecutor` — a lazily created thread pool.  The sparse
  kernels are dominated by large-array NumPy primitives (``argsort``,
  ``searchsorted``, ``reduceat``, fancy indexing) that release the GIL, so
  threads overlap on multi-core hosts while still sharing operands
  zero-copy.

Two guarantees hold for every backend:

* **Determinism** — results are collected in submission order and merged
  on the simulation thread, and ledger charges are issued on the
  simulation thread in serial iteration order, so gathered matrices and
  ``ledger.snapshot()`` are bit-identical to serial execution.
* **Cost-aware dispatch** — a batch fans out only when its estimated work
  (elementary products via :func:`~repro.sparse.spgemm.count_ops`, or
  nonzeros touched for packing/elementwise tasks) amortizes the executor's
  per-batch overhead; otherwise it runs inline on the simulation thread.

Selection is the ``executor`` knob (:mod:`repro.config`):
``Machine(p=64, executor="thread")``, the CLI's ``--executor``, or the
environment — ``serial`` | ``thread[:N]``.

**Graceful degradation** — worker pools die on real machines (OOM killer,
container limits, a segfaulting extension).  When a fanned-out batch hits
a pool failure (:class:`concurrent.futures.BrokenExecutor` or an injected
:class:`~repro.faults.WorkerPoolDied`), the executor closes the broken
pool, builds its fallback backend (thread → serial), transfers any
attached fault plan, records a ``pool/degraded`` event, and re-runs the
batch there — callers see the same bit-identical results, one backend
slower.  All pool-owning executors register for interpreter-exit cleanup
so a crashed run cannot leak worker threads.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Callable, Sequence

from repro import config
from repro.faults.plan import WorkerPoolDied
from repro.obs import api as obs
from repro.sparse.spgemm import SpGemmResult, count_ops, spgemm
from repro.sparse.spmatrix import SpMat

__all__ = [
    "POOL_FAILURES",
    "LocalExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "available_backends",
    "resolve_executor",
    "executor_skew_report",
]

#: exception classes treated as "the worker pool died" → degrade and re-run.
#: ``BrokenExecutor`` covers ``BrokenThreadPool``.
POOL_FAILURES = (BrokenExecutor, WorkerPoolDied)

#: live pool-owning executors, closed at interpreter exit so a crashed or
#: abandoned run cannot leak worker threads.
_LIVE_EXECUTORS: "weakref.WeakSet[LocalExecutor]" = weakref.WeakSet()


@atexit.register
def _close_live_executors() -> None:  # pragma: no cover - exit path
    for ex in list(_LIVE_EXECUTORS):
        try:
            ex.close()
        except Exception:
            pass

#: estimated-work floor (work units ≈ elementary kernel ops) below which a
#: batch runs inline.  Thread dispatch costs ~100 µs per batch; at the
#: default ``compute_rate`` of 1e9 ops/s the floor corresponds to ~0.2 ms
#: of modeled local work.
THREAD_FANOUT_MIN_WORK = 200_000


def _worker_default() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


class LocalExecutor:
    """Common surface of the local execution backends.

    Subclasses override :meth:`_submit_thunks` (arbitrary callables; used
    by elementwise and packing fan-out) and :meth:`_submit_spgemm` (local
    generalized products).  Batch entry points :meth:`run_tasks` /
    :meth:`run_spgemm` apply the dispatch gate, record observability
    events, and preserve submission order.
    """

    #: backend identifier (``serial`` / ``thread``)
    name = "serial"
    #: worker slots the backend can occupy concurrently
    workers = 1
    #: estimated-work floor for fan-out; ``inf`` means never fan out
    fanout_min_work: float = float("inf")
    #: backends to fall back to, in order, when the worker pool dies
    fallback_chain: tuple[str, ...] = ()
    #: fault plan consulted before each fanned-out batch (set by Machine)
    fault_plan = None
    #: kernel-dispatch mode forwarded to every local product (set by Machine)
    kernel_mode: str | None = None
    #: replacement backend after degradation; batches delegate to it
    _successor: "LocalExecutor | None" = None

    # -- dispatch gate -------------------------------------------------------

    def should_fanout(self, n_tasks: int, est_work: float) -> bool:
        """True when a batch's estimated work amortizes dispatch overhead."""
        return (
            self.workers > 1 and n_tasks > 1 and est_work >= self.fanout_min_work
        )

    # -- batch entry points --------------------------------------------------

    def run_tasks(
        self,
        thunks: Sequence[Callable[[], object]],
        *,
        site: str,
        est_work: float,
        ranks: Sequence[int] | None = None,
    ) -> list:
        """Run zero-argument callables; results in submission order.

        Falls back to inline execution when the gate rejects the batch.  A
        pool failure mid-batch degrades to the fallback backend and
        re-runs the whole batch there.
        """
        if self._successor is not None:
            return self._successor.run_tasks(
                thunks, site=site, est_work=est_work, ranks=ranks
            )
        if not self.should_fanout(len(thunks), est_work):
            self._note_inline(site, len(thunks))
            return [fn() for fn in thunks]
        try:
            self._maybe_inject_pool_fault(site)
            return self._fanout(
                site, ranks, lambda: self._submit_thunks(list(thunks))
            )
        except POOL_FAILURES as exc:
            fallback = self._degrade(exc, site)
            return fallback.run_tasks(
                thunks, site=site, est_work=est_work, ranks=ranks
            )

    def run_spgemm(
        self,
        pairs: Sequence[tuple[SpMat, SpMat]],
        spec,
        *,
        masks: Sequence[SpMat | None] | None = None,
        mask_complement: bool = False,
        site: str = "spgemm",
        ranks: Sequence[int] | None = None,
    ) -> list[SpGemmResult]:
        """Run a batch of independent local products ``C_t = A_t • B_t``.

        ``masks`` (aligned with ``pairs``; ``None`` entries unmasked) are
        per-task structural output masks, all sharing ``mask_complement``.
        The work estimate is the unmasked elementary-product count
        (:func:`count_ops`) — an upper bound under a mask, computed only
        when fan-out is possible at all.  A pool failure mid-batch degrades
        to the fallback backend and re-runs the whole batch there.
        """
        if masks is None:
            masks = [None] * len(pairs)
        if self._successor is not None:
            return self._successor.run_spgemm(
                pairs,
                spec,
                masks=masks,
                mask_complement=mask_complement,
                site=site,
                ranks=ranks,
            )
        if self.workers > 1 and len(pairs) > 1:
            est_work = float(sum(count_ops(x, y) for x, y in pairs))
            if self.should_fanout(len(pairs), est_work):
                try:
                    self._maybe_inject_pool_fault(site)
                    return self._fanout(
                        site,
                        ranks,
                        lambda: self._submit_spgemm(
                            list(pairs), spec, list(masks), mask_complement
                        ),
                    )
                except POOL_FAILURES as exc:
                    fallback = self._degrade(exc, site)
                    return fallback.run_spgemm(
                        pairs,
                        spec,
                        masks=masks,
                        mask_complement=mask_complement,
                        site=site,
                        ranks=ranks,
                    )
        self._note_inline(site, len(pairs))
        return [
            spgemm(
                x,
                y,
                spec,
                mask=mk,
                mask_complement=mask_complement,
                kernel=self.kernel_mode,
            )
            for (x, y), mk in zip(pairs, masks)
        ]

    # -- fault injection + graceful degradation ------------------------------

    def _maybe_inject_pool_fault(self, site: str) -> None:
        """Consult the fault plan just before a fanned-out batch dispatches."""
        plan = self.fault_plan
        if plan is None or not plan.take_poolkill(site):
            return
        plan.note("pool", "injected", site=site, backend=self.name)
        raise WorkerPoolDied(self.name, site)

    def _degrade(self, exc: BaseException, site: str) -> "LocalExecutor":
        """Swap in the fallback backend after a pool failure.

        The broken pool is closed, the fallback inherits this executor's
        worker count, fan-out floor, and fault plan, and becomes the
        :attr:`_successor` every later batch delegates to.  Re-raises when
        the chain is exhausted (serial has no fallback — but serial also
        never fans out, so it cannot get here).
        """
        try:
            self.close()
        except Exception:  # a broken pool may fail its own shutdown
            pass
        if not self.fallback_chain:
            raise exc
        name = self.fallback_chain[0]
        fallback = _BACKENDS[name](
            self.workers, fanout_min_work=self.fanout_min_work
        )
        fallback.fault_plan = self.fault_plan
        fallback.kernel_mode = self.kernel_mode
        self._successor = fallback
        if self.fault_plan is not None:
            self.fault_plan.note(
                "pool",
                "degraded",
                site=site,
                backend=self.name,
                fallback=name,
                error=type(exc).__name__,
            )
        elif obs.enabled():
            obs.count(
                "faults.degraded", 1.0, kind="pool", backend=self.name, fallback=name
            )
        return fallback

    def close(self) -> None:
        """Release pool resources (idempotent; closes any successor too)."""
        if self._successor is not None:
            self._successor.close()

    def __enter__(self) -> "LocalExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"

    # -- backend hooks -------------------------------------------------------

    def _submit_thunks(self, thunks: list) -> list[tuple[object, float]]:
        """Run callables concurrently → ``[(result, wall_seconds), ...]``."""
        raise NotImplementedError

    def _submit_spgemm(
        self, pairs: list, spec, masks: list, mask_complement: bool
    ) -> list[tuple[object, float]]:
        """Run products concurrently → ``[(SpGemmResult, wall_seconds), ...]``."""
        raise NotImplementedError

    # -- shared bookkeeping --------------------------------------------------

    def _note_inline(self, site: str, n_tasks: int) -> None:
        if obs.enabled():
            obs.count("executor.batches", 1.0, backend=self.name, site=site, mode="inline")
            obs.count("executor.tasks", float(n_tasks), backend=self.name, site=site, mode="inline")

    def _fanout(self, site, ranks, submit) -> list:
        """Dispatch one batch, record per-rank wall times and utilization."""
        t0 = time.perf_counter()
        timed = submit()  # [(result, task_wall_seconds), ...] in order
        elapsed = time.perf_counter() - t0
        if obs.enabled():
            busy = 0.0
            for idx, (_, dt) in enumerate(timed):
                busy += dt
                rank = int(ranks[idx]) if ranks is not None else idx
                obs.observe(
                    "executor.rank_wall_seconds", dt, rank=rank, backend=self.name
                )
            obs.count("executor.batches", 1.0, backend=self.name, site=site, mode="fanout")
            obs.count("executor.tasks", float(len(timed)), backend=self.name, site=site, mode="fanout")
            if elapsed > 0:
                obs.gauge(
                    "executor.utilization",
                    busy / (elapsed * self.workers),
                    backend=self.name,
                    site=site,
                )
            obs.complete(
                f"executor.{site}",
                cat="executor",
                wall_dur=elapsed,
                args={"backend": self.name, "tasks": len(timed), "busy_seconds": busy},
            )
        return [result for result, _ in timed]


class SerialExecutor(LocalExecutor):
    """Run every task inline on the simulation thread (reference backend)."""

    name = "serial"
    workers = 1

    def __init__(self, workers: int | None = None, *, fanout_min_work=None) -> None:
        # accepted (and ignored) so every backend shares a constructor shape
        del workers, fanout_min_work


def _timed_call(fn) -> tuple[object, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _timed_spgemm(
    x: SpMat,
    y: SpMat,
    spec,
    mask: SpMat | None = None,
    mask_complement: bool = False,
    kernel: str | None = None,
) -> tuple[SpGemmResult, float]:
    t0 = time.perf_counter()
    out = spgemm(x, y, spec, mask=mask, mask_complement=mask_complement, kernel=kernel)
    return out, time.perf_counter() - t0


class ThreadExecutor(LocalExecutor):
    """Fan tasks across a host-local thread pool (lazily created)."""

    name = "thread"
    fallback_chain = ("serial",)

    def __init__(
        self, workers: int | None = None, *, fanout_min_work: float | None = None
    ) -> None:
        self.workers = int(workers) if workers else _worker_default()
        self.fanout_min_work = (
            THREAD_FANOUT_MIN_WORK if fanout_min_work is None else float(fanout_min_work)
        )
        self._pool: ThreadPoolExecutor | None = None
        _LIVE_EXECUTORS.add(self)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def _submit_thunks(self, thunks: list) -> list[tuple[object, float]]:
        pool = self._ensure_pool()
        futures = [pool.submit(_timed_call, fn) for fn in thunks]
        return [f.result() for f in futures]

    def _submit_spgemm(
        self, pairs: list, spec, masks: list, mask_complement: bool
    ) -> list[tuple[object, float]]:
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                _timed_spgemm, x, y, spec, mk, mask_complement, self.kernel_mode
            )
            for (x, y), mk in zip(pairs, masks)
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        super().close()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type[LocalExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
}


def available_backends() -> tuple[str, ...]:
    """Backend names accepted by :func:`resolve_executor`."""
    return tuple(_BACKENDS)


def resolve_executor(spec: "str | LocalExecutor | None" = None) -> LocalExecutor:
    """Turn an executor specification into a backend instance.

    ``spec`` may be an executor instance (returned as-is), a string
    ``"name"`` or ``"name:workers"`` (e.g. ``"thread:8"``), or ``None`` for
    the ambient ``executor`` knob (:mod:`repro.config`).
    """
    if isinstance(spec, LocalExecutor):
        return spec
    return config.ambient("executor", spec, _parse_executor)


def _parse_executor(spec: str) -> LocalExecutor:
    if not isinstance(spec, str):
        raise TypeError(
            f"executor must be a backend name or LocalExecutor, got {spec!r}"
        )
    name, _, workers_str = spec.partition(":")
    name = name.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(_BACKENDS)}"
        )
    workers = None
    if workers_str:
        workers = int(workers_str)
        if workers <= 0:
            raise ValueError(f"executor workers must be positive, got {workers}")
    return _BACKENDS[name](workers)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def executor_skew_report(metrics, machine) -> str:
    """Per-rank real-vs-modeled skew table from captured metrics.

    For every simulated rank with fanned-out work, compares the wall-clock
    seconds its tasks actually took (the ``executor.rank_wall_seconds``
    histogram) against the ledger's modeled local-compute seconds.  The
    skew column is wall / modeled: uniform skew means the α-β model and the
    host kernel disagree only by a constant; non-uniform skew exposes ranks
    whose local work the model mis-prices.
    """
    from repro.analysis.report import format_table  # lazy: imports this package

    series = metrics.series("executor.rank_wall_seconds")
    if not series:
        return "executor: no fanned-out batches recorded"
    per_rank: dict[int, tuple[float, int]] = {}
    for labels, hist in series.items():
        rank = int(dict(labels).get("rank", -1))
        total, count = per_rank.get(rank, (0.0, 0))
        per_rank[rank] = (total + hist.total, count + hist.count)
    rate = machine.cost.compute_rate
    rows = []
    for rank in sorted(per_rank):
        wall, count = per_rank[rank]
        modeled = (
            float(machine.ledger.compute_per_rank[rank]) / rate
            if 0 <= rank < machine.p
            else 0.0
        )
        skew = f"{wall / modeled:.2f}" if modeled > 0 else "-"
        rows.append([rank, count, f"{wall * 1e3:.3f}", f"{modeled * 1e3:.3f}", skew])
    return "executor per-rank wall vs modeled compute:\n" + format_table(
        ["rank", "tasks", "wall ms", "modeled ms", "skew"], rows
    )
