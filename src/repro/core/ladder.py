"""The recovery ladder: which failure gets which relief, in what order.

A batch is the paper's unit of both storage and restart (§5.3 picks
``n_b = c·m/n`` to fill memory), so every driver — ``mfbc``,
``mfbc_per_source``, ``adaptive_bc`` and the serving layer's fault path —
answers a failed batch the same way: walk :data:`RUNGS` top to bottom,
apply the first rung that gives relief, and re-attempt.  The table *is* the
policy; ``docs/robustness.md`` ("The recovery ladder") renders it row for
row with what each rung costs and why it is exact.

Only ``retry`` burns retry budget.  Memory pressure is relieved before
the ladder sees it: the allocation that would overflow evicts the
pressured rank's cold blocks to the spill store
(:meth:`~repro.memory.MemoryManager.relieve`), so a
:class:`~repro.machine.MemoryLimitExceeded` that reaches the ladder means
that rank has nothing spillable left.  The one memory rung then narrows
the sweep — the ``n·n_b/p`` working set is the only term a re-attempt can
shrink (§5.3) — bit-identically, because per-source rows never interact
and scores accumulate strictly left to right.  It halves the width and
records it beside the graph's pinned adjacency, where every attempt on
that engine and graph starts, so it fires at most ``⌈log₂ W⌉`` times per
pin for sweeps at most ``W`` wide (a sequential engine never shrinks).
Each elastic recovery strictly shrinks ``p``, so storms terminate on their
own; ``deadline`` is terminal because retrying cannot un-spend modeled
time.  A failure no rung relieves is noted ``abandoned`` and re-raised by
the caller.
"""

from __future__ import annotations

import numpy as np

from repro.elastic import RecoveryError
from repro.faults.plan import DeadlineExceeded, FaultError, RankFailure, note
from repro.machine.machine import MemoryLimitExceeded

__all__ = ["RecoveryLadder", "RUNGS"]

#: ``(rung name, exception class it answers)`` in the order ``advance``
#: tries them; rung ``name`` is implemented by ``RecoveryLadder._<name>``.
RUNGS = (
    ("deadline", DeadlineExceeded),
    ("shrink_batch", MemoryLimitExceeded),
    ("elastic", RankFailure),
    ("retry", FaultError),
)


class RecoveryLadder:
    """One driver's ladder state (see the module docstring for the policy).

    ``graph`` is the graph swept, whose recorded sweep width caps every
    attempt; ``site`` tags every note with the calling driver
    (``mfbc`` / ``adaptive_bc`` / ``serve``); ``retries`` is the drivers'
    keyword of the same name, and ``retry_backoff`` the base of the
    modeled backoff (the drivers' 0.05 s; the service requeues with none).
    ``attempt`` is the retries the current batch has burned and
    ``rungs_taken`` its rungs — ``run`` resets both per batch; a caller that
    re-attempts across calls (the service's requeue) sets ``attempt``
    before asking ``advance``.
    """

    def __init__(
        self,
        engine,
        graph,
        *,
        site: str = "mfbc",
        retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be non-negative, got {retry_backoff}"
            )
        self.engine = engine
        self.graph = graph
        self.machine = getattr(engine, "machine", None)
        self.site = site
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.attempt = 0
        self.rungs_taken: list[str] = []
        self._jitter = None  # (rng, previous backoff), built on first retry

    def run(self, attempt, *, index: int | None = None, width: int = 1):
        """Call ``attempt(retries_burned, width)`` until it returns.

        Every attempt runs at ``width`` capped by the graph's recorded width.
        ``index`` is the batch index (notes, jitter key); the default marks
        a sweep that is no batch of its own — ``mfbc_per_source`` inside
        the serving layer's batch — where only ``shrink_batch`` applies and
        a fault stays the caller's.  The next attempt starts only after the
        ``except`` block has exited: the failed attempt's traceback, its
        frames and the ``DistMat`` blocks they charged are released before
        anything new is allocated.
        """
        self.attempt = 0
        self.rungs_taken = []
        self._jitter = None
        sweep_width = getattr(self.engine, "sweep_width", lambda _graph, w: w)
        while True:
            capped = sweep_width(self.graph, width)
            try:
                return attempt(self.attempt, capped)
            except (FaultError, MemoryLimitExceeded) as exc:
                if self.advance(exc, index=index, width=capped) is None:
                    raise

    def advance(self, exc, *, index: int | None, width: int) -> str | None:
        """Apply the first rung that relieves ``exc``; return its name.

        ``None`` means give up (the caller re-raises).  A rung method
        returns True (relieved: re-attempt), False (nothing to give: try the
        next rung) or None (terminal).
        """
        if index is None and isinstance(exc, FaultError):
            return None
        for name, answers in RUNGS:
            if not isinstance(exc, answers):
                continue
            relieved = getattr(self, "_" + name)(exc, index, width)
            if relieved:
                self.rungs_taken.append(name)
                return name
            if relieved is None:
                break
        if isinstance(exc, MemoryLimitExceeded):
            self._emit(
                "mem",
                "abandoned",
                rungs=",".join(self.rungs_taken) or "none",
                error=str(exc),
            )
        else:
            self._emit(
                "batch",
                "abandoned",
                index=index,
                attempts=self.attempt + 1,
                error=type(exc).__name__,
            )
        return None

    # -- the rungs, in table order ---------------------------------------------

    def _deadline(self, exc, index, width):
        return None

    def _shrink_batch(self, exc, index, width):
        narrow = getattr(self.engine, "narrow_sweeps", None)
        if width <= 1 or narrow is None or not narrow(self.graph, width // 2):
            return False
        self._emit(
            "mem", "degraded", rung="shrink_batch", batch_size=width // 2, was=width
        )
        return True

    def _elastic(self, exc, index, width):
        engine = self.engine
        if (
            getattr(self.machine, "elastic", None) is None
            or not hasattr(engine, "recover_from")
        ):
            return False
        try:
            report = engine.recover_from(exc)
        except RecoveryError as err:
            self._emit(
                "crash", "degraded", rank=getattr(exc, "rank", None), reason=str(err)
            )
            return False
        # re-execute only this batch on the survivors
        self._emit(
            "batch", "recovered", index=index, mode="elastic", p=report.p_after
        )
        return True

    def _retry(self, exc, index, width):
        if self.attempt >= self.retries:
            return False
        self.attempt += 1
        recover = getattr(self.engine, "recover", None)
        if recover is not None:
            recover()
        # decorrelated jitter: draw from [base, 3·prev], capped at
        # base·2^(retries-1), the RNG keyed on the batch index
        base = self.retry_backoff
        rng, prev = self._jitter or (np.random.default_rng([0, index]), base)
        cap = base * (2.0 ** max(self.retries - 1, 0))
        backoff = min(cap, float(rng.uniform(base, prev * 3.0)))
        self._jitter = (rng, backoff)
        if self.machine is not None and backoff > 0:
            self.machine.charge_overhead(backoff)
        self._emit(
            "batch",
            "recovered",
            index=index,
            attempt=self.attempt,
            backoff_s=backoff,
            error=type(exc).__name__,
        )
        return True

    def _emit(self, kind: str, action: str, **detail) -> None:
        note(self.machine, kind, action, site=self.site, **detail)
