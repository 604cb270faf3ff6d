"""The simulated machine: ranks, the α-β cost model, and the cost ledger.

Cost model (§5.1 of the paper): sending a message of ``x`` words costs
``α + β·x``; a collective (scatter, gather, broadcast, reduction,
allreduction) over ``q`` processors where each processor owns at most ``x``
words costs ``O(β·x + α·log q)``.  The concrete constants follow the
paper's §7.4 profiling methodology: broadcast and reduce of ``x`` words over
``q`` processors cost ``2x·β + 2⌈log₂ q⌉·α`` — twice scatter/allgather.

Critical-path accounting also follows §7.4: every rank carries running
critical-path totals (modeled time, words, messages); a collective first
max-merges each total over its participants, then adds its own cost to all
of them.  At the end of a run, the maximum over ranks is "the greatest
amount of data communicated along any dependent sequence of collectives".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import config
from repro.elastic import resolve_elastic
from repro.faults.plan import DeadlineExceeded, FaultPlan, note, resolve_fault_plan
from repro.machine.collectives import TREE, Group
from repro.machine.executor import LocalExecutor
from repro.machine.grid import log2ceil, survivor_map
from repro.obs import api as obs
from repro.obs.metrics import Metrics

__all__ = [
    "CostParams",
    "Ledger",
    "Machine",
    "MemoryLimitExceeded",
]


class MemoryLimitExceeded(RuntimeError):
    """A rank's tracked allocation exceeded the machine's memory budget."""


def _memory_words(spec) -> int:
    words = int(spec)
    if words <= 0:
        raise ValueError(f"memory_words must be positive, got {words}")
    return words


@dataclass(frozen=True)
class CostParams:
    """Machine constants.

    Defaults model a Cray-class interconnect in rough orders of magnitude:
    ~1 µs latency, ~1 ns/word effective inverse bandwidth (8 GB/s per rank),
    and 10⁹ elementary sparse-kernel operations/second per rank.  The
    absolute values only set the α/β/compute balance — the paper's claims
    are about relative costs, which these ratios (α ≫ β, per §5.1) preserve.
    """

    alpha: float = 1.0e-6  # seconds per message
    beta: float = 1.25e-9  # seconds per 8-byte word
    compute_rate: float = 1.0e9  # elementary kernel ops per second per rank
    #: modeled node-local spill I/O (the out-of-core path): per-segment
    #: setup latency and per-word transfer, ~0.8 GB/s effective — an order
    #: of magnitude slower than the interconnect, which is what makes
    #: spilling a degradation rather than a free lunch.
    spill_alpha: float = 1.0e-4  # seconds per spilled segment
    spill_beta: float = 1.0e-8  # seconds per 8-byte word spilled
    #: fixed per-generalized-matmul overhead per rank (kernel setup, sparse
    #: format conversion, mapping decisions — §6.2's redistribution/setup
    #: machinery).  This is what makes high-diameter graphs (many small
    #: products) slower per edge even at low processor counts, as the paper
    #: observes for the patent citation graph (§7.2).
    product_overhead: float = 5.0e-5

    def __post_init__(self) -> None:
        if self.alpha < self.beta:
            raise ValueError(
                f"cost model requires alpha >= beta (§5.1), got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


@dataclass
class Ledger:
    """Per-rank running totals and critical-path accumulators."""

    p: int
    # critical-path accumulators (max-merged at collectives)
    time: np.ndarray = field(default=None)  # modeled seconds, comm + compute
    comm_time: np.ndarray = field(default=None)  # modeled seconds, comm only
    words: np.ndarray = field(default=None)  # words along dependent chains
    msgs: np.ndarray = field(default=None)  # messages along dependent chains
    # flat totals (not path-maxed): useful for traffic volume reports
    total_words: float = 0.0
    total_msgs: float = 0.0
    compute_ops: float = 0.0
    #: traffic volume per operation category ("bcast", "reduce",
    #: "redistribute", "input", ...) — answers "where do the words go?"
    category_words: dict = None

    #: per-rank elementary-operation totals (set in __post_init__)
    compute_per_rank: np.ndarray = None

    def __post_init__(self) -> None:
        self.time = np.zeros(self.p)
        self.comm_time = np.zeros(self.p)
        self.words = np.zeros(self.p)
        self.msgs = np.zeros(self.p)
        self.category_words = {}
        self.compute_per_rank = np.zeros(self.p)

    # -- critical-path reads ------------------------------------------------

    def critical_time(self) -> float:
        """Modeled end-to-end execution time (max over ranks)."""
        return float(self.time.max()) if self.p else 0.0

    def critical_comm_time(self) -> float:
        return float(self.comm_time.max()) if self.p else 0.0

    def critical_words(self) -> float:
        """Paper's ``W``: words along the heaviest dependent chain."""
        return float(self.words.max()) if self.p else 0.0

    def critical_msgs(self) -> float:
        """Paper's ``S``: messages along the longest dependent chain."""
        return float(self.msgs.max()) if self.p else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "time": self.critical_time(),
            "comm_time": self.critical_comm_time(),
            "words": self.critical_words(),
            "msgs": self.critical_msgs(),
            "total_words": self.total_words,
            "total_msgs": self.total_msgs,
            "compute_ops": self.compute_ops,
        }

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-rank elementary operations (1.0 = perfect).

        The quantity behind §5.2's balls-into-bins load-balance assumption:
        after random vertex relabeling, oblivious blocks receive work
        proportional to their area, so this ratio stays near 1.
        """
        mean = self.compute_per_rank.mean()
        if mean <= 0:
            return 1.0
        return float(self.compute_per_rank.max() / mean)

    def traffic_breakdown(self) -> dict[str, float]:
        """Word volume per operation category, sorted descending —
        'where do the words go?' (cf. the §7.4 profiling discussion)."""
        return dict(
            sorted(self.category_words.items(), key=lambda kv: -kv[1])
        )


class Machine:
    """A simulated p-rank distributed-memory machine.

    Parameters
    ----------
    p:
        Number of ranks (the paper benchmarks powers of four, but any
        positive count works).
    cost:
        α-β model constants (keyword-only).

    The remaining keywords are the run configuration.  Every one except
    ``deadline`` is a knob of :mod:`repro.config`: ``None`` (the default)
    takes the ambient value, an off-spelling the knob's default, and the
    resolved value is stored on the attribute of the same name — the
    machine is what carries a run's configuration to engines and
    :class:`~repro.serve.BCService`.

    memory_words:
        Per-rank memory budget ``M`` in 8-byte words.  Tracked allocations
        beyond it first trigger spill-to-disk relief (:mod:`repro.memory`)
        and only then raise :class:`MemoryLimitExceeded`, modeling the
        paper's ``M = Ω(c·m/p)`` feasibility constraints.
    spill_dir:
        Directory for the spill store's evicted-block segments; unset, a
        private temporary directory is created on first eviction.
    faults:
        Deterministic fault injection: a :class:`~repro.faults.FaultPlan`
        or a spec string like ``"seed:3,crash:0.05"`` (see
        :mod:`repro.faults.plan` for the grammar).  An armed plan hooks
        the charge paths and the collectives' payload delivery; an inert
        plan (all rates zero, no script) costs the hot paths nothing.
    check:
        Correctness-checking level for engines built on this machine: a
        :class:`~repro.check.engine.CheckConfig` or a spec string
        (``"cheap"`` / ``"full"`` / ``"sample:N"``; ``"off"`` beats
        ``$REPRO_CHECK``).  The machine itself never checks anything —
        :class:`~repro.dist.DistributedEngine` wraps itself in a
        :class:`~repro.check.engine.CheckedEngine` exactly when
        ``self.check`` is set; there is no per-engine override.
    deadline:
        Optional modeled-time budget in seconds (no ambient form).  When the
        critical-path clock passes it, the next charge raises
        :class:`~repro.faults.DeadlineExceeded` — a ledger-charged, clean
        termination for straggler pile-ups and recovery storms that would
        otherwise spin forever.
    elastic:
        In-flight rank-failure recovery, ``"on"`` (or ``True``) or off.  The
        machine only stores the setting (``True`` or ``None``); the MFBC
        driver triggers the recovery, which rebuilds the engine's pinned
        adjacency from its graph on the survivors.
    """

    def __init__(
        self,
        p: int,
        *,
        cost: CostParams | None = None,
        memory_words: int | None = None,
        faults: "FaultPlan | str | None" = None,
        check=None,
        deadline: float | None = None,
        elastic=None,
        spill_dir: str | None = None,
    ) -> None:
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        self.p = int(p)
        self.cost = cost or CostParams()
        self.faults = resolve_fault_plan(faults)
        #: the hot-path guard: None unless the plan can actually fire
        self._fault_hook = (
            self.faults if self.faults is not None and self.faults.armed else None
        )
        self.memory_words = config.ambient("memory_words", memory_words, _memory_words)
        #: the one counter registry of run events (:func:`repro.faults.note`),
        #: spill traffic and a service's events, counted with or without tracing
        self.metrics = Metrics()
        # deferred imports: repro.check imports repro.dist, which imports
        # this module
        from repro.check.engine import resolve_check_config
        from repro.memory.manager import MemoryManager

        #: the spill/eviction manager (see docs/robustness.md, memory ladder)
        self.memory = MemoryManager(
            self, spill_dir=config.ambient("spill_dir", spill_dir)
        )
        #: runs the per-rank local work between two collectives
        self.executor = LocalExecutor()
        self.check = resolve_check_config(check)
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        self.elastic = resolve_elastic(elastic)
        #: machine reconfiguration counter; bumped by :meth:`shrink` so
        #: stale rank-indexed objects (groups, layouts) fail loudly.
        self.epoch = 0
        #: :class:`~repro.elastic.RecoveryReport` per completed recovery.
        self.recoveries: list = []
        self.ledger = Ledger(self.p)
        self._mem_used = np.zeros(self.p, dtype=np.int64)
        self._mem_peak = np.zeros(self.p, dtype=np.int64)

    # -- memory tracking -----------------------------------------------------

    def allocate(self, rank: int, words: int, *, site: str = "allocate") -> None:
        """Track ``words`` of new allocation on ``rank``.

        Over budget, the memory manager first tries to *relieve* the rank
        by spilling cold blocks (see :mod:`repro.memory`); only when that
        cannot free enough does :class:`MemoryLimitExceeded` raise — and
        the failed allocation is rolled back, so the peak only ever
        records allocations that actually fit (``tracked peak ≤ budget``
        whenever a budgeted run completes).
        """
        rank = int(rank)
        words = int(words)
        self._mem_used[rank] += words
        budget = self.memory_words
        if budget is not None and self._mem_used[rank] > budget:
            self.memory.relieve(
                rank, int(self._mem_used[rank] - budget), site=site
            )
            if self._mem_used[rank] > budget:
                needed = int(self._mem_used[rank])
                self._mem_used[rank] -= words  # failed allocation rolls back
                note(
                    self,
                    "mem",
                    "detected",
                    site=site,
                    rank=rank,
                    needed_words=needed,
                    budget_words=int(budget),
                )
                raise MemoryLimitExceeded(
                    f"rank {rank} needs {needed} words but the per-rank "
                    f"memory budget is {budget}"
                )
        if self._mem_used[rank] > self._mem_peak[rank]:
            self._mem_peak[rank] = self._mem_used[rank]

    def charge_allocation(
        self, charges: dict[int, int], *, site: str = "allocate"
    ) -> None:
        """Atomically track a multi-rank allocation (all ranks or none).

        Used by :class:`~repro.dist.DistMat` to charge its blocks: a raise
        partway through must not leave earlier ranks charged, or the
        driver's retry after a ladder rung would double-count them.  When
        every rank fits the budget the whole allocation is one array
        update; otherwise the ranks are allocated one by one in ``charges``
        order (relief, then raise and roll back), as :meth:`allocate` does.
        """
        ranks = np.fromiter(charges, dtype=np.int64, count=len(charges))
        words = np.fromiter(charges.values(), dtype=np.int64, count=len(charges))
        used = self._mem_used[ranks] + words
        budget = self.memory_words
        if budget is None or not (used > budget).any():
            self._mem_used[ranks] = used
            self._mem_peak[ranks] = np.maximum(self._mem_peak[ranks], used)
            return
        done: list[tuple[int, int]] = []
        try:
            for rank, words in charges.items():
                self.allocate(rank, words, site=site)
                done.append((rank, words))
        except MemoryLimitExceeded:
            for rank, words in done:
                self.free(rank, words)
            raise

    def free(self, rank, words) -> None:
        """Release ``words`` on ``rank`` — or, given arrays, ``words[i]`` on
        each of the distinct ``rank[i]`` — never below zero."""
        words = np.asarray(words, dtype=np.int64)
        self._mem_used[rank] = np.maximum(self._mem_used[rank] - words, 0)

    def memory_used(self, rank: int | None = None) -> int:
        if rank is None:
            return int(self._mem_used.max()) if self.p else 0
        return int(self._mem_used[rank])

    def memory_peak(self, rank: int | None = None) -> int:
        """High-water mark of tracked allocation (per rank or machine-wide)."""
        if rank is None:
            return int(self._mem_peak.max()) if self.p else 0
        return int(self._mem_peak[rank])

    def reset_memory(self) -> None:
        """Forget all tracked allocations *and* the per-rank peaks.

        Repeated runs on one machine must start from a clean slate: a
        stale high-water mark would misreport the new run's footprint and
        leaked usage from a crashed run would eat the budget
        (see the regression test in test_machine.py).
        """
        self._mem_used[:] = 0
        self._mem_peak[:] = 0

    # -- cost charging ---------------------------------------------------------

    def charge_collective(
        self,
        ranks: np.ndarray | list[int],
        words_per_rank: float,
        weight: float = TREE,
        category: str = "collective",
    ) -> None:
        """Charge one collective over ``ranks``.

        Called by the :class:`~repro.machine.collectives.Group` ops and by
        nothing else: they size the payload that moves and own §7.4's
        constants.  ``words_per_rank`` is the maximum words any participant
        owns at the start or end (the paper's ``x``); ``weight`` is 2 for
        broadcast/reduce-class collectives and 1 for scatter/gather-class
        ones.  ``category`` tags the traffic for the per-category volume
        breakdown.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        q = len(ranks)
        if q <= 1:
            return  # single-rank collectives are free (no communication)
        if self._fault_hook is not None:
            # may skew a straggler's clock or raise RankFailure
            self._fault_hook.on_collective(self, ranks, category)
        lg = log2ceil(q)
        t = weight * (words_per_rank * self.cost.beta + lg * self.cost.alpha)
        msgs = weight * lg
        led = self.ledger
        # §7.4: max-merge each critical-path accumulator over participants,
        # then add the collective's cost.
        start = float(led.time[ranks].max())
        led.time[ranks] = start + t
        led.comm_time[ranks] = led.comm_time[ranks].max() + t
        led.words[ranks] = led.words[ranks].max() + weight * words_per_rank
        led.msgs[ranks] = led.msgs[ranks].max() + msgs
        led.total_words += weight * words_per_rank * q
        led.total_msgs += msgs * q
        led.category_words[category] = (
            led.category_words.get(category, 0.0) + weight * words_per_rank * q
        )
        if obs.enabled():
            obs.complete(
                category,
                cat="collective",
                modeled_ts=start,
                modeled_dur=t,
                args={
                    "ranks": q,
                    "words": weight * words_per_rank,
                    "msgs": msgs,
                    "volume_words": weight * words_per_rank * q,
                },
            )
        if self.deadline is not None:
            self._check_deadline(category)

    def charge_pointtopoint(self, src: int, dst: int, words: float) -> None:
        """Charge one point-to-point message between ``src`` and ``dst``.

        The α-β primitive of §5.1 (``α + β·words``), kept for algorithms
        written against sends rather than collectives; nothing in the
        package calls it today — every layout change is a
        :class:`~repro.machine.collectives.Group` collective.
        """
        if self._fault_hook is not None:
            self._fault_hook.on_collective(self, [src, dst], "p2p")
        t = self.cost.alpha + words * self.cost.beta
        led = self.ledger
        start = max(led.time[src], led.time[dst])
        led.time[[src, dst]] = start + t
        cstart = max(led.comm_time[src], led.comm_time[dst])
        led.comm_time[[src, dst]] = cstart + t
        wstart = max(led.words[src], led.words[dst])
        led.words[[src, dst]] = wstart + words
        mstart = max(led.msgs[src], led.msgs[dst])
        led.msgs[[src, dst]] = mstart + 1
        led.total_words += words
        led.total_msgs += 1
        led.category_words["p2p"] = led.category_words.get("p2p", 0.0) + words
        if obs.enabled():
            obs.complete(
                "p2p",
                cat="collective",
                modeled_ts=float(start),
                modeled_dur=t,
                args={"ranks": 2, "words": words, "msgs": 1, "volume_words": words},
            )
        if self.deadline is not None:
            self._check_deadline("p2p")

    def charge_compute(self, ranks: np.ndarray | list[int], ops) -> None:
        """Charge local computation (modeled time only; no traffic): ``ops``
        elementary operations on every rank of ``ranks``, or ``ops[i]`` on
        ``ranks[i]`` — one plan step's per-rank work in one call.

        The charges land in ``ranks`` order.  With a deadline, the first
        charge whose rank's clock passes it is the last that lands before
        :class:`~repro.faults.DeadlineExceeded` raises, exactly as if each
        rank had been charged on its own.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if not ranks.size:
            return  # a step no rank works in charges nothing
        ops = np.broadcast_to(np.asarray(ops, dtype=float), ranks.shape)
        seconds = ops / self.cost.compute_rate
        if self.deadline is not None:
            land = self._landing(ranks, seconds)
            ranks, ops, seconds = ranks[:land], ops[:land], seconds[:land]
        led = self.ledger
        np.add.at(led.time, ranks, seconds)
        np.add.at(led.compute_per_rank, ranks, ops)
        total = led.compute_ops
        for charge in ops.tolist():  # in charge order, as rank-by-rank adds
            total += charge
        led.compute_ops = total
        if self.deadline is not None:
            self._check_deadline("compute")

    def _landing(self, ranks: np.ndarray, seconds: np.ndarray) -> int:
        """How many of the per-rank compute charges ``seconds`` on ``ranks``
        land: all of them, or up to and including the first that takes the
        critical path past the deadline."""
        clock = self.ledger.time.copy()
        np.add.at(clock, ranks, seconds)
        if clock.max() <= self.deadline:
            return len(ranks)
        clock = self.ledger.time.copy()
        for i, (rank, dt) in enumerate(zip(ranks.tolist(), seconds.tolist())):
            clock[rank] += dt
            if clock.max() > self.deadline:
                return i + 1
        return len(ranks)

    def charge_overhead(self, seconds: float) -> None:
        """Charge a fixed per-operation overhead on every rank (bulk
        synchronous: all ranks pay it together)."""
        self.ledger.time += seconds
        if self.deadline is not None:
            self._check_deadline("overhead")

    def charge_spill(
        self, rank: int | None, words: int, *, op: str = "spill"
    ) -> None:
        """Charge one spill-store segment transfer (modeled local I/O).

        ``rank=None`` charges the busiest rank.
        Spill traffic is node-local, so only the rank's modeled clock and
        the ``"spill"`` volume category move — never the critical-path
        words/messages, which track interconnect traffic.
        """
        if self.p == 0 or words <= 0:
            return
        if rank is None:
            rank = int(np.argmax(self.ledger.time))
        t = self.cost.spill_alpha + float(words) * self.cost.spill_beta
        led = self.ledger
        led.time[rank] += t
        led.total_words += float(words)
        led.category_words["spill"] = (
            led.category_words.get("spill", 0.0) + float(words)
        )
        if self.deadline is not None:
            self._check_deadline(op)

    def _check_deadline(self, site: str) -> None:
        """Raise once the modeled critical path overruns the budget.

        The charge that tripped the guard stays on the ledger — the machine
        spent the time before noticing it was over budget, exactly like a
        wall-clock job limit.
        """
        modeled = float(self.ledger.time.max()) if self.p else 0.0
        if modeled <= self.deadline:
            return
        note(self, "deadline", "detected", site=site, modeled=modeled, deadline=self.deadline)
        raise DeadlineExceeded(self.deadline, modeled, site)

    # -- elasticity ----------------------------------------------------------

    def shrink(self, dead) -> np.ndarray:
        """Remove ``dead`` ranks, compacting survivors onto ``0..p'-1``.

        Returns the old-rank → new-rank mapping (``-1`` for removed ranks)
        from :func:`~repro.machine.grid.survivor_map`.  Survivors keep their
        ledger history — critical-path clocks, per-rank compute and memory
        accounting are sliced, never reset — so post-recovery ledger
        invariants still hold.  Bumps :attr:`epoch`; groups built before the
        shrink refuse to operate afterwards.
        """
        mapping = survivor_map(self.p, dead)
        alive = np.flatnonzero(mapping >= 0)
        led = self.ledger
        led.time = led.time[alive].copy()
        led.comm_time = led.comm_time[alive].copy()
        led.words = led.words[alive].copy()
        led.msgs = led.msgs[alive].copy()
        led.compute_per_rank = led.compute_per_rank[alive].copy()
        led.p = len(alive)
        self._mem_used = self._mem_used[alive].copy()
        self._mem_peak = self._mem_peak[alive].copy()
        self.p = len(alive)
        self.epoch += 1
        return mapping

    def barrier(self) -> None:
        """Synchronize all ranks' modeled clocks (bulk-synchronous step)."""
        led = self.ledger
        led.time[:] = led.time.max()

    # -- groups -------------------------------------------------------------

    def group(self, ranks) -> Group:
        return Group(self, np.asarray(ranks, dtype=np.int64))

    def world(self) -> Group:
        return self.group(np.arange(self.p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        faults = f", faults={self.faults.describe()}" if self.faults else ""
        deadline = f", deadline={self.deadline}" if self.deadline is not None else ""
        elastic = ", elastic=on" if self.elastic else ""
        return (
            f"Machine(p={self.p}, M={self.memory_words}{faults}{deadline}{elastic})"
        )
