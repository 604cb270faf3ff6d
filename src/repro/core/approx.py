"""Approximate betweenness centrality by source sampling.

The paper cites Bader, Kintali, Madduri & Mihail [4] for approximating BC;
production deployments virtually always sample sources because exact BC is
Θ(n) SSSP sweeps.  Two estimators are provided:

* :func:`approximate_bc` — the uniform fixed-pivot estimator: run MFBC from
  ``k`` sampled sources and scale by ``n/k`` (unbiased for every vertex,
  error ~ O(n/√k) in dependency mass);
* :func:`adaptive_bc` — the adaptive (ε, δ) sampler in the style of
  van der Grinten & Meyerhenke's MPI-based adaptive sampling: draw source
  batches through the distributed MFBC driver, maintain running sums and
  sums-of-squares of the normalized per-source dependencies, and stop as
  soon as an empirical-Bernstein confidence bound certifies that
  every vertex's normalized score is within ε with probability ≥ 1 − δ.

Both run on any engine (sequential or simulated-distributed) since they
delegate to :mod:`repro.core.mfbc`.

Estimator and guarantee of :func:`adaptive_bc`
----------------------------------------------

Draw sources ``s_1, s_2, ...`` i.i.d. uniform (with replacement).  Each
sample contributes, per vertex ``v``, the normalized dependency

    ``x_i(v) = δ_{s_i}(v) · n / ((n−1)(n−2)) ∈ [0, R]``,  ``R = n/(n−1)``,

whose expectation is exactly the normalized betweenness
``b(v) = λ(v)/((n−1)(n−2))`` — so the running mean is unbiased after any
number of samples.  After round ``r`` (``k`` samples total) the driver
computes the per-vertex empirical-Bernstein half-width
(Audibert–Munos–Szepesvári)

    ``w(v) = sqrt(2·V_k(v)·L_r / k) + 3·R·L_r / k``,

with ``V_k`` the per-vertex sample variance and the failure budget split
``L_r = ln(3·n·r(r+1)/δ)`` — a union bound over the ``n`` vertices and the
round schedule ``δ_r = δ/(r(r+1))`` (``Σ_r δ_r = δ``), so testing the
stopping condition after *every* batch costs no statistical validity.  The
run stops when ``max_v w(v) ≤ ε``; at that point
``P(∃v: |b̂(v) − b(v)| > ε) ≤ δ``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import Engine, SequentialEngine
from repro.core.mfbc import default_batch_size, mfbc, per_source_rows, run_batches
from repro.faults.checkpoint import (
    CheckpointState,
    CheckpointStore,
    resume_checkpoint,
    sources_checksum,
)
from repro.graphs.graph import Graph
from repro.obs import api as obs
from repro.utils.rng import as_rng

__all__ = [
    "approximate_bc",
    "adaptive_bc",
    "AdaptiveBCResult",
    "SamplerState",
    "bernstein_half_width",
    "planned_sample_bound",
    "validate_sample_count",
    "validate_epsilon_delta",
    "normalize_seed",
]


# ---------------------------------------------------------------------------
# shared parameter validation (single source of truth for the library and
# the serving layer — identical messages everywhere)
# ---------------------------------------------------------------------------


def validate_sample_count(n_samples, n: int, *, name: str = "n_samples") -> int:
    """Validate a sample-count parameter against an ``n``-vertex graph.

    Accepts anything integral, rejects non-integers and values outside
    ``[1, n]`` with the same message the core estimators raise — the
    serving layer funnels through here too, so a bad ``samples=`` query
    param reads identically to a bad library call.
    """
    try:
        count = int(n_samples)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be an integer, got {n_samples!r}"
        ) from None
    if count != n_samples:  # reject 3.5 without rejecting 3.0 / np.int64(3)
        raise ValueError(f"{name} must be an integer, got {n_samples!r}")
    if not 1 <= count <= n:
        raise ValueError(f"{name} must be in [1, n={n}], got {count}")
    return count


def validate_epsilon_delta(epsilon, delta) -> tuple[float, float]:
    """Validate an (ε, δ) accuracy target: ``ε > 0`` and ``0 < δ < 1``."""
    epsilon = float(epsilon)
    delta = float(delta)
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return epsilon, delta


def normalize_seed(seed, *, name: str = "seed") -> int:
    """Normalize a seed to a plain int (``None`` → 0).

    The adaptive driver re-derives its source schedule from
    ``(seed, batch_index)`` so a checkpointed run can resume bit-identically
    without persisting generator state — which rules out passing a live
    ``np.random.Generator`` (its state cannot be re-derived).
    """
    if seed is None:
        return 0
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            f"{name} must be an integer (the source schedule is re-derived "
            f"from it on checkpoint resume), got a Generator"
        )
    try:
        value = int(seed)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {seed!r}") from None
    if value != seed:
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    return value


# ---------------------------------------------------------------------------
# fixed-pivot estimator
# ---------------------------------------------------------------------------


def approximate_bc(
    graph: Graph,
    n_samples: int,
    *,
    seed: int | np.random.Generator | None = None,
    batch_size: int | None = None,
    engine: Engine | None = None,
    retries: int = 2,
) -> np.ndarray:
    """Unbiased sampled estimate of every vertex's betweenness centrality.

    Runs MFBC from ``n_samples`` sources drawn uniformly without replacement
    and scales the partial sums by ``n / n_samples``.  ``retries`` is
    :func:`~repro.core.mfbc.mfbc`'s per-batch retry budget (the serving
    layer passes 0 and keeps the budget its own).
    """
    n_samples = validate_sample_count(n_samples, graph.n)
    rng = as_rng(seed)
    sources = rng.choice(graph.n, size=n_samples, replace=False)
    result = mfbc(
        graph, batch_size=batch_size, sources=sources, engine=engine, retries=retries
    )
    return result.scores * (graph.n / n_samples)


# ---------------------------------------------------------------------------
# adaptive (ε, δ) sampler
# ---------------------------------------------------------------------------


@dataclass
class SamplerState:
    """Running moments of the normalized dependency samples.

    The adaptive run's mutable statistical state is the sample count and,
    per vertex, ``Σ x_i(v)`` and ``Σ x_i(v)²``, folded strictly in sample
    order — so the moments, and every estimate and width read from them,
    are the same bits on every machine size and across an elastic shrink.
    """

    n: int
    total_samples: int
    sums: np.ndarray  # (n,) Σ x_i(v)
    sumsqs: np.ndarray  # (n,) Σ x_i(v)²

    @classmethod
    def empty(cls, n: int) -> "SamplerState":
        return cls(
            n=int(n),
            total_samples=0,
            sums=np.zeros(n, dtype=np.float64),
            sumsqs=np.zeros(n, dtype=np.float64),
        )

    def update(self, x_rows: np.ndarray) -> None:
        """Fold a batch of per-sample rows, one sample at a time in order."""
        for row in np.asarray(x_rows, dtype=np.float64):
            self.total_samples += 1
            self.sums += row
            self.sumsqs += row * row

    def mean_and_variance(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex sample mean and (clipped, k−1 denominator) variance."""
        k = self.total_samples
        if k == 0:
            return np.zeros(self.n), np.zeros(self.n)
        mean = self.sums / k
        if k < 2:
            return mean, np.zeros(self.n)
        var = np.maximum(self.sumsqs - self.sums * mean, 0.0) / (k - 1)
        return mean, var

    def to_payload(self) -> dict:
        """JSON-compatible dict; floats round-trip exactly through JSON."""
        return {
            "n": int(self.n),
            "total_samples": int(self.total_samples),
            "sums": [float(x) for x in self.sums],
            "sumsqs": [float(x) for x in self.sumsqs],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SamplerState":
        if "counts" in payload:
            # the per-shard layout of older checkpoints: its one shard is
            # the flat state (a sharded run's schedule never matches)
            if len(payload["counts"]) != 1:
                raise ValueError("a sharded sampler state cannot be resumed")
            payload = {
                "n": payload["n"],
                "total_samples": payload["counts"][0],
                "sums": payload["sums"][0],
                "sumsqs": payload["sumsqs"][0],
            }
        state = cls(
            n=int(payload["n"]),
            total_samples=int(payload["total_samples"]),
            sums=np.asarray(payload["sums"], dtype=np.float64),
            sumsqs=np.asarray(payload["sumsqs"], dtype=np.float64),
        )
        if state.sums.shape != (state.n,) or state.sumsqs.shape != (state.n,):
            raise ValueError("sampler payload shape mismatch")
        return state


def planned_sample_bound(n: int, epsilon: float, delta: float) -> int:
    """A-priori estimate of the samples an adaptive run needs.

    Drops the (usually negligible) variance term of the stopping rule and
    solves ``3·R·L/k ≤ ε/2`` for ``k``, with one fixed-point pass on the
    round schedule inside ``L`` — a planning number for admission pricing
    and benchmark sizing, not a guarantee (the run itself stops on the
    real empirical-Bernstein bound, and is capped by ``max_samples``).
    """
    epsilon, delta = validate_epsilon_delta(epsilon, delta)
    if n < 3:
        return 0
    value_range = n / (n - 1)
    rounds = 2.0
    k = 1.0
    for _ in range(2):
        log_term = math.log(3.0 * n * rounds * (rounds + 1.0) / delta)
        k = 6.0 * value_range * log_term / epsilon
        rounds = max(k / 32.0, 1.0)
    return int(min(math.ceil(k), max(4 * n, 256)))


def bernstein_half_width(
    var: np.ndarray, count: int, *, failure: float, value_range: float
) -> np.ndarray:
    """Empirical-Bernstein confidence half-width (Audibert et al. 2009).

    For ``count`` i.i.d. samples in ``[0, value_range]`` with sample
    variance ``var``, the mean is within the returned half-width of the
    true expectation with probability ≥ 1 − ``failure``.
    """
    if count < 1:
        return np.full_like(np.asarray(var, dtype=np.float64), np.inf)
    log_term = math.log(3.0 / failure)
    return (
        np.sqrt(2.0 * np.asarray(var, dtype=np.float64) * log_term / count)
        + 3.0 * value_range * log_term / count
    )


@dataclass
class AdaptiveBCResult:
    """Adaptive-sampling estimate plus convergence metadata.

    ``scores`` are on the same raw λ scale as :func:`repro.core.mfbc.mfbc`
    (ordered source/target pairs); ``width`` and ``epsilon`` live on the
    normalized scale ``λ/((n−1)(n−2))`` the guarantee is stated on.
    """

    scores: np.ndarray
    epsilon: float
    delta: float
    samples_used: int
    batches: int
    converged: bool
    width: float  # final max per-vertex half-width (normalized scale)
    width_history: list = field(default_factory=list)
    batch_size: int = 0
    elapsed_seconds: float = 0.0

    @property
    def normalized_scores(self) -> np.ndarray:
        """Scores divided by ``(n−1)(n−2)`` — the scale of the ε bound."""
        n = len(self.scores)
        denom = (n - 1) * (n - 2)
        return self.scores / denom if denom > 0 else self.scores.copy()


def _schedule_crc(n: int, seed: int, batch_size: int) -> int:
    """Checksum of everything that pins the adaptive source schedule.

    The trailing 1 is the shard count older checkpoints pinned: a one-shard
    checkpoint still resumes, a sharded one reads as another schedule.
    """
    return sources_checksum(np.array([n, seed, batch_size, 1], dtype=np.int64))


def _reduce_state(machine, x_rows: np.ndarray) -> None:
    """Allreduce the per-rank sampler partials of one batch.

    Rank ``r`` holds the samples dealt to it round-robin and contributes
    their moments — ``2n + 1`` words: sums, sums-of-squares, count — to a
    reduce + broadcast over the whole machine, paid for (and failing, under
    a fault plan) like any collective.  The result is not read back: the
    estimator folds the rows in sample order (:meth:`SamplerState.update`),
    which keeps its values independent of the rank layout.
    """
    if machine is None or machine.p <= 1:
        return

    def moments(rows: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [rows.sum(axis=0), (rows * rows).sum(axis=0), [len(rows)]]
        )

    parts = [moments(x_rows[r :: machine.p]) for r in range(machine.p)]
    machine.world().allreduce(parts, np.add)


def adaptive_bc(
    graph: Graph,
    *,
    epsilon: float = 0.1,
    delta: float = 0.1,
    seed: int | None = 0,
    batch_size: int | None = None,
    max_samples: int | None = None,
    engine: Engine | None = None,
    max_batches: int | None = None,
    checkpoint: "CheckpointStore | str | None" = None,
    resume_from: "CheckpointStore | str | None" = None,
    retries: int = 2,
) -> AdaptiveBCResult:
    """Adaptive-sampling BC with a provable (ε, δ) error bound.

    Samples sources uniformly with replacement in batches, runs each batch
    through the distributed MFBC machinery (one k-wide MFBF + MFBr sweep
    per batch), and stops as soon as the empirical-Bernstein bound
    certifies ``|b̂(v) − b(v)| ≤ ε`` simultaneously for every vertex with
    probability ≥ 1 − δ, where ``b`` is the normalized centrality
    ``λ/((n−1)(n−2))`` (see the module docstring for the estimator).

    Parameters
    ----------
    graph:
        Input graph.
    epsilon, delta:
        Accuracy target: additive error ≤ ``epsilon`` on the normalized
        scale for all vertices, with probability ≥ 1 − ``delta``.
    seed:
        Integer schedule seed.  Batch ``i``'s sources are drawn from an RNG
        keyed on ``(seed, i)``, so a resumed run re-derives the identical
        schedule; live generators are rejected (see :func:`normalize_seed`).
    batch_size:
        Sources per sweep; defaults to :func:`~repro.core.mfbc.default_batch_size`.
    max_samples:
        Hard sample budget; the run returns unconverged (with its best
        estimate and honest final width) when the budget is exhausted
        before the bound is met.  Default ``max(4n, 256)``.
    engine:
        Execution engine (sequential by default).
    max_batches:
        Stop after this many batches *in this call* (checkpoint-driven
        tests and partial runs); the run is then unconverged unless the
        bound was already met.
    checkpoint, resume_from:
        Same contract as :func:`~repro.core.mfbc.mfbc`; the persisted state
        additionally carries the sampler moments, and a resumed run is
        bit-identical to an uninterrupted one.
    retries:
        The per-batch recovery ladder, exactly as on
        :func:`~repro.core.mfbc.mfbc` (the shrink rung and elastic recovery
        included): under a budget a sample batch is swept as narrower
        sub-sweeps — same rows, same estimate — and later batches, and later
        runs on the same engine and graph, start at the width that fit.
    """
    engine = engine or SequentialEngine()
    epsilon, delta = validate_epsilon_delta(epsilon, delta)
    seed = normalize_seed(seed)
    n = graph.n
    machine = getattr(engine, "machine", None)

    if n < 3:
        # no vertex can mediate an ordered pair; every score is exactly 0
        return AdaptiveBCResult(
            scores=np.zeros(n, dtype=np.float64),
            epsilon=epsilon,
            delta=delta,
            samples_used=0,
            batches=0,
            converged=True,
            width=0.0,
            batch_size=0,
        )

    if max_samples is None:
        max_samples = max(4 * n, 256)
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")

    def same_schedule(state, batch_size):
        if state.sampler is None:
            raise ValueError(
                "checkpoint carries no sampler state — not an adaptive_bc run"
            )
        meta = state.sampler
        if (float(meta["epsilon"]), float(meta["delta"])) != (epsilon, delta):
            raise ValueError(
                f"checkpoint targeted (epsilon={meta['epsilon']}, "
                f"delta={meta['delta']}), cannot resume with "
                f"(epsilon={epsilon}, delta={delta})"
            )
        if state.sources_crc != _schedule_crc(n, seed, batch_size):
            raise ValueError(
                "checkpoint was taken with a different sampling schedule "
                "(seed, batch size, or shard count)"
            )

    store, state, batch_size = resume_checkpoint(
        checkpoint,
        resume_from,
        n=n,
        batch_size=batch_size,
        default_batch_size=default_batch_size(graph),
        site="adaptive_bc",
        machine=machine,
        check=same_schedule,
    )
    crc = _schedule_crc(n, seed, batch_size)
    scale = n / ((n - 1) * (n - 2))  # per-sample normalization of δ_s
    value_range = n / (n - 1)  # x_i(v) ∈ [0, R]

    sampler = SamplerState.empty(n)
    cursor = 0  # samples drawn so far
    start = 0  # batch index
    half_width = math.inf
    width_history: list[float] = []
    if state is not None:
        sampler = SamplerState.from_payload(state.sampler["state"])
        if sampler.n != n:
            raise ValueError(
                "checkpoint sampler state does not match this run's shape"
            )
        cursor = int(state.cursor)
        start = int(state.batch_index)
        width_history = [float(w) for w in state.sampler.get("width_history", [])]
        half_width = width_history[-1] if width_history else math.inf

    raw_denom = (n - 1) * (n - 2)

    def plan(index):
        if half_width <= epsilon or cursor >= max_samples:
            return None
        # schedule keyed on (seed, batch index): resumable by construction
        batch = np.random.default_rng([seed, index]).integers(
            0, n, size=min(batch_size, max_samples - cursor), dtype=np.int64
        )
        rows, sweep = per_source_rows(engine, graph, batch)

        def sweep_and_reduce(width):
            sweep(width)
            x_rows = rows * scale
            # merging the per-rank partials is paid for (and can fail) like
            # any collective, so it sits inside the recovery ladder with the
            # sweep itself
            with obs.span("reduce_state", cat="phase"):
                _reduce_state(machine, x_rows)
            return x_rows

        return batch, sweep_and_reduce

    def commit(x_rows, rounds):
        # once per completed batch — retries and elastic re-executions
        # never reach here twice
        nonlocal cursor, half_width
        sampler.update(x_rows)
        cursor += len(x_rows)
        _, var = sampler.mean_and_variance()
        # round budget δ_r = δ/(r(r+1)) (Σ_r = δ), split over n vertices
        round_failure = delta / (n * rounds * (rounds + 1))
        half_width = float(bernstein_half_width(
            var, sampler.total_samples, failure=round_failure, value_range=value_range
        ).max())
        width_history.append(half_width)

    def snapshot(index):
        mean, _ = sampler.mean_and_variance()
        return CheckpointState(
            cursor=cursor, batch_index=index, batch_size=batch_size, n=n,
            sources_crc=crc, scores=mean * raw_denom, stats=[],
            sampler={
                "epsilon": epsilon, "delta": delta, "seed": seed,
                "width_history": width_history, "state": sampler.to_payload(),
            },
        )

    t0 = time.perf_counter()
    batches = run_batches(
        engine, graph, "adaptive_bc", plan, snapshot, commit=commit, store=store,
        index=start, max_batches=max_batches, retries=retries,
        batch_size=batch_size, epsilon=epsilon, delta=delta,
    )

    mean, _ = sampler.mean_and_variance()
    return AdaptiveBCResult(
        scores=mean * raw_denom,
        epsilon=epsilon,
        delta=delta,
        samples_used=sampler.total_samples,
        batches=batches,
        converged=half_width <= epsilon,
        width=half_width,
        width_history=width_history,
        batch_size=batch_size,
        elapsed_seconds=time.perf_counter() - t0,
    )
