"""Statistical-correctness tier for the adaptive (ε, δ) sampler.

Unlike the rest of the suite, the claims here are *distributional*: the
estimator is unbiased, the confidence width shrinks monotonically, and —
the headline guarantee — the returned scores are within ε of exact
betweenness on at least a (1 − δ) fraction of seeded trials.  Every test
is fully seeded, so the tier is deterministic in CI (the Bernstein bound
is conservative enough that the observed failure fraction on these seeds
is zero, far under the δ the bound permits).

Also the home of the shared-validation contract (the same message for a
bad sample count or seed no matter which entry point raised it) and the
hypothesis properties for the sampler state: one fold in sample order
whatever the batch split, payload round trips (older one-shard layouts
included) and bit-identical checkpoint/resume after any batch.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import strategies as cst
from repro.core import mfbc
from repro.core.approx import (
    SamplerState,
    adaptive_bc,
    approximate_bc,
    bernstein_half_width,
    normalize_seed,
    planned_sample_bound,
    validate_epsilon_delta,
    validate_sample_count,
)
from repro.core.mfbc import mfbc_per_source
from repro.dist import DistributedEngine
from repro.faults.checkpoint import MemoryCheckpointStore, sources_checksum
from repro.graphs import uniform_random_graph_nm
from repro.machine import Machine


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph_nm(40, 4.0, seed=1)


@pytest.fixture(scope="module")
def exact_normalized(graph):
    denom = (graph.n - 1) * (graph.n - 2)
    return mfbc(graph).scores / denom


# ---------------------------------------------------------------------------
# the (ε, δ) guarantee, empirically
# ---------------------------------------------------------------------------


class TestEpsilonDeltaAcceptance:
    """P(max_v |b̂(v) − b(v)| > ε) ≤ δ, checked over seeded trials."""

    TRIALS = 20

    @pytest.mark.parametrize("epsilon,delta", [(0.25, 0.2), (0.15, 0.1)])
    def test_error_within_epsilon_on_most_trials(
        self, graph, exact_normalized, epsilon, delta
    ):
        within = 0
        for seed in range(self.TRIALS):
            res = adaptive_bc(graph, epsilon=epsilon, delta=delta, seed=seed)
            err = float(np.max(np.abs(res.normalized_scores - exact_normalized)))
            within += err <= epsilon
            if res.converged:
                # an honest certificate: the reported width meets the target
                assert res.width <= epsilon
        assert within >= math.ceil((1.0 - delta) * self.TRIALS)

    def test_raw_scores_are_lambda_scale(self, graph, exact_normalized):
        res = adaptive_bc(graph, epsilon=0.2, delta=0.1, seed=0)
        denom = (graph.n - 1) * (graph.n - 2)
        assert np.allclose(res.scores / denom, res.normalized_scores)
        # converged run: raw scores within ε·(n−1)(n−2) of exact λ
        assert np.max(
            np.abs(res.scores - exact_normalized * denom)
        ) <= res.epsilon * denom

    def test_sample_cap_returns_honest_unconverged(self, graph):
        res = adaptive_bc(
            graph, epsilon=1e-4, delta=0.1, seed=0, max_samples=64, batch_size=16
        )
        assert not res.converged
        assert res.samples_used == 64
        assert res.batches == 4
        assert res.width > res.epsilon

    def test_tiny_graph_short_circuits(self):
        g = uniform_random_graph_nm(2, 1.0, seed=0)
        res = adaptive_bc(g, epsilon=0.1, delta=0.1)
        assert res.converged and res.samples_used == 0
        assert np.array_equal(res.scores, np.zeros(2))


class TestUnbiasedness:
    def test_full_enumeration_recovers_exact_bc(self, graph, exact_normalized):
        """E[x(v)] over a uniform source equals b(v) *exactly*: folding all
        n dependency rows into the sampler reproduces exact normalized BC
        (to float round-off), which is the estimator's unbiasedness claim
        without any sampling noise in the way."""
        rows = mfbc_per_source(graph, np.arange(graph.n))
        scale = graph.n / ((graph.n - 1) * (graph.n - 2))
        state = SamplerState.empty(graph.n)
        state.update(rows * scale)
        mean, _ = state.mean_and_variance()
        assert np.allclose(mean, exact_normalized)

    def test_batch_estimate_mean_approaches_exact(self, graph, exact_normalized):
        """Averaging independent one-batch estimates converges on exact BC
        (sampled unbiasedness; observed deviation on these seeds is 0.023,
        well under the asserted 0.04)."""
        acc = np.zeros(graph.n)
        trials = 24
        for seed in range(trials):
            res = adaptive_bc(
                graph, epsilon=0.5, delta=0.5, seed=seed,
                batch_size=16, max_batches=1,
            )
            acc += res.normalized_scores
        assert np.max(np.abs(acc / trials - exact_normalized)) < 0.04


class TestWidthShrinkage:
    def test_width_history_monotone_nonincreasing(self, graph):
        res = adaptive_bc(
            graph, epsilon=0.05, delta=0.1, seed=0,
            batch_size=16, max_samples=160,
        )
        wh = res.width_history
        assert len(wh) == res.batches == 10
        assert all(later <= earlier for earlier, later in zip(wh, wh[1:]))
        assert wh[-1] == res.width
        assert all(w > 0 for w in wh)

    def test_half_width_decreases_in_count_and_variance(self):
        var = np.array([0.25])
        w64 = bernstein_half_width(var, 64, failure=0.05, value_range=1.0)
        w256 = bernstein_half_width(var, 256, failure=0.05, value_range=1.0)
        assert w256 < w64
        lo = bernstein_half_width(np.array([0.01]), 64, failure=0.05,
                                  value_range=1.0)
        assert lo < w64
        assert np.isinf(bernstein_half_width(var, 0, failure=0.05,
                                             value_range=1.0))

    def test_planned_bound_brackets_observed_samples(self, graph):
        """The admission-pricing bound is a sane planning number: more
        samples than any of the seeded converged runs used, fewer than the
        hard cap, and monotone in ε."""
        res = adaptive_bc(graph, epsilon=0.25, delta=0.2, seed=0)
        bound = planned_sample_bound(graph.n, 0.25, 0.2)
        assert res.samples_used <= bound <= max(4 * graph.n, 256)
        assert planned_sample_bound(graph.n, 0.1, 0.2) > bound
        assert planned_sample_bound(2, 0.1, 0.1) == 0


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, graph):
        kw = dict(epsilon=0.2, delta=0.1, seed=3, batch_size=16,
                  max_samples=320)
        ref = adaptive_bc(graph, **kw)
        store = MemoryCheckpointStore()
        part = adaptive_bc(graph, checkpoint=store, max_batches=2, **kw)
        assert not part.converged and part.batches == 2
        res = adaptive_bc(graph, checkpoint=store, resume_from=store, **kw)
        assert np.array_equal(res.scores, ref.scores)
        assert res.width_history == ref.width_history
        assert res.samples_used == ref.samples_used
        assert res.converged

    def test_resume_rejects_mismatched_target(self, graph):
        store = MemoryCheckpointStore()
        adaptive_bc(graph, epsilon=0.2, delta=0.1, seed=0, batch_size=16,
                    checkpoint=store, max_batches=1)
        with pytest.raises(ValueError, match="cannot resume with"):
            adaptive_bc(graph, epsilon=0.1, delta=0.1, seed=0, batch_size=16,
                        resume_from=store)

    def test_resume_rejects_mismatched_schedule(self, graph):
        store = MemoryCheckpointStore()
        adaptive_bc(graph, epsilon=0.2, delta=0.1, seed=0, batch_size=16,
                    checkpoint=store, max_batches=1)
        with pytest.raises(ValueError, match="different sampling schedule"):
            adaptive_bc(graph, epsilon=0.2, delta=0.1, seed=1, batch_size=16,
                        resume_from=store)

    def test_resume_rejects_non_adaptive_checkpoint(self, graph):
        store = MemoryCheckpointStore()
        mfbc(graph, batch_size=16, checkpoint=store, max_batches=1)
        with pytest.raises(ValueError, match="no sampler state"):
            adaptive_bc(graph, epsilon=0.2, delta=0.1, resume_from=store)

    def test_older_sampler_layouts(self, graph):
        """A one-shard checkpoint in the older nested ``counts`` / ``sums``
        layout resumes bit-identically, on any machine size; a sharded one
        (taken with p > 1) is another sampling schedule and is refused."""
        kw = dict(epsilon=0.2, delta=0.1, seed=3, batch_size=16,
                  max_samples=320)
        ref = adaptive_bc(graph, **kw)
        store = MemoryCheckpointStore()
        adaptive_bc(graph, checkpoint=store, max_batches=2, **kw)
        state = store.load()
        flat = state.sampler["state"]
        state.sampler["state"] = {
            "n": flat["n"],
            "shards": 1,
            "counts": [flat["total_samples"]],
            "sums": [flat["sums"]],
            "sumsqs": [flat["sumsqs"]],
        }
        store.save(state)
        engine = DistributedEngine(Machine(4, faults="off"))
        res = adaptive_bc(graph, resume_from=store, engine=engine, **kw)
        assert np.array_equal(res.scores, ref.scores)
        assert res.width_history == ref.width_history

        k, n = flat["total_samples"], flat["n"]
        state.sampler["state"] = {
            "n": n,
            "shards": 4,
            "counts": [k // 4] * 4,
            "sums": [flat["sums"]] + [[0.0] * n] * 3,
            "sumsqs": [flat["sumsqs"]] + [[0.0] * n] * 3,
        }
        state.sources_crc = sources_checksum(np.array([graph.n, 3, 16, 4]))
        store.save(state)
        with pytest.raises(ValueError, match="different sampling schedule"):
            adaptive_bc(graph, resume_from=store, **kw)


# ---------------------------------------------------------------------------
# unified parameter validation (one message per mistake, any entry point)
# ---------------------------------------------------------------------------


class TestValidationUnified:
    def test_sample_count_message_is_identical_everywhere(self, graph):
        expected = f"must be in [1, n={graph.n}]"
        with pytest.raises(ValueError, match="n_samples must be in"):
            approximate_bc(graph, 0)
        for bad in (0, graph.n + 1, -3):
            with pytest.raises(ValueError) as exc:
                validate_sample_count(bad, graph.n)
            assert expected in str(exc.value)

    def test_serve_uses_the_same_validator(self, graph):
        from repro.serve import BCService

        svc = BCService(graph, p=2)
        try:
            with pytest.raises(
                ValueError, match=rf"samples must be in \[1, n={graph.n}\]"
            ):
                svc.submit("approx_bc", samples=0)
            with pytest.raises(ValueError, match="epsilon must be positive"):
                svc.submit("adaptive_bc", epsilon=-0.5)
            with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
                svc.submit("adaptive_bc", epsilon=0.1, delta=1.5)
        finally:
            svc.close()

    @pytest.mark.parametrize("bad", [3.5, "x", object()])
    def test_non_integer_counts_rejected(self, graph, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            validate_sample_count(bad, graph.n)

    def test_integral_floats_and_numpy_ints_accepted(self, graph):
        assert validate_sample_count(3.0, graph.n) == 3
        assert validate_sample_count(np.int64(5), graph.n) == 5

    @pytest.mark.parametrize(
        "epsilon,delta",
        [(0.0, 0.1), (-1.0, 0.1), (float("inf"), 0.1), (float("nan"), 0.1),
         (0.1, 0.0), (0.1, 1.0), (0.1, -0.2)],
    )
    def test_bad_epsilon_delta_rejected(self, epsilon, delta):
        with pytest.raises(ValueError):
            validate_epsilon_delta(epsilon, delta)

    def test_seed_normalization_contract(self):
        assert normalize_seed(None) == 0
        assert normalize_seed(np.int64(7)) == 7
        with pytest.raises(ValueError, match="got a Generator"):
            normalize_seed(np.random.default_rng(0))
        with pytest.raises(ValueError, match="seed must be an integer"):
            normalize_seed(1.5)

    def test_adaptive_bc_rejects_generator_seed(self, graph):
        with pytest.raises(ValueError, match="got a Generator"):
            adaptive_bc(graph, seed=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# hypothesis properties: sampler-state algebra and resumability
# ---------------------------------------------------------------------------


def _copy(state):
    return SamplerState.from_payload(state.to_payload())


class TestSamplerStateProperties:
    @given(cst.sampler_states(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_split_fold_is_one_fold(self, state, cut, seed):
        """Rows fold one sample at a time in order, so any batch split of
        the same rows gives the same bits (no pairwise batch sum)."""
        rows = np.random.default_rng(seed).random((8, state.n))
        whole, split = _copy(state), _copy(state)
        whole.update(rows)
        split.update(rows[:cut])
        split.update(rows[cut:])
        assert whole.total_samples == split.total_samples == state.total_samples + 8
        assert np.array_equal(whole.sums, split.sums)
        assert np.array_equal(whole.sumsqs, split.sumsqs)

    @given(cst.sampler_states())
    def test_payload_round_trip_bit_identical(self, state):
        back = SamplerState.from_payload(
            json.loads(json.dumps(state.to_payload()))
        )
        assert (back.n, back.total_samples) == (state.n, state.total_samples)
        assert np.array_equal(back.sums, state.sums)
        assert np.array_equal(back.sumsqs, state.sumsqs)

    @given(cst.sampler_states())
    def test_merged_moments_match_mean_variance(self, state):
        k = state.total_samples
        mean, var = state.mean_and_variance()
        if k == 0:
            assert np.array_equal(mean, np.zeros(state.n))
        else:
            assert np.allclose(mean, state.sums / k)
            assert np.all(var >= 0)

    @given(cst.sampler_states())
    def test_one_shard_payload_loads_as_the_flat_state(self, state):
        payload = state.to_payload()
        older = {
            "n": payload["n"],
            "shards": 1,
            "counts": [payload["total_samples"]],
            "sums": [payload["sums"]],
            "sumsqs": [payload["sumsqs"]],
        }
        back = SamplerState.from_payload(json.loads(json.dumps(older)))
        assert back.total_samples == state.total_samples
        assert np.array_equal(back.sums, state.sums)
        assert np.array_equal(back.sumsqs, state.sumsqs)
        older["shards"], older["counts"] = 2, [0, payload["total_samples"]]
        older["sums"] = older["sumsqs"] = [payload["sums"]] * 2
        with pytest.raises(ValueError, match="sharded"):
            SamplerState.from_payload(older)

    @given(cst.epsilon_delta_params())
    def test_epsilon_delta_strategy_always_valid(self, params):
        epsilon, delta = validate_epsilon_delta(*params)
        assert epsilon > 0 and 0 < delta < 1


class TestMachineSize:
    def test_estimate_is_bit_identical_across_p(self):
        """The sampler folds its samples in order on every machine, so the
        estimate and its certificate do not depend on p."""
        g = uniform_random_graph_nm(120, 4.0, seed=7)
        kw = dict(epsilon=0.3, delta=0.2, seed=0, batch_size=16)
        seq = adaptive_bc(g, **kw)
        # faults off: an ambient plan could exhaust the retry budget, and
        # the claim is about p, not about recovery
        dist = adaptive_bc(
            g, engine=DistributedEngine(Machine(4, faults="off")), **kw
        )
        assert np.array_equal(dist.scores, seq.scores)
        assert dist.width_history == seq.width_history


class TestResumeProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        cut=st.integers(1, 4),
        batch=st.sampled_from([8, 16]),
    )
    def test_resume_after_any_batch_bit_identical(self, seed, cut, batch):
        """Interrupting after *any* batch and resuming from the checkpoint
        reproduces the uninterrupted run bit for bit."""
        g = uniform_random_graph_nm(24, 3.0, seed=2)
        kw = dict(epsilon=0.3, delta=0.2, seed=seed, batch_size=batch,
                  max_samples=5 * batch)
        ref = adaptive_bc(g, **kw)
        store = MemoryCheckpointStore()
        adaptive_bc(g, checkpoint=store, max_batches=cut, **kw)
        res = adaptive_bc(g, resume_from=store, **kw)
        assert np.array_equal(res.scores, ref.scores)
        assert res.width_history == ref.width_history
        assert res.samples_used == ref.samples_used
        assert res.converged == ref.converged
