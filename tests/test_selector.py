"""Cost models and the plan selector (CTF mapping-search behaviour)."""


import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostParams, Machine
from repro.machine.machine import MemoryLimitExceeded
from repro.obs import api as obs
from repro.spgemm import (
    AutoPolicy,
    PinnedPolicy,
    Plan,
    Square2DPolicy,
    estimate_nnz_c,
    estimate_ops,
    model_plan,
)
from repro.spgemm.selector import cheapest_plan, enumerate_plans, plan_table


class TestEstimators:
    def test_ops_uniform(self):
        # nnz(A)·nnz(B)/k
        assert estimate_ops(10, 20, 10, 100, 200) == pytest.approx(1000.0)

    def test_nnz_c_capped_by_dense(self):
        assert estimate_nnz_c(3, 100, 3, 10_000, 10_000) == 9.0

    def test_zero_k(self):
        assert estimate_ops(5, 0, 5, 0, 0) == 0.0


def priced(plan, nnz_a, nnz_b, nnz_c, ops, amortized=frozenset()):
    """``model_plan`` with every size given (the dimensions then play no part)."""
    return model_plan(plan, 1, 1, 1, nnz_a, nnz_b, nnz_c, ops, amortized)


class TestModels:
    def test_1d_words_scale_with_replicated_operand(self):
        a = priced(Plan(16, 1, 1, "A", "AB"), nnz_a=1000, nnz_b=10, nnz_c=10, ops=100)
        b = priced(Plan(16, 1, 1, "B", "AB"), nnz_a=1000, nnz_b=10, nnz_c=10, ops=100)
        assert a.words == 2000 and b.words == 20

    def test_2d_words_formula(self):
        est = priced(Plan(1, 4, 8, "A", "AB"), nnz_a=800, nnz_b=1600, nnz_c=0, ops=0)
        assert est.words == pytest.approx(2 * (800 / 4 + 1600 / 8))

    def test_2d_latency_lcm_steps(self):
        est_sq = priced(Plan(1, 4, 4, "A", "AB"), 1, 1, 1, 0)
        est_bad = priced(Plan(1, 8, 2, "A", "AB"), 1, 1, 1, 0)
        # lcm(8,2)=8 = max; lcm(4,4)=4: fewer steps on the square grid
        assert est_sq.msgs < est_bad.msgs

    def test_3d_memory_includes_replication(self):
        est = priced(Plan(4, 2, 2, "A", "AB"), nnz_a=1600, nnz_b=16, nnz_c=16, ops=0)
        # replicated A: nnz_a·p1/p = 1600·4/16 = 400 per rank at least
        assert est.memory_words >= 400

    def test_time_combines_terms(self):
        est = priced(Plan(4, 1, 1, "A", "AB"), 100, 0, 0, ops=1000)
        # msgs = 2·log2(4) = 4, words = 2·nnz(A) = 200, flops = ops/p = 250
        t = est.time(alpha=1.0, beta=0.5, compute_rate=100.0)
        assert t == pytest.approx(4 * 1.0 + 200 * 0.5 + 250 / 100.0)

    def test_model_plan_dispatch(self):
        """1D and 2D plans are the degenerate cases of the one formula."""
        p1d = model_plan(Plan(4, 1, 1, "A", "AB"), 10, 10, 10, 80, 20)
        p2d = model_plan(Plan(1, 2, 2, "A", "AB"), 10, 10, 10, 80, 20)
        p3d = model_plan(Plan(2, 2, 1, "A", "AB"), 10, 10, 10, 80, 20)
        # 1D-A ships all of A (160 words); 2D ships panels (2·(40+10)=100)
        assert p1d.words == pytest.approx(160)
        assert p2d.words == pytest.approx(100)
        assert p3d.memory_words >= p2d.memory_words
        # W_X alone, W_YZ alone, and their sum on the nesting of the two
        assert (p1d.msgs, p2d.msgs, p3d.msgs) == (2 * 2, 2 * 2 * 2, 2 * 1 + 2 * 2 * 1)
        assert p3d.words == pytest.approx(2 * 80 / 2 + 2 * (80 / 2 + 20 / 2 / 1))

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_every_plan_matches_the_closed_forms(self, p):
        """``W_X`` when p1 > 1 plus ``W_YZ`` when p2·p3 > 1 is, bit for bit,
        the three per-kind expressions the one function replaced (written
        out below) — except a 1D plan's memory, which now counts the
        replica beside X's resting share, as a 3D plan's always did."""
        nnz = {"A": 1234.0, "B": 98765.0, "C": 4321.0}
        total, ops = sum(nnz.values()), 55555.0

        def lg(q):
            return math.ceil(math.log2(q)) if q > 1 else 0

        for plan in enumerate_plans(p):
            p1, p2, p3, x, (y, z) = plan.p1, plan.p2, plan.p3, plan.x, plan.yz
            if plan.kind == "1d":
                msgs, words = 2.0 * lg(p), 2.0 * nnz[x]
                # was nnz(X) + others/p: reads nnz(X)/p higher now
                memory = nnz[x] + (total - nnz[x]) / p + nnz[x] / p
            elif plan.kind == "2d":
                msgs = 2.0 * math.lcm(p2, p3) * lg(p)
                words = 2.0 * (nnz[y] / p2 + nnz[z] / p3)
                memory = total / p + nnz[y] / p2 + nnz[z] / p3
            else:
                layer = {v: nnz[v] if v == x else nnz[v] / p1 for v in nnz}
                msgs = 2.0 * lg(p1) + 2.0 * math.lcm(p2, p3) * lg(p2 * p3)
                words = 2.0 * nnz[x] / (p2 * p3)
                words += 2.0 * (layer[y] / p2 + layer[z] / p3)
                memory = total / p + nnz[x] * p1 / p
                memory += layer[y] / p2 + layer[z] / p3
            est = priced(plan, nnz["A"], nnz["B"], nnz["C"], ops)
            assert (est.msgs, est.words, est.flops) == (msgs, words, ops / p), plan
            # one association of the memory sum serves all kinds: exact for
            # 3D plans, within an ulp of the 2D expression
            assert est.memory_words == pytest.approx(memory, rel=1e-15), plan
            assert plan.kind != "3d" or est.memory_words == memory, plan
            # the discount is W_X left out — W_YZ itself, where the parent
            # added W_X and subtracted it again (the same words up to that
            # cancellation's rounding; every other field untouched)
            disc = priced(plan, nnz["A"], nnz["B"], nnz["C"], ops, frozenset(x))
            w_x = (2.0 * lg(p1), 2.0 * nnz[x] / (p2 * p3)) if p1 > 1 else (0.0, 0.0)
            assert disc.msgs == msgs - w_x[0], plan
            assert disc.words == pytest.approx(words - w_x[1], abs=words * 2.0**-51), plan
            assert (disc.flops, disc.memory_words) == (est.flops, est.memory_words)
            other = priced(plan, nnz["A"], nnz["B"], nnz["C"], ops, frozenset("ABC") - {x})
            assert other == est, plan


class TestAmortization:
    def test_discount_removes_replication_words(self):
        plan = Plan(4, 2, 2, "B", "AB")
        full = model_plan(plan, 10, 100, 100, 50, 5000)
        disc = model_plan(plan, 10, 100, 100, 50, 5000, amortized=frozenset("B"))
        assert disc.words == pytest.approx(full.words - 2 * 5000 / 4)

    def test_discount_1d(self):
        plan = Plan(4, 1, 1, "B", "AB")
        full = model_plan(plan, 10, 100, 100, 50, 5000)
        disc = model_plan(plan, 10, 100, 100, 50, 5000, amortized=frozenset("B"))
        assert disc.words == pytest.approx(full.words - 2 * 5000)

    def test_no_discount_for_other_operand(self):
        plan = Plan(4, 2, 2, "A", "AB")
        full = model_plan(plan, 10, 100, 100, 50, 5000)
        disc = model_plan(plan, 10, 100, 100, 50, 5000, amortized=frozenset("B"))
        assert disc.words == full.words


class TestAutoPolicy:
    def test_picks_cheapest_for_imbalanced_operands(self):
        """A tiny frontier times a huge adjacency should NOT replicate the
        frontier-to-everyone 1D-B style plan; the chosen plan's modeled cost
        must be minimal over the enumeration."""
        machine = Machine(16)
        pol = AutoPolicy()
        plan = pol.select(machine, 8, 10000, 10000, 50, 500_000)
        est = model_plan(plan, 8, 10000, 10000, 50, 500_000)
        for other in enumerate_plans(16):
            est_o = model_plan(other, 8, 10000, 10000, 50, 500_000)
            assert est.time(1e-6, 1e-9, 1e9) <= est_o.time(1e-6, 1e-9, 1e9) + 1e-15

    def test_memory_budget_filters(self):
        # replicating the big operand everywhere (1D) needs ≥ 10k words/rank;
        # a budget of 8k forces a non-replicating 2D/3D plan.
        machine = Machine(16, memory_words=8000)
        pol = AutoPolicy()
        plan = pol.select(machine, 100, 100, 100, 10_000, 10_000)
        est = model_plan(plan, 100, 100, 100, 10_000, 10_000)
        assert est.memory_words <= 8000
        assert plan.kind != "1d"

    def test_impossible_budget_raises(self):
        machine = Machine(4, memory_words=1)
        with pytest.raises(MemoryLimitExceeded):
            AutoPolicy().select(machine, 100, 100, 100, 10_000, 10_000)

    def test_history_recorded(self):
        """The ``select`` span is the record of a choice (the policy itself
        keeps no per-product log to grow for the life of a service)."""
        machine = Machine(4)
        with obs.use() as session:
            plan = AutoPolicy().select(machine, 10, 10, 10, 20, 20)
        (span,) = session.tracer.find("select")
        cost = machine.cost
        assert span.args["chosen"] == plan.describe()
        assert span.args["modeled_seconds"] == model_plan(
            plan, 10, 10, 10, 20, 20
        ).time(cost.alpha, cost.beta, cost.compute_rate)

    def test_amortized_adjacency_prefers_replication_at_scale(self):
        """With the adjacency's replication amortized away and latency
        expensive, 3D/1D plans replicating B become competitive."""
        machine = Machine(64, cost=CostParams(alpha=1e-3, beta=1e-9))
        pol = AutoPolicy()
        plan = pol.select(
            machine, 512, 100_000, 100_000, 2_000, 1_000_000, amortized=frozenset("B")
        )
        # the selected plan must exploit the free replication of B
        assert plan.x == "B" or plan.kind == "2d"


class TestPinnedPolicies:
    def test_ca_mfbc_grid(self):
        pol = PinnedPolicy.ca_mfbc(16, c=4)
        assert (pol.plan.p1, pol.plan.p2, pol.plan.p3) == (4, 2, 2)
        assert pol.plan.x == "B"

    def test_ca_mfbc_c1_is_2d(self):
        pol = PinnedPolicy.ca_mfbc(16, c=1)
        assert pol.plan.kind == "2d" and pol.plan.p2 == pol.plan.p3 == 4

    def test_ca_mfbc_invalid(self):
        with pytest.raises(ValueError, match="divide"):
            PinnedPolicy.ca_mfbc(16, c=3)
        with pytest.raises(ValueError, match="square"):
            PinnedPolicy.ca_mfbc(8, c=1)

    def test_pinned_machine_mismatch(self):
        pol = PinnedPolicy.ca_mfbc(16, c=1)
        with pytest.raises(ValueError, match="ranks"):
            pol.select(Machine(8), 1, 1, 1, 1, 1)

    def test_square2d(self):
        plan = Square2DPolicy().select(Machine(16), 1, 1, 1, 1, 1)
        assert (plan.p2, plan.p3) == (4, 4) and plan.yz == "AB"

    def test_square2d_nonsquare_raises(self):
        with pytest.raises(ValueError, match="square"):
            Square2DPolicy().select(Machine(8), 1, 1, 1, 1, 1)


class TestEnumeration:
    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_all_plans_cover_p(self, p):
        for plan in enumerate_plans(p):
            assert plan.p == p

    def test_includes_all_kinds_at_16(self):
        kinds = {pl.kind for pl in enumerate_plans(16)}
        assert kinds == {"1d", "2d", "3d"}

    def test_plan_count_grows(self):
        assert len(enumerate_plans(16)) > len(enumerate_plans(4)) > len(
            enumerate_plans(2)
        )


# ---------------------------------------------------------------------------
# the table pricer against the per-plan loop it replaced
# ---------------------------------------------------------------------------


def _scalar_estimate(plan, nnz_a, nnz_b, nnz_c, ops, amortized):
    """One plan priced in plain Python floats, term by term in ``model_plan``'s
    order (the reference the array pricer must reproduce bit for bit)."""
    p1, p2, p3, p = plan.p1, plan.p2, plan.p3, plan.p
    nnz = {"A": nnz_a, "B": nnz_b, "C": nnz_c}
    msgs = words = 0.0
    memory = (nnz_a + nnz_b + nnz_c) / p
    if p1 > 1:
        if plan.x not in amortized:
            msgs += 2.0 * math.ceil(math.log2(p1))
            words += 2.0 * nnz[plan.x] / (p2 * p3)
        memory += nnz[plan.x] * p1 / p
    if p2 * p3 > 1:
        y, z = (nnz[v] if v == plan.x else nnz[v] / p1 for v in plan.yz)
        msgs += 2.0 * math.lcm(p2, p3) * math.ceil(math.log2(p2 * p3))
        words += 2.0 * (y / p2 + z / p3)
        memory += y / p2 + z / p3
    return msgs, words, ops / p, memory


def _scalar_choice(plans, estimates, cost, budget):
    """The per-plan selection loop: memory filter, argmin, ties within 1e-18
    to the smaller ``p1``."""
    best, best_time, feasible = None, math.inf, 0
    for plan, (msgs, words, flops, memory) in zip(plans, estimates):
        if budget is not None and memory > budget:
            continue
        feasible += 1
        t = msgs * cost.alpha + words * cost.beta + flops / cost.compute_rate
        if t < best_time - 1e-18 or (
            abs(t - best_time) <= 1e-18 and best is not None and plan.p1 < best.p1
        ):
            best, best_time = plan, t
    return best, best_time, feasible


class TestTablePricer:
    @settings(max_examples=300)  # cheap examples; rounding differences are rare
    @given(
        st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 64, 128, 256]),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.integers(0, 10**7),
        st.integers(0, 10**7),
        st.none() | st.tuples(st.integers(0, 10**7), st.integers(0, 10**9)),
        st.sampled_from([frozenset(), frozenset("B"), frozenset("A"), frozenset("ABC")]),
        st.none() | st.floats(0.0, 1.5),
        st.sampled_from([CostParams(), CostParams(alpha=1e-3, beta=1e-9)]),
    )
    def test_choice_equals_the_per_plan_loop(
        self, p, m, k, nnz_a, nnz_b, given_sizes, amortized, budget_share, cost
    ):
        """Plan, estimate, modeled seconds and feasible count — bit for bit."""
        n = m
        nnz_c, ops = given_sizes or (None, None)
        table = plan_table(p)
        est = table.price(m, k, n, nnz_a, nnz_b, nnz_c, ops, amortized)
        if given_sizes is None:
            nnz_c = estimate_nnz_c(m, k, n, nnz_a, nnz_b)
            ops = estimate_ops(m, k, n, nnz_a, nnz_b)
        estimates = [
            _scalar_estimate(plan, nnz_a, nnz_b, nnz_c, ops, amortized)
            for plan in table.plans
        ]
        for i, want in enumerate(estimates):
            row = est.row(i)
            assert (row.msgs, row.words, row.flops, row.memory_words) == want, table.plans[i]
        # budgets from unbounded down to below every plan's memory
        budget = None
        if budget_share is not None:
            budget = budget_share * max(e[3] for e in estimates)
        plan, row, seconds, feasible = cheapest_plan(table, est, cost, budget)
        want_plan, want_seconds, want_feasible = _scalar_choice(
            table.plans, estimates, cost, budget
        )
        assert (plan, seconds, feasible) == (want_plan, want_seconds, want_feasible)
        if plan is not None:
            assert row == est.row(table.plans.index(plan))
            assert row == model_plan(plan, m, k, n, nnz_a, nnz_b, nnz_c, ops, amortized)
