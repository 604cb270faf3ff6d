"""Supplementary: throughput of the generalized SpGEMM kernel.

Contextualizes the node-local kernel that plays MKL's role in the paper's
stack: measured wall-clock throughput (elementary products per second) for
the operator families MFBC exercises — plus-times (what scipy's CSR
matmul computes natively, shown as the reference point), tropical min-plus,
the multpath monoid (MFBF) and the centpath monoid under a full-support
mask (MFBr) — across sparsity regimes.  The generalized kernel pays for its
generality (scipy's compiled kernel is faster on plus-times); the ratios
printed here are that generality tax.  The multpath / centpath ``auto``
columns are the compiled row-wise accumulator (``_pathsum.c``).  Plus-times
has no fast path (scipy sums each entry left to right, which cannot match
the generic kernel's ``np.add.reduceat`` grouping bit for bit), so its
``auto`` column is the generic kernel behind the dispatch tier's decline,
and ``scipy/auto`` reads the generic kernel against canonical scipy.  Two
masked MFBC products are timed against what they replaced: MFBr's
tie-masked successor count, and weighted MFBF's bound-masked relaxations.
"""

import numpy as np
import pytest
import scipy.sparse

from repro import obs
from repro.algebra import CENTPATH, MULTPATH, REAL_PLUS_TIMES, TROPICAL, MatMulSpec
from repro.algebra import bellman_ford_action
from repro.algebra.monoid import MinMonoid, PlusMonoid
from repro.core.specs import BELLMAN_FORD_SPEC, BRANDES_SPEC, RELAX_SPEC, SUCCESSOR_SPEC
from repro.core.engine import SequentialEngine
from repro.sparse import SpMat, _native, spgemm

N = 2000
DENSITIES = [0.002, 0.01]
#: ratchet on the dense point's scipy (+,×) ÷ dispatched multpath ratio: the
#: largest of eight runs when the compiled path kernel landed (1.10–1.27x)
#: + 10 %
MULTPATH_GAP_MAX = 1.4
#: ratchet on MFBr's successor count: the tie-masked product under auto
#: must take at most this share of the product it replaced (the whole
#: T-masked join, then the tie filter); measured 0.40-0.55 when it landed
SUCCESSOR_SHARE_MAX = 0.75
#: ratchet on weighted MFBF's relaxations: the bound-masked products of one
#: run under auto must take at most this share of the unmasked products
#: they replaced; measured 0.63-0.69 when it landed (uniform 2048, R-MAT 11),
#: so about the +0.2 of headroom SUCCESSOR_SHARE_MAX has
RELAX_SHARE_MAX = 0.9
#: timings per kernel and product in the throughput table (best of)
REPEATS = 5
#: unchecked / checked timings per density in the check-overhead table
CHECK_REPEATS = 15


def _mats(rng, density, monoid):
    mask = scipy.sparse.random(N, N, density=density, random_state=rng.integers(1 << 30))
    coo = mask.tocoo()
    vals = rng.integers(1, 9, coo.nnz).astype(float)
    a = SpMat(N, N, coo.row.astype(np.int64), coo.col.astype(np.int64), {"w": vals}, monoid)
    return a


def _throughput(a, b, spec, kernels=("generic", "auto"), mask=None):
    """Mops/s per kernel, best of ``REPEATS``, and the product's ops.  The
    kernels take turns inside each repeat, so a noisy stretch of the machine
    lands on every one of them, not on the one timed last."""
    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(REPEATS):
        for kernel in kernels:
            with obs.timed("bench.kernel_spgemm", spec=spec.name, kernel=kernel) as t:
                res = spgemm(a, b, spec, kernel=kernel, mask=mask)
            best[kernel] = min(best[kernel], t.seconds)
    rates = [res.ops / t if t > 0 else 0.0 for t in best.values()]
    return *rates, res.ops


def build_rows():
    rng = np.random.default_rng(7)
    plus, tropical = PlusMonoid(), MinMonoid()
    bf = MatMulSpec(MULTPATH, bellman_ford_action, "bf")
    # MFBr masks every product by Z's support, which is every reachable
    # (source, vertex) pair: a full-support mask is its steady state
    every = np.arange(64 * N)
    ones = np.ones(64 * N)
    full = SpMat(64, N, every // N, every % N, MULTPATH.make(ones, ones), MULTPATH,
                 canonical=True)
    rows = []
    for density in DENSITIES:
        a_p = _mats(rng, density, plus)
        b_p = _mats(rng, density, plus)
        spec_p = REAL_PLUS_TIMES.matmul_spec()
        rate_p, rate_pf, ops = _throughput(a_p, b_p, spec_p)

        # scipy reference producing the same canonical deliverable: raw
        # ``sa @ sb`` leaves column indices unsorted, which nothing
        # downstream could consume, so the apples-to-apples recipe sorts
        # (two linear counting-sort passes) and prunes explicit zeros
        sa = scipy.sparse.csr_matrix((a_p.vals["w"], (a_p.rows, a_p.cols)), shape=(N, N))
        sb = scipy.sparse.csr_matrix((b_p.vals["w"], (b_p.rows, b_p.cols)), shape=(N, N))
        best_scipy = float("inf")
        for _ in range(REPEATS):
            with obs.timed("bench.scipy_spgemm") as t:
                c = (sa @ sb).tocsc().tocsr()
                c.eliminate_zeros()
            best_scipy = min(best_scipy, t.seconds)
        scipy_rate = ops / max(best_scipy, 1e-9)

        a_t = _mats(rng, density, tropical)
        b_t = _mats(rng, density, tropical)
        spec_t = TROPICAL.matmul_spec()
        rate_t, _ = _throughput(a_t, b_t, spec_t, kernels=("generic",))

        f = SpMat(
            64,
            N,
            rng.integers(0, 64, 3000).astype(np.int64),
            rng.integers(0, N, 3000).astype(np.int64),
            MULTPATH.make(rng.integers(1, 9, 3000), np.ones(3000)),
            MULTPATH,
        )
        rate_m, rate_mf, _ = _throughput(f, a_t, bf)

        z = SpMat(
            64,
            N,
            f.rows,
            f.cols,
            CENTPATH.make(f.vals["w"], rng.random(f.nnz), np.ones(f.nnz)),
            CENTPATH,
            canonical=True,
        )
        rate_c, rate_cf, _ = _throughput(z, a_t, BRANDES_SPEC, mask=full)

        rows.append(
            (
                f"{density:.3%}",
                f"{rate_p / 1e6:.1f}",
                f"{rate_pf / 1e6:.1f}",
                f"{scipy_rate / 1e6:.1f}",
                f"{scipy_rate / max(rate_pf, 1):.2f}x",
                f"{rate_t / 1e6:.1f}",
                f"{rate_m / 1e6:.1f}",
                f"{rate_mf / 1e6:.1f}",
                f"{scipy_rate / max(rate_mf, 1):.2f}x",
                f"{rate_c / 1e6:.1f}",
                f"{rate_cf / 1e6:.1f}",
            )
        )
    return rows


def build_check_overhead_rows():
    """REPRO_CHECK=cheap cost on the node-local kernel (best-of-N, interleaved)."""
    from repro.check import CheckedEngine
    from repro.core.engine import SequentialEngine

    rng = np.random.default_rng(11)
    tropical = MinMonoid()
    spec = TROPICAL.matmul_spec()
    engine = CheckedEngine(SequentialEngine(), "cheap")
    rows = []
    for density in DENSITIES:
        a = _mats(rng, density, tropical)
        b = _mats(rng, density, tropical)

        # alternate the two so a noisy stretch of the machine lands on both
        raw = checked = float("inf")
        for _ in range(CHECK_REPEATS):
            with obs.timed("bench.check_overhead") as t:
                spgemm(a, b, spec, kernel="generic")
            raw = min(raw, t.seconds)
            with obs.timed("bench.check_overhead") as t:
                engine.spgemm(a, b, spec)
            checked = min(checked, t.seconds)
        overhead = checked / max(raw, 1e-9) - 1.0
        rows.append(
            (
                f"{density:.3%}",
                f"{raw * 1e3:.1f}",
                f"{checked * 1e3:.1f}",
                f"{overhead:+.1%}",
            )
        )
    return rows


def test_check_overhead(benchmark, save_table):
    """Cheap-mode invariant checking must cost ≤10% on the dense-ish case.

    (Disabled checking has *zero* hot-path cost by construction: nothing is
    wrapped — see tests/test_check_engine.py::TestEnablement.)
    """
    rows = benchmark.pedantic(build_check_overhead_rows, rounds=1, iterations=1)
    save_table(
        "check_overhead",
        f"Supplementary: REPRO_CHECK=cheap overhead on the node-local "
        f"generalized-SpGEMM kernel (tropical, n={N}, best of {CHECK_REPEATS})",
        ["density", "unchecked ms", "checked ms", "overhead"],
        rows,
    )
    # the acceptance budget applies at the dense end, where validation cost
    # is amortized over real kernel work (the sparsest case is all fixed
    # overhead and noise)
    overhead_dense = float(rows[-1][-1].rstrip("%").replace("+", "")) / 100.0
    assert overhead_dense <= 0.10, rows


def test_kernel_throughput(benchmark, save_table):
    # the "auto" path columns are the compiled kernel's: one that did not
    # load, or whose run sums failed the load-time probe against numpy's, is
    # a failure, not a slower table of the generic kernel twice
    assert _native.pathsum() is not None, (
        "the compiled path kernel (gcc) did not load or failed its sum probe"
    )
    # SpMat.combine / align_values locate keys with the library's merge; a
    # silent fall back to np.searchsorted would lose that gain unseen
    assert _native._library().merge_locate, "the merge entry point did not load"
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    save_table(
        "kernel_throughput",
        f"Supplementary: SpGEMM kernel throughput (Mops/s, n={N}) — generic "
        f"kernel vs the dispatch tier's paths (kernel=auto) vs compiled scipy",
        [
            "density",
            "generic (+,×)",
            "auto (+,×)",
            "scipy (+,×)",
            "scipy/auto",
            "generic min-plus",
            "generic multpath",
            "auto multpath",
            "scipy/auto multpath",
            "generic centpath",
            "auto centpath",
        ],
        rows,
    )
    # every kernel family must sustain ≥ 1 Mops/s
    for _, kp, kpf, _, _, kt, km, kmf, _, kc, kcf in rows:
        assert all(float(x) > 1.0 for x in (kp, kpf, kt, km, kmf, kc, kcf))
    # ratchet: on the dense point plus-times under auto (the generic
    # kernel: no fast path claims it) must land within 2x of canonical scipy
    scipy_over_auto = float(rows[-1][4].rstrip("x"))
    assert scipy_over_auto <= 2.0, rows
    # ratchet: the MFBF hot loop's gap to compiled plus-times on the dense
    # point (ROADMAP's exit for the compiled-kernel item is 2x)
    assert float(rows[-1][8].rstrip("x")) <= MULTPATH_GAP_MAX, rows
    # and no dispatched product may lose > 20 % to the generic kernel: the
    # path kernel it shadows, the dispatch tier's decline on plus-times
    for _, kp, kpf, _, _, _, km, kmf, _, kc, kcf in rows:
        assert float(kpf) >= 0.8 * float(kp)
        assert float(kmf) >= 0.8 * float(km)
        assert float(kcf) >= 0.8 * float(kc)


def build_successor_rows():
    """MFBr's successor count (its lines 1-2) on the ork stand-in, 8
    sources: the tie-masked product, which forms only the pairs whose weight
    is T's distance, against the product it replaced — every pair of the
    T-masked join, then ``zip_filter`` keeping the runs that tie.  Both give
    the same matrix, bit for bit (asserted)."""
    from repro.core import mfbf
    from repro.graphs import snap_standin

    rng = np.random.default_rng(0)
    graph = snap_standin("ork", seed=rng)
    adj = graph.adjacency()
    t = mfbf(adj, rng.choice(graph.n, 8, replace=False), equal_weights=True)
    seed = t.map(
        lambda tv: CENTPATH.make(tv["w"], np.zeros(len(tv["w"])), np.ones(len(tv["w"]))),
        monoid=CENTPATH,
    )
    adj_t = adj.transpose()

    def filtered():
        cand = spgemm(seed, adj_t, BRANDES_SPEC, mask=t)
        return cand.matrix.zip_filter(t, lambda cv, tv: cv["w"] == tv["w"]), cand.ops

    def tied(kernel):
        res = spgemm(seed, adj_t, SUCCESSOR_SPEC, mask=t, kernel=kernel)
        return res.matrix, res.ops

    runs = {"filtered": filtered, "generic": lambda: tied("generic"), "auto": lambda: tied("auto")}
    best = dict.fromkeys(runs, float("inf"))
    out = {}
    for _ in range(REPEATS):
        for name, run in runs.items():
            with obs.timed("bench.successor_count", variant=name) as timer:
                out[name] = run()
            best[name] = min(best[name], timer.seconds)
    want = out["filtered"][0]
    for name in ("generic", "auto"):
        got = out[name][0]
        assert np.array_equal(got.keys(), want.keys())
        assert all(got.vals[f].tobytes() == want.vals[f].tobytes() for f in want.vals)
    return [
        (
            name,
            f"{out[name][1]:,}",
            f"{best[name] * 1e3:.2f}",
            f"{best[name] / best['filtered']:.2f}",
        )
        for name in runs
    ]


def test_successor_count(benchmark, save_table):
    assert _native.pathsum() is not None, (
        "the compiled path kernel (gcc) did not load or failed its sum probe"
    )
    rows = benchmark.pedantic(build_successor_rows, rounds=1, iterations=1)
    save_table(
        "successor_count",
        f"Supplementary: MFBr's successor count on the ork stand-in (8 sources, "
        f"best of {REPEATS}) — the tie-masked product against the T-masked "
        f"join plus the tie filter it replaced (same matrix, bit for bit)",
        ["product", "pairs formed", "ms", "share of filtered"],
        rows,
    )
    ms = {name: float(t) for name, _, t, _ in rows}
    # ratchet: the tie mask's gain on the product it replaced
    assert ms["auto"] <= SUCCESSOR_SHARE_MAX * ms["filtered"], rows
    # and the compiled tie rule loses no more than 20 % to the generic one
    assert ms["auto"] <= ms["generic"] / 0.8, rows


class _Relaxations(SequentialEngine):
    """The sequential engine, keeping each product's operands and mask."""

    def __init__(self):
        super().__init__()
        self.products = []

    def spgemm(self, a, b, spec, *, mask=None):
        self.products.append((a, b, mask))
        return super().spgemm(a, b, spec, mask=mask)


def _weighted_graphs():
    from repro.graphs import rmat_graph, uniform_random_graph_nm, with_random_weights

    return {
        "uniform-2048": with_random_weights(
            uniform_random_graph_nm(2048, 8, seed=0), 1, 100, seed=0
        ),
        "rmat-11": with_random_weights(rmat_graph(11, 8, seed=0), 1, 100, seed=0),
    }


def build_relaxation_rows():
    """One weighted MFBF run of 16 sources per graph: each iteration's
    bound-masked product (``RELAX_SPEC``, masked by T) against the unmasked
    product (``BELLMAN_FORD_SPEC``) it replaced, summed over the run.  The
    run's T under auto equals the generic kernel's, bit for bit (asserted)."""
    from repro.core import mfbf
    from repro.sparse import dispatch

    rows = []
    for name, graph in _weighted_graphs().items():
        adj = graph.adjacency()
        sources = np.random.default_rng(0).choice(graph.n, 16, replace=False)
        engine = _Relaxations()
        t = mfbf(adj, sources, engine=engine)
        with pytest.MonkeyPatch.context() as patch:  # every product generic
            patch.setattr(dispatch, "dispatch_spgemm", lambda *a, **k: None)
            want = mfbf(adj, sources)
        assert np.array_equal(t.keys(), want.keys())
        assert all(t.vals[f].tobytes() == want.vals[f].tobytes() for f in want.vals)

        def total(spec, masked):
            ops = 0
            with obs.timed("bench.relaxations", spec=spec.name) as timer:
                for a, b, mask in engine.products:
                    ops += spgemm(a, b, spec, mask=mask if masked else None).ops
            return timer.seconds, ops

        best = {"unmasked": float("inf"), "bound": float("inf")}
        ops = {}
        for _ in range(REPEATS):
            for variant, spec, masked in (
                ("unmasked", BELLMAN_FORD_SPEC, False), ("bound", RELAX_SPEC, True)
            ):
                seconds, ops[variant] = total(spec, masked)
                best[variant] = min(best[variant], seconds)
        for variant in best:
            rows.append(
                (
                    name,
                    variant,
                    str(len(engine.products)),
                    f"{ops[variant]:,}",
                    f"{best[variant] * 1e3:.2f}",
                    f"{best[variant] / best['unmasked']:.2f}",
                )
            )
    return rows


def test_bounded_relaxation(benchmark, save_table):
    assert _native.pathsum() is not None, (
        "the compiled path kernel (gcc) did not load or failed its sum probe"
    )
    rows = benchmark.pedantic(build_relaxation_rows, rounds=1, iterations=1)
    save_table(
        "bounded_relaxation",
        f"Supplementary: weighted MFBF's relaxations (16 sources, weights 1-100, "
        f"best of {REPEATS}, kernel auto) — the bound-masked products of one run "
        f"against the unmasked products they replaced (same T, bit for bit)",
        ["graph", "product", "iterations", "pairs formed", "ms", "share of unmasked"],
        rows,
    )
    # ratchet: the bound rule's gain on the products it replaced
    for _, variant, _, _, _, share in rows:
        if variant == "bound":
            assert float(share) <= RELAX_SHARE_MAX, rows
