"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``bc``        exact or sampled betweenness centrality of an edge-list graph
``generate``  write a synthetic graph (R-MAT / uniform / SNAP stand-in)
``simulate``  run distributed MFBC on a simulated machine, print the ledger
``trace``     like ``simulate``, capturing a Chrome trace + phase timeline
``serve``     persistent BC-as-a-service HTTP front end over a warm machine
``info``      structural statistics of a graph file

Examples
--------
    python -m repro generate rmat --scale 10 --degree 8 -o g.txt
    python -m repro bc g.txt --top 10
    python -m repro bc g.txt --samples 128 --seed 0
    python -m repro bc g.txt --epsilon 0.05 --delta 0.1
    python -m repro simulate g.txt --p 16 --policy auto --batch 64
    python -m repro simulate g.txt --p 16 --faults seed:3,crash:0.05,limit:2 \\
        --checkpoint run.ckpt.json
    python -m repro trace g.txt --p 16 -o trace.json
    python -m repro trace g.txt --p 16 --faults seed:0,straggle:0.2
    python -m repro serve g.txt --p 16 --port 8734 --elastic on
    python -m repro info g.txt

The run flags (``--faults``, ``--check``, ``--elastic``,
``--memory-words``, ``--spill-dir``) are the knobs of
:mod:`repro.config`, each with an environment fallback; they, ``--deadline``,
``--checkpoint`` (re-running the same command resumes from the file if it
exists) and ``--policy`` are declared once, in :func:`add_run_flags`.
"""

from __future__ import annotations

import argparse
import sys
import zlib

import numpy as np

from repro.config import KNOBS

__all__ = [
    "main",
    "build_parser",
    "add_run_flags",
    "build_machine",
    "print_reports",
    "print_run_reports",
]

#: argparse keywords of the knob flags that are not plain strings
_KNOB_ARGS = {"memory_words": {"type": int}}

#: the run flags that are not ambient knobs
_PLAIN_FLAGS = {
    "deadline": (
        "--deadline",
        dict(
            type=float,
            default=None,
            metavar="SECONDS",
            help="modeled critical-path time budget; the run aborts with "
            "DeadlineExceeded once the clock passes it",
        ),
    ),
    "checkpoint": (
        "--checkpoint",
        dict(
            default=None,
            metavar="PATH",
            help="checkpoint scores after every batch; resumes from PATH if it "
            "already holds a compatible checkpoint (.npz binary, else JSON)",
        ),
    ),
    "policy": ("--policy", dict(choices=["auto", "ca", "square2d"], default="auto")),
}


def add_run_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the named run flags on ``parser`` — their one definition.

    A name is a :data:`repro.config.KNOBS` key (flag, metavar, grammar and
    help come from the table; the default is ``None``: the ambient value)
    or one of ``deadline`` / ``checkpoint`` / ``policy`` (which brings
    ``--c`` along).  Every ``repro`` subcommand, ``repro.serve.loadgen``
    and ``scripts/soak.py`` declare their run flags through here.
    """
    for name in names:
        if name in KNOBS:
            knob = KNOBS[name]
            parser.add_argument(
                knob.flag,
                default=None,
                metavar=knob.metavar,
                help=f"{knob.help}; {knob.grammar}; "
                f"default: ${knob.env} or off",
                **_KNOB_ARGS.get(name, {}),
            )
        else:
            flag, kwargs = _PLAIN_FLAGS[name]
            parser.add_argument(flag, **kwargs)
            if name == "policy":
                parser.add_argument(
                    "--c", type=int, default=1, help="replication (ca policy)"
                )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MFBC betweenness centrality (SC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # what simulate / trace / serve share: a graph on a configured machine
    on_machine = argparse.ArgumentParser(add_help=False)
    on_machine.add_argument("graph")
    on_machine.add_argument("--directed", action="store_true")
    on_machine.add_argument("--p", type=int, default=16, help="simulated ranks")
    add_run_flags(
        on_machine, "policy", "faults", "check", "elastic", "memory_words",
        "spill_dir",
    )
    # what simulate / trace add: a bounded, checkpointable batch run
    batch_run = argparse.ArgumentParser(add_help=False)
    batch_run.add_argument("--batch", type=int, default=64)
    batch_run.add_argument("--batches", type=int, default=1, help="batches to run")
    add_run_flags(batch_run, "checkpoint", "deadline")

    p_bc = sub.add_parser("bc", help="compute betweenness centrality")
    p_bc.add_argument("graph", help="edge-list file (src dst [weight])")
    p_bc.add_argument("--directed", action="store_true")
    p_bc.add_argument("--batch", type=int, default=None, help="batch size nb")
    p_bc.add_argument(
        "--samples", type=int, default=None, help="sampled sources (approximate BC)"
    )
    p_bc.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="adaptive sampling: absolute error target on normalized BC; "
        "samples until the empirical-Bernstein bound certifies it",
    )
    p_bc.add_argument(
        "--delta",
        type=float,
        default=0.1,
        metavar="DELTA",
        help="adaptive sampling: failure probability for the (ε, δ) bound",
    )
    p_bc.add_argument(
        "--max-samples",
        type=int,
        default=None,
        help="adaptive sampling: hard cap on drawn sources",
    )
    p_bc.add_argument("--seed", type=int, default=0)
    p_bc.add_argument("--top", type=int, default=10, help="print this many vertices")
    p_bc.add_argument("--normalized", action="store_true")
    p_bc.add_argument("-o", "--output", default=None, help="write all scores here")
    add_run_flags(p_bc, "checkpoint")

    p_gen = sub.add_parser("generate", help="generate a synthetic graph")
    p_gen.add_argument(
        "family", choices=["rmat", "uniform", "frd", "ork", "ljm", "cit"]
    )
    p_gen.add_argument("--scale", type=int, default=10, help="log2 vertices (rmat)")
    p_gen.add_argument("--n", type=int, default=1024, help="vertices (uniform)")
    p_gen.add_argument("--degree", type=float, default=8.0)
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--weights", nargs=2, type=int, metavar=("LOW", "HIGH"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)

    sub.add_parser(
        "simulate",
        parents=[on_machine, batch_run],
        help="distributed MFBC on the simulated machine",
    )

    p_tr = sub.add_parser(
        "trace",
        parents=[on_machine, batch_run],
        help="traced distributed MFBC: Chrome trace JSON + phase timeline",
    )
    p_tr.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace_event JSON output (load in ui.perfetto.dev)",
    )
    p_tr.add_argument(
        "--jsonl", default=None, help="also write flat span/metric JSONL here"
    )

    p_srv = sub.add_parser(
        "serve",
        parents=[on_machine],
        help="persistent BC-as-a-service HTTP/JSON front end (docs/serving.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8734, help="0 picks a free port")
    p_srv.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="maximum coalesced sweep width k",
    )
    p_srv.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="linger after the first queued query so concurrent requests "
        "coalesce into one sweep",
    )
    p_srv.add_argument(
        "--cache-capacity", type=int, default=4096, help="score-cache LRU entries"
    )
    p_srv.add_argument(
        "--verbose", action="store_true", help="log HTTP requests to stderr"
    )
    p_srv.add_argument(
        "--max-queued",
        type=int,
        default=1024,
        help="admission bound: queued query count (docs/serving.md overload)",
    )
    p_srv.add_argument(
        "--max-queued-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="admission bound: total modeled seconds of queued work "
        "(cost-aware; default unbounded)",
    )
    p_srv.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="QPS",
        help="per-client token-bucket refill rate (X-Client-Id principal)",
    )
    p_srv.add_argument(
        "--rate-burst",
        type=float,
        default=20.0,
        metavar="N",
        help="per-client burst capacity",
    )
    p_srv.add_argument(
        "--brownout-algorithm",
        choices=["approx_bc", "adaptive_bc"],
        default="approx_bc",
        help="what exact bc degrades to under brownout: fixed-pivot "
        "sampling or the (ε, δ)-bounded adaptive sampler",
    )
    p_srv.add_argument(
        "--brownout-epsilon",
        type=float,
        default=0.1,
        help="error target when brownout downgrades to adaptive_bc",
    )
    p_srv.add_argument(
        "--brownout-delta",
        type=float,
        default=0.1,
        help="failure probability when brownout downgrades to adaptive_bc",
    )
    p_srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="graceful-drain budget on SIGTERM/shutdown before queued "
        "work is abandoned",
    )

    p_info = sub.add_parser("info", help="graph statistics")
    p_info.add_argument("graph")
    p_info.add_argument("--directed", action="store_true")

    p_ver = sub.add_parser(
        "verify",
        help="self-check: MFBC vs Brandes vs CombBLAS on sampled sources",
    )
    p_ver.add_argument("graph")
    p_ver.add_argument("--directed", action="store_true")
    p_ver.add_argument("--samples", type=int, default=8)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--p", type=int, default=4, help="also verify on a simulated machine"
    )
    add_run_flags(p_ver, "check")

    return parser


def _load(path: str, directed: bool):
    from repro.graphs import read_edgelist

    return read_edgelist(path, directed=directed)


def _checkpoint_kwargs(path: str | None) -> dict:
    """``--checkpoint PATH`` → mfbc kwargs with resume-if-present semantics."""
    if path is None:
        return {}
    from repro.faults import resolve_checkpoint_store

    store = resolve_checkpoint_store(path)
    state = store.load()
    if state is not None:
        print(
            f"resuming from checkpoint {path} "
            f"(batches completed: {state.batch_index})"
        )
    return {"checkpoint": store, "resume_from": store}


def build_machine(args):
    """The run's :class:`Machine`, from whichever run flags ``args`` carries."""
    from repro.machine import Machine

    names = ("deadline", *(name for name, knob in KNOBS.items() if knob.flag))
    return Machine(args.p, **{k: getattr(args, k, None) for k in names})


def _build_policy(args):
    """``--policy`` / ``--c`` → a selection policy (None: model search)."""
    from repro.spgemm import PinnedPolicy, Square2DPolicy

    if args.policy == "ca":
        return PinnedPolicy.ca_mfbc(args.p, args.c)
    if args.policy == "square2d":
        return Square2DPolicy()
    return None


def _cmd_bc(args) -> int:
    from repro.core import adaptive_bc, approximate_bc, mfbc

    if args.samples is not None:
        # fixed-size sampling is neither adaptive nor checkpointed
        for flag in ("epsilon", "checkpoint"):
            if getattr(args, flag) is not None:
                print(f"error: --samples and --{flag} are mutually exclusive")
                return 2
    g = _load(args.graph, args.directed)
    if args.epsilon is not None:
        res = adaptive_bc(
            g,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.seed,
            batch_size=args.batch,
            max_samples=args.max_samples,
            **_checkpoint_kwargs(args.checkpoint),
        )
        scores = res.scores
        verdict = "converged" if res.converged else "hit sample cap"
        print(
            f"adaptive BC (ε={res.epsilon:g}, δ={res.delta:g}): {verdict} after "
            f"{res.samples_used} samples in {res.batches} batches "
            f"(final width {res.width:.4g}, {res.elapsed_seconds:.2f}s)"
        )
    elif args.samples is not None:
        scores = approximate_bc(g, args.samples, seed=args.seed, batch_size=args.batch)
        print(f"approximate BC from {args.samples} sampled sources")
    else:
        res = mfbc(g, batch_size=args.batch, **_checkpoint_kwargs(args.checkpoint))
        scores = res.scores
        print(
            f"exact BC: {res.stats.total_multiplications} matmuls in "
            f"{res.elapsed_seconds:.2f}s"
        )
    if args.normalized:
        denom = (g.n - 1) * (g.n - 2)
        if denom > 0:
            scores = scores / denom
    top = np.argsort(scores)[::-1][: args.top]
    for v in top:
        print(f"{int(v)}\t{scores[v]:.6g}")
    if args.output:
        np.savetxt(args.output, scores)
        print(f"wrote {len(scores)} scores to {args.output}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graphs import (
        rmat_graph,
        snap_standin,
        uniform_random_graph_nm,
        with_random_weights,
        write_edgelist,
    )

    if args.family == "rmat":
        g = rmat_graph(
            args.scale, int(args.degree), directed=args.directed, seed=args.seed
        )
    elif args.family == "uniform":
        g = uniform_random_graph_nm(
            args.n, args.degree, directed=args.directed, seed=args.seed
        )
    else:
        g = snap_standin(args.family, seed=args.seed)
    if args.weights:
        g = with_random_weights(g, args.weights[0], args.weights[1], seed=args.seed)
    write_edgelist(g, args.output)
    print(f"wrote {g} to {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    """``simulate``, and ``trace``: the same run inside an obs session."""
    from repro import obs
    from repro.core import mfbc
    from repro.dist import DistributedEngine

    g = _load(args.graph, args.directed)
    machine = build_machine(args)
    session = None
    if args.command == "trace":
        session = obs.enable(metrics=machine.metrics)
        obs.set_modeled_clock(machine.ledger.critical_time)
    try:
        engine = DistributedEngine(machine, policy=_build_policy(args))
        res = mfbc(
            g,
            batch_size=args.batch,
            engine=engine,
            max_batches=args.batches,
            **_checkpoint_kwargs(args.checkpoint),
        )
    finally:
        if session is not None:
            obs.disable()
    print(f"graph: {g}; p={args.p}; policy={args.policy}")
    if session is not None:
        _print_trace_reports(args, session, machine, res)
    else:
        led = machine.ledger.snapshot()
        print(f"sources processed : {res.stats.sources_processed}")
        print(f"matmuls           : {res.stats.total_multiplications}")
        print(f"critical words    : {led['words']:.0f}")
        print(f"critical messages : {led['msgs']:.0f}")
        print(f"modeled comm time : {led['comm_time'] * 1e3:.3f} ms")
        print(f"modeled total time: {led['time'] * 1e3:.3f} ms")
        # one number to compare two runs' scores by (bit-identity, e.g. a
        # recovered faulty run against the fault-free one)
        print(f"scores crc32      : {zlib.crc32(res.scores.tobytes()):08x}")
    print_run_reports(machine)
    _print_recovery_summary(machine)
    _print_check_summary(engine)
    if session is not None:
        rec = obs.reconcile(session.tracer, machine.ledger)
        print(
            f"\nreconciliation: span modeled total "
            f"{rec['span_modeled_seconds']:.6e}s vs ledger critical path "
            f"{rec['ledger_seconds']:.6e}s "
            f"(relative error {rec['relative_error']:.2e})"
        )
        print(f"\nwrote Chrome trace to {args.output} (load in ui.perfetto.dev)")
        if args.jsonl:
            print(f"wrote span/metric JSONL to {args.jsonl}")
    if machine.faults is not None and machine.faults.unfired():
        # a one-shot scripted past the run's last collective leaves the run
        # fault-free: fail loudly instead of passing vacuously
        print(f"FAIL: scripted faults never fired: {machine.faults.unfired()}", file=sys.stderr)
        return 1
    return 0


def _print_trace_reports(args, session, machine, res) -> None:
    """Write the trace files; print the timeline and the run's reports."""
    from repro import obs
    from repro.analysis import report

    obs.write_chrome_trace(session.tracer, args.output)
    if args.jsonl:
        obs.write_jsonl(session.tracer, args.jsonl, metrics=session.metrics)
    print(f"sources processed: {res.stats.sources_processed}")
    print()
    print(obs.render_timeline(session.tracer))
    print(report.format_trace_report(session.tracer, machine.ledger))


def print_reports(names, metrics) -> None:
    """Print each named metric report that has rows, blank-line separated."""
    from repro.analysis.report import format_report

    for name in names:
        table = format_report(name, metrics)
        if table:
            print()
            print(table)


def print_run_reports(machine) -> None:
    """The run's event sections, every count read from ``machine.metrics``:
    the fault plan when one is attached, the ``faults`` report, then the
    peak against the budget when one is set and the ``memory`` report.  A
    report with no events prints nothing; each event's step, rank and detail
    stay in ``machine.faults.events`` and the trace's ``fault.<kind>``
    events."""
    from repro.analysis.report import format_report

    if machine.faults is not None:
        print(f"\nfaults            : {machine.faults.describe()}")
    print_reports(("faults",), machine.metrics)
    if machine.memory_words is not None:  # only a budget relieves or spills
        table = format_report("memory", machine.metrics)
        print(
            f"\nmemory            : peak {machine.memory_peak():.0f} words/rank "
            f"(budget {machine.memory_words})" + (f"\n{table}" if table else "")
        )


def _print_recovery_summary(machine) -> None:
    for rep in getattr(machine, "recoveries", ()):
        print(
            f"recovery          : p {rep.p_before} -> {rep.p_after}; "
            f"dead={list(rep.dead)} retired={list(rep.retired)}"
        )


def _print_check_summary(engine) -> None:
    from repro.check import CheckedEngine

    if isinstance(engine, CheckedEngine):
        s = engine.stats
        print(
            f"checking          : {engine.config.describe()} "
            f"({s['validated']} validations, {s['replayed']} replays, "
            f"{s['mismatches']} mismatches)"
        )


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import BCService, OverloadConfig, serve_http

    g = _load(args.graph, args.directed)
    overload = OverloadConfig(
        max_queued=args.max_queued,
        max_queued_seconds=args.max_queued_seconds,
        client_rate=args.rate_limit,
        client_burst=args.rate_burst,
        brownout_algorithm=args.brownout_algorithm,
        brownout_epsilon=args.brownout_epsilon,
        brownout_delta=args.brownout_delta,
    )
    service = BCService(
        g,
        machine=build_machine(args),
        policy=_build_policy(args),
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        cache_capacity=args.cache_capacity,
        overload=overload,
    )
    server = serve_http(service, args.host, args.port, verbose=args.verbose)
    print(f"serving {g} on {server.address} (p={args.p}, policy={args.policy})")
    print("endpoints: POST /v1/query, GET /v1/query/<id>, GET /v1/stats, "
          "POST /v1/graph, GET /v1/healthz")

    # SIGTERM → graceful drain: stop admitting, finish queued work within
    # --drain-timeout, then shut the HTTP front end down
    def _terminate(signum, frame):  # pragma: no cover - signal path
        print("\nSIGTERM: draining", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        service.close(drain_timeout=args.drain_timeout)
        stats = service.stats()
        print(
            f"served {stats['completed']} queries in {stats['batches']} sweeps "
            f"(coalescing factor {stats['coalescing_factor']:.2f}, "
            f"cache hit-rate {stats['cache']['hit_rate']:.1%}); "
            f"{stats['shed']} shed, {stats['degraded']} degraded"
        )
        print_reports(("cache", "overload"), service.metrics)
        print_run_reports(service.machine)
    return 0


def _cmd_info(args) -> int:
    g = _load(args.graph, args.directed)
    print(f"name      : {g.name or '(unnamed)'}")
    print(f"vertices  : {g.n}")
    print(f"edges     : {g.m}")
    print(f"directed  : {g.directed}")
    print(f"weighted  : {g.weighted}")
    print(f"avg degree: {g.average_degree():.2f}")
    print(f"max degree: {g.max_degree()}")
    print(f"diameter  : {g.diameter_hops()} hops")
    return 0


def _cmd_verify(args) -> int:
    import numpy as np

    from repro.baselines import brandes_bc, combblas_bc
    from repro.core import mfbc
    from repro.dist import DistributedEngine
    from repro.utils.rng import as_rng

    g = _load(args.graph, args.directed)
    rng = as_rng(args.seed)
    sources = rng.choice(g.n, size=min(args.samples, g.n), replace=False)
    checks: list[tuple[str, bool]] = []

    ref = brandes_bc(g, sources=sources)
    seq = mfbc(g, sources=sources).scores
    checks.append(("MFBC (sequential) == Brandes", np.allclose(seq, ref, atol=1e-6)))

    if not g.weighted:
        cb = combblas_bc(g, sources=sources).scores
        checks.append(("CombBLAS-style == Brandes", np.allclose(cb, ref, atol=1e-6)))

    if args.p > 1:
        eng = DistributedEngine(build_machine(args))
        dist = mfbc(g, sources=sources, engine=eng).scores
        checks.append(
            (f"MFBC (simulated p={args.p}) == sequential",
             np.allclose(dist, seq, atol=1e-6))
        )
        _print_check_summary(eng)

    ok = True
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok &= passed
    print("verification", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "bc": _cmd_bc,
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "trace": _cmd_simulate,
        "serve": _cmd_serve,
        "info": _cmd_info,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
