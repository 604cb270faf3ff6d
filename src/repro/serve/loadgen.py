"""Seeded load generator for the serving layer (bench + CI smoke).

Drives a :class:`~repro.serve.BCService` — directly in-process or through
the HTTP front end — with a deterministic mixed query stream: mostly
single-source BC (the coalescer's bread and butter) with BFS/SSSP/widest,
sampled-BC, and whole-graph queries sprinkled in.  Sources are drawn from
a skewed popularity distribution (a hot set plus a uniform tail), so the
stream exercises both the cache (repeats) and the coalescer (distinct
concurrent sources).

Run standalone as the CI smoke::

    python -m repro.serve.loadgen --queries 120 --concurrency 8 \
        --http --faults seed:3,crash@40:1 --elastic on

which exits non-zero when any query fails — injected faults must recover
transparently, never surface to a client.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.serve.service import SOURCE_ALGORITHMS, BCService
from repro.utils.rng import as_rng

__all__ = [
    "LoadReport",
    "generate_queries",
    "run_load",
    "main",
    "DEFAULT_MIX",
    "OUTCOMES",
]

#: default algorithm mix (weights; normalized at draw time)
DEFAULT_MIX: dict[str, float] = {
    "bc_source": 0.55,
    "bfs": 0.15,
    "sssp": 0.10,
    "widest": 0.05,
    "approx_bc": 0.05,
    "connected": 0.05,
    "triangles": 0.05,
}


#: per-query outcome labels clients classify into
OUTCOMES = ("done", "degraded", "shed", "expired", "failed")


@dataclass
class LoadReport:
    """What the load run measured (latencies in wall seconds).

    ``completed`` counts every answered query (exact *and* degraded);
    ``degraded`` is the brownout subset of those.  ``shed`` submissions
    were rejected by admission control (HTTP 503 / ``AdmissionError``) —
    they are the overload design working, not failures — and ``expired``
    queries blew their deadline.  Latency percentiles are computed over
    completed queries only, so sheds (which return in microseconds) never
    flatter the tail.
    """

    queries: int
    completed: int
    failed: int
    wall_seconds: float
    latencies: list[float] = field(default_factory=list, repr=False)
    cache_hit_rate: float = 0.0
    coalescing_factor: float = 0.0
    batches: int = 0
    shed: int = 0
    degraded: int = 0
    expired: int = 0
    offered_qps: float | None = None

    @property
    def throughput_qps(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def goodput_qps(self) -> float:
        """Answered queries per second (degraded answers still count)."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def summary(self) -> str:
        return (
            f"{self.queries} queries in {self.wall_seconds:.2f}s "
            f"({self.throughput_qps:.1f} q/s offered, "
            f"{self.goodput_qps:.1f} q/s goodput); "
            f"p50 {self.percentile(50) * 1e3:.2f} ms, "
            f"p99 {self.percentile(99) * 1e3:.2f} ms; "
            f"{self.failed} failed, {self.shed} shed, "
            f"{self.degraded} degraded, {self.expired} expired; "
            f"cache hit-rate {self.cache_hit_rate:.1%}; "
            f"coalescing factor {self.coalescing_factor:.2f} "
            f"({self.batches} sweeps)"
        )


def generate_queries(
    n_queries: int,
    n_vertices: int,
    *,
    seed: int = 0,
    mix: dict[str, float] | None = None,
    hot_fraction: float = 0.05,
    hot_probability: float = 0.5,
) -> list[dict]:
    """A deterministic stream of query specs (dicts for ``submit(**spec)``)."""
    rng = as_rng(seed)
    mix = mix or DEFAULT_MIX
    names = sorted(mix)
    weights = np.array([mix[k] for k in names], dtype=np.float64)
    weights = weights / weights.sum()
    hot = rng.choice(n_vertices, size=max(1, int(n_vertices * hot_fraction)), replace=False)
    specs: list[dict] = []
    for _ in range(n_queries):
        algorithm = names[int(rng.choice(len(names), p=weights))]
        spec: dict = {"algorithm": algorithm}
        if algorithm in SOURCE_ALGORITHMS:
            if rng.random() < hot_probability:
                spec["source"] = int(hot[int(rng.integers(len(hot)))])
            else:
                spec["source"] = int(rng.integers(n_vertices))
        elif algorithm == "approx_bc":
            spec["samples"] = int(min(n_vertices, 8))
            spec["seed"] = int(rng.integers(4))
        specs.append(spec)
    return specs


# -- clients ------------------------------------------------------------------


def _outcome(status: dict) -> str:
    """The load outcome of a finished query's poll status."""
    state = status.get("state")
    if state == "done":
        return "degraded" if status.get("degraded") else "done"
    return "expired" if state == "expired" else "failed"


class DirectClient:
    """Submits straight into the service object (in-process load)."""

    def __init__(
        self, service: BCService, timeout: float = 120.0, client: str | None = None
    ) -> None:
        self.service = service
        self.timeout = timeout
        self.client = client

    def run_one(self, spec: dict) -> tuple[float, str]:
        from repro.serve.overload import AdmissionError

        t0 = time.perf_counter()
        try:
            status = self.service.ask(**spec, timeout=self.timeout, client=self.client)
            outcome = _outcome(status)
        except AdmissionError:
            outcome = "shed"
        except Exception:
            outcome = "failed"
        return time.perf_counter() - t0, outcome

    def stats(self) -> dict:
        return self.service.stats()


class HTTPClient:
    """Submits through the HTTP front end (end-to-end load)."""

    def __init__(
        self, base_url: str, timeout: float = 120.0, client: str | None = None
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client = client

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"}
        if self.client is not None:
            headers["X-Client-Id"] = self.client
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=headers,
        )
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return json.loads(resp.read().decode())

    def run_one(self, spec: dict) -> tuple[float, str]:
        import urllib.error

        t0 = time.perf_counter()
        try:
            status = self._request(
                "POST",
                "/v1/query",
                {**spec, "wait": True, "timeout": self.timeout},
            )
            outcome = _outcome(status)
        except urllib.error.HTTPError as exc:
            outcome = "shed" if exc.code == 503 else "failed"
        except Exception:
            outcome = "failed"
        return time.perf_counter() - t0, outcome

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")


def run_load(
    client,
    specs: list[dict],
    *,
    concurrency: int = 8,
    offered_qps: float | None = None,
) -> LoadReport:
    """Fire ``specs`` at ``client`` from a thread pool; measure latencies.

    Closed-loop by default: ``concurrency`` workers each issue the next
    query as soon as their previous one returns (throughput self-limits to
    what the service can drain).  With ``offered_qps`` the run is paced
    open-loop: query *i* is released at ``t0 + i/offered_qps`` regardless
    of completions, which is how you push a service past saturation — the
    overload soak's arrival model.
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    if offered_qps is not None and offered_qps <= 0:
        raise ValueError(f"offered_qps must be positive, got {offered_qps}")
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        if offered_qps is None:
            outcomes = list(pool.map(client.run_one, specs))
        else:
            futures = []
            for i, spec in enumerate(specs):
                release = t0 + i / offered_qps
                delay = release - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(client.run_one, spec))
            outcomes = [f.result() for f in futures]
    wall = time.perf_counter() - t0
    stats = client.stats()
    cache = stats.get("cache", {})
    tally = {k: 0 for k in OUTCOMES}
    for _, outcome in outcomes:
        tally[outcome] = tally.get(outcome, 0) + 1
    return LoadReport(
        queries=len(specs),
        completed=tally["done"] + tally["degraded"],
        failed=tally["failed"],
        wall_seconds=wall,
        latencies=[
            lat for lat, outcome in outcomes if outcome in ("done", "degraded")
        ],
        cache_hit_rate=float(cache.get("hit_rate", 0.0)),
        coalescing_factor=float(stats.get("coalescing_factor", 0.0)),
        batches=int(stats.get("batches", 0)),
        shed=tally["shed"],
        degraded=tally["degraded"],
        expired=tally["expired"],
        offered_qps=offered_qps,
    )


# -- CLI entry (the CI smoke) -------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from repro.cli import add_run_flags, build_machine, print_reports, print_run_reports

    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="seeded load generator / smoke test for repro.serve",
    )
    parser.add_argument("--queries", type=int, default=120)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=int, default=8, help="log2 vertices (R-MAT)")
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--p", type=int, default=4, help="simulated ranks")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--batch-window", type=float, default=0.005)
    parser.add_argument("--http", action="store_true", help="drive via the HTTP front end")
    add_run_flags(parser, "faults", "elastic", "check")
    args = parser.parse_args(argv)

    from repro.graphs import rmat_graph

    graph = rmat_graph(args.scale, args.degree, seed=args.seed)
    specs = generate_queries(args.queries, graph.n, seed=args.seed)
    service = BCService(
        graph,
        machine=build_machine(args),
        max_batch=args.max_batch,
        batch_window=args.batch_window,
    )
    server = None
    try:
        if args.http:
            from repro.serve.http import serve_http

            server = serve_http(service, port=0)
            server.start_background()
            client = HTTPClient(server.address)
            print(f"HTTP front end at {server.address}")
        else:
            client = DirectClient(service)
        report = run_load(client, specs, concurrency=args.concurrency)
    finally:
        if server is not None:
            server.shutdown()
        service.close()
    print(report.summary())
    print_reports(("cache", "overload"), service.metrics)
    print_run_reports(service.machine)
    faults = service.machine.faults
    if report.failed:
        print(f"FAIL: {report.failed} queries did not complete", file=sys.stderr)
        return 1
    if faults is not None and faults.unfired():
        # a one-shot scripted past the run's last collective leaves the
        # smoke fault-free: fail loudly instead of passing vacuously
        print(
            f"FAIL: scripted faults never fired: {faults.unfired()}",
            file=sys.stderr,
        )
        return 1
    print("PASS: zero failed queries")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke
    sys.exit(main())
