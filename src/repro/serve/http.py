"""A thin stdlib HTTP/JSON front end over :class:`~repro.serve.BCService`.

Endpoints (all JSON):

* ``POST /v1/query`` — submit.  Body: ``{"algorithm": "bc_source",
  "source": 3}`` plus optional ``samples``/``seed`` (approx_bc),
  ``epsilon``/``delta``/``seed`` (adaptive_bc),
  ``deadline`` (modeled-seconds budget), and ``"wait": true`` to block for
  the result instead of polling.  Returns ``{"id": "q7", "state": ...}``.
* ``GET /v1/query/<id>`` — poll; terminal states carry ``result``/``error``.
* ``DELETE /v1/query/<id>`` — cancel a queued query.
* ``POST /v1/graph`` — replace the served graph: ``{"n": 8, "edges":
  [[0, 1], [1, 2, 0.5], ...], "directed": false}``.  Bumps the version and
  invalidates the cache.
* ``GET /v1/stats`` — service counters, cache stats, coalescing factor.
* ``GET /v1/healthz`` — the truthful health model: 200 with the full
  :meth:`~repro.serve.BCService.health` body while the service is live
  (``ok``/``degraded``), 503 when it is not (``overloaded``/``draining``/
  ``dead`` — e.g. the dispatcher thread died and the watchdog has not yet
  revived it).

Overload surfaces here as **HTTP 503 + Retry-After**: a shed submission
(:class:`~repro.serve.overload.AdmissionError`) returns
``{"error": ..., "reason": "overloaded|queue_seconds|rate_limited|"
"circuit_open|draining", "retry_after": seconds}`` with the
``Retry-After`` header set from the admission controller's drain-rate
estimate.  Brownout-degraded answers carry ``degraded: true`` (plus
``requested_algorithm``/``stale_version``) in the query status.  The
``X-Client-Id`` request header (falling back to the peer address) names
the per-client rate-limit principal.

The server is a ``ThreadingHTTPServer``: handler threads only enqueue,
poll, and read the cache — all actual computation stays on the service's
single dispatcher thread, so concurrency here means request admission
concurrency (and coalescing opportunity), never ledger races.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.overload import AdmissionError
from repro.serve.service import BCService, QueryState

__all__ = ["ServiceHTTPServer", "serve_http"]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _sanitize_floats(obj):
    """JSON has no inf/nan; encode them as strings the way numpy prints."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, list):
        return [_sanitize_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _sanitize_floats(v) for k, v in obj.items()}
    return obj


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    @property
    def service(self) -> BCService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # pragma: no cover - silence stderr
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    # -- plumbing ------------------------------------------------------------

    def _send(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(_sanitize_floats(_jsonable(payload))).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        data = json.loads(raw.decode())
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:
        try:
            if self.path == "/v1/healthz":
                health = self.service.health()
                health["ok"] = health["live"]
                self._send(200 if health["live"] else 503, health)
            elif self.path == "/v1/stats":
                self._send(200, self.service.stats())
            elif self.path.startswith("/v1/query/"):
                qid = self.path.rsplit("/", 1)[1]
                self._send(200, self.service.poll(qid))
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except KeyError as exc:
            self._error(404, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:
        try:
            body = self._read_json()
            if self.path == "/v1/query":
                self._post_query(body)
            elif self.path == "/v1/graph":
                self._post_graph(body)
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_DELETE(self) -> None:
        try:
            if self.path.startswith("/v1/query/"):
                qid = self.path.rsplit("/", 1)[1]
                self._send(200, {"id": qid, "cancelled": self.service.cancel(qid)})
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except KeyError as exc:
            self._error(404, str(exc))

    def _post_query(self, body: dict) -> None:
        algorithm = body.get("algorithm")
        if not algorithm:
            raise ValueError("missing required field: algorithm")
        client = self.headers.get("X-Client-Id") or self.client_address[0]
        wait = bool(body.get("wait"))
        try:
            status = self.service.ask(
                str(algorithm),
                timeout=float(body.get("timeout", 60.0)) if wait else 0.0,
                source=body.get("source"),
                samples=body.get("samples"),
                seed=int(body.get("seed", 0)),
                epsilon=body.get("epsilon"),
                delta=body.get("delta"),
                deadline=body.get("deadline"),
                client=client,
            )
        except AdmissionError as exc:
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = f"{max(exc.retry_after, 0.0):.3f}"
            self._send(
                503,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "retry_after": exc.retry_after,
                },
                headers,
            )
            return
        # a submit-time cache hit already carries the answer
        done = status["state"] == QueryState.DONE.value
        self._send(200 if wait or done else 202, status)

    def _post_graph(self, body: dict) -> None:
        from repro.graphs.graph import Graph

        n = body.get("n")
        edges = body.get("edges")
        if n is None or edges is None:
            raise ValueError("graph update requires fields: n, edges")
        edges = [list(e) for e in edges]
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        weighted = any(len(e) > 2 for e in edges)
        weight = (
            np.array([float(e[2]) if len(e) > 2 else 1.0 for e in edges])
            if weighted
            else None
        )
        graph = Graph(
            int(n), src, dst, weight, directed=bool(body.get("directed", False))
        )
        version = self.service.update_graph(graph)
        self._send(200, {"graph_version": version, "n": graph.n, "m": graph.m})


class ServiceHTTPServer(ThreadingHTTPServer):
    """The service's HTTP front end; ``serve_forever()`` to run."""

    daemon_threads = True

    def __init__(
        self,
        service: BCService,
        host: str = "127.0.0.1",
        port: int = 8734,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, load benches)."""
        thread = threading.Thread(
            target=self.serve_forever, name="bcservice-http", daemon=True
        )
        thread.start()
        return thread


def serve_http(
    service: BCService,
    host: str = "127.0.0.1",
    port: int = 8734,
    *,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (port 0 picks a free port) — call ``serve_forever()`` or
    ``start_background()`` on the returned server."""
    return ServiceHTTPServer(service, host, port, verbose=verbose)
