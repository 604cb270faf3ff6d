"""Nested spans on two clocks, exportable as Chrome ``trace_event`` JSON.

A :class:`Tracer` records a tree of :class:`Span` records, each carrying

* **wall time** — ``time.perf_counter()`` seconds relative to the tracer's
  epoch (what the Python process actually spent), and
* **modeled time** — the simulated machine's α-β critical-path clock (what
  the modeled p-rank machine spent), read from an attached
  ``modeled_clock`` callable when one is set (usually
  ``machine.ledger.critical_time``).

Both timelines serialize to the Chrome ``trace_event`` format (the JSON
that ``chrome://tracing`` and https://ui.perfetto.dev load) as two
processes — pid 1 "wall clock", pid 2 "modeled (α-β)" — so a single file
shows where the Python run *and* the modeled machine spent their time.
A flat JSONL stream of the same spans is available for ad-hoc tooling.

The module is self-contained (stdlib only) so any layer of the stack can
import it without dependency cycles.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: Chrome-trace "process" ids for the two timelines.
PID_WALL = 1
PID_MODELED = 2


@dataclass
class Span:
    """One traced operation (possibly containing child spans)."""

    name: str
    cat: str
    index: int  # position in the tracer's span list (creation order)
    parent: int | None  # index of the enclosing span, None for roots
    depth: int  # nesting depth at open (0 for roots)
    wall_ts: float  # seconds since the tracer's wall epoch
    wall_dur: float | None = None  # None while the span is open
    modeled_ts: float | None = None  # modeled seconds at open (clock attached)
    modeled_dur: float | None = None
    args: dict = field(default_factory=dict)

    def set(self, **attrs) -> None:
        """Attach attributes to the span (shows up under ``args``)."""
        self.args.update(attrs)

    @property
    def closed(self) -> bool:
        return self.wall_dur is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "wall_ts": self.wall_ts,
            "wall_dur": self.wall_dur,
            "modeled_ts": self.modeled_ts,
            "modeled_dur": self.modeled_dur,
            "args": {k: _jsonable(v) for k, v in self.args.items()},
        }


class Tracer:
    """Collects spans; one per capture session.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span the *calling thread* has open: a client thread's
    span may close while the service's dispatcher has a sweep open.

    Parameters
    ----------
    modeled_clock:
        Optional zero-argument callable returning the current *modeled*
        time in seconds (monotone non-decreasing).  Spans opened while a
        clock is attached record modeled begin/duration alongside wall
        time.  Attach the simulator's critical-path clock with
        ``tracer.modeled_clock = machine.ledger.critical_time``.
    """

    def __init__(self, modeled_clock: Callable[[], float] | None = None) -> None:
        self.modeled_clock = modeled_clock
        self.spans: list[Span] = []  # creation order; LIFO per thread
        self._lock = threading.Lock()  # numbers and appends spans
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def now(self) -> float:
        """Wall seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    def _open(self) -> list[Span]:
        """The calling thread's stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sp: Span) -> Span:
        with self._lock:
            sp.index = len(self.spans)
            self.spans.append(sp)
        return sp

    def current(self) -> Span | None:
        """The calling thread's innermost open span, or None."""
        stack = self._open()
        return stack[-1] if stack else None

    def begin(self, name: str, cat: str = "", **attrs) -> Span:
        stack = self._open()
        sp = self._record(
            Span(
                name=name,
                cat=cat,
                index=-1,
                parent=stack[-1].index if stack else None,
                depth=len(stack),
                wall_ts=self.now(),
                modeled_ts=self.modeled_clock() if self.modeled_clock else None,
                args=dict(attrs),
            )
        )
        stack.append(sp)
        return sp

    def end(self, span: Span) -> Span:
        stack = self._open()
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span stack corrupted: closing {span.name!r} but the "
                f"innermost open span is "
                f"{stack[-1].name if stack else None!r}"
            )
        stack.pop()
        span.wall_dur = self.now() - span.wall_ts
        if span.modeled_ts is not None and self.modeled_clock is not None:
            span.modeled_dur = self.modeled_clock() - span.modeled_ts
        return span

    @contextmanager
    def span(self, name: str, cat: str = "", **attrs) -> Iterator[Span]:
        sp = self.begin(name, cat, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def complete(
        self,
        name: str,
        cat: str = "",
        *,
        modeled_ts: float | None = None,
        modeled_dur: float | None = None,
        wall_ts: float | None = None,
        wall_dur: float = 0.0,
        args: dict | None = None,
    ) -> Span:
        """Record an already-finished operation (e.g. one modeled collective).

        The span is parented under the calling thread's innermost open span
        but never enters the open stack.  ``wall_ts`` defaults to "now" —
        pass the start time explicitly when the operation had a real wall
        duration.
        """
        stack = self._open()
        return self._record(
            Span(
                name=name,
                cat=cat,
                index=-1,
                parent=stack[-1].index if stack else None,
                depth=len(stack),
                wall_ts=self.now() if wall_ts is None else wall_ts,
                wall_dur=wall_dur,
                modeled_ts=modeled_ts,
                modeled_dur=modeled_dur,
                args=dict(args or {}),
            )
        )

    # -- queries --------------------------------------------------------------

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def find(self, name: str | None = None, cat: str | None = None) -> list[Span]:
        return [
            s
            for s in self.spans
            if (name is None or s.name == name) and (cat is None or s.cat == cat)
        ]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _jsonable(v):
    """Coerce an attribute value to something JSON-serializable."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    try:  # numpy scalars expose item() without us importing numpy here
        return _jsonable(v.item())
    except AttributeError:
        return str(v)


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer as a Chrome ``trace_event`` JSON object.

    Every span becomes one complete ("X") event on the wall-clock process
    (pid 1); spans with modeled times add a second event on the modeled
    process (pid 2).  On the modeled process, collective events live on
    their own thread rows (tid ≥ 1): a collective's modeled start is the
    *participant* maximum, which may precede the enclosing span's *global*
    maximum, and collectives over disjoint rank groups genuinely overlap
    (the machine is parallel) — so overlapping collectives are spread over
    as many rows as the concurrency requires, each row staying properly
    nested.  The algorithm-span row (tid 0) nests by construction.
    Timestamps are microseconds, the format's native unit.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID_WALL,
            "tid": 0,
            "args": {"name": "wall clock"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID_MODELED,
            "tid": 0,
            "args": {"name": "modeled (alpha-beta machine)"},
        },
    ]
    collectives: list[dict] = []
    for sp in tracer.spans:
        args = {k: _jsonable(v) for k, v in sp.args.items()}
        events.append(
            {
                "name": sp.name,
                "cat": sp.cat or "span",
                "ph": "X",
                "pid": PID_WALL,
                "tid": 0,
                "ts": round(sp.wall_ts * 1e6, 3),
                "dur": round((sp.wall_dur or 0.0) * 1e6, 3),
                "args": args,
            }
        )
        if sp.modeled_ts is not None:
            ev = {
                "name": sp.name,
                "cat": sp.cat or "span",
                "ph": "X",
                "pid": PID_MODELED,
                "tid": 0,
                "ts": round(sp.modeled_ts * 1e6, 3),
                "dur": round((sp.modeled_dur or 0.0) * 1e6, 3),
                "args": args,
            }
            if sp.cat == "collective":
                collectives.append(ev)
            else:
                events.append(ev)
    # Greedy lane assignment: each collective goes on the first row whose
    # last event has ended (rows hold disjoint intervals, trivially nested).
    collectives.sort(key=lambda e: (e["ts"], -e["dur"]))
    lane_ends: list[float] = []
    eps = 1e-2  # µs; absorbs the 3-decimal rounding above
    for ev in collectives:
        for i, end in enumerate(lane_ends):
            if end <= ev["ts"] + eps:
                ev["tid"] = 1 + i
                lane_ends[i] = ev["ts"] + ev["dur"]
                break
        else:
            lane_ends.append(ev["ts"] + ev["dur"])
            ev["tid"] = len(lane_ends)
        events.append(ev)
    for i in range(len(lane_ends)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID_MODELED,
                "tid": 1 + i,
                "args": {"name": "collectives" if i == 0 else f"collectives +{i}"},
            }
        )
    events.sort(key=lambda e: (e["pid"], e["tid"], e.get("ts", -1.0), -e.get("dur", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict) -> None:
    """Raise :class:`ValueError` unless ``trace`` is a well-formed trace.

    Checks the schema (``traceEvents`` list of events with the required
    fields), JSON-serializability, and per-``(pid, tid)`` monotonic
    consistency: every complete event has finite ``ts ≥ 0`` and
    ``dur ≥ 0``, and events on one thread row are properly nested (any
    two either disjoint or one containing the other).
    """
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace is not JSON-serializable: {exc}") from exc
    rows: dict[tuple, list[tuple[float, float]]] = {}
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} missing required field {key!r}")
        if ev["ph"] == "M":
            continue
        if ev["ph"] != "X":
            raise ValueError(f"event {i} has unsupported phase {ev['ph']!r}")
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or not ts >= 0:
            raise ValueError(f"event {i} has invalid ts {ts!r}")
        if not isinstance(dur, (int, float)) or not dur >= 0:
            raise ValueError(f"event {i} has invalid dur {dur!r}")
        rows.setdefault((ev["pid"], ev["tid"]), []).append((float(ts), float(dur)))
    eps = 1e-2  # µs; absorbs the 3-decimal rounding of export
    for (pid, tid), ivals in rows.items():
        ivals.sort(key=lambda x: (x[0], -x[1]))
        stack: list[float] = []  # end timestamps of enclosing intervals
        prev_ts = -1.0
        for ts, dur in ivals:
            if ts < prev_ts - eps:
                raise ValueError(f"events on pid={pid} tid={tid} not sorted by ts")
            prev_ts = ts
            while stack and stack[-1] <= ts + eps:
                stack.pop()
            if stack and ts + dur > stack[-1] + eps:
                raise ValueError(
                    f"event at ts={ts} dur={dur} on pid={pid} tid={tid} "
                    f"overlaps its enclosing interval (ends {stack[-1]})"
                )
            stack.append(ts + dur)


def write_chrome_trace(tracer: Tracer, path) -> dict:
    """Validate and write the Chrome trace JSON; returns the trace object."""
    trace = chrome_trace(tracer)
    validate_chrome_trace(trace)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


def write_jsonl(tracer: Tracer, path, metrics=None) -> int:
    """Write one JSON object per line: spans, then metric samples.

    Returns the number of lines written.  ``metrics`` may be a
    :class:`~repro.obs.metrics.Metrics` registry (its snapshot rows are
    appended with ``"kind": "metric"``).
    """
    n = 0
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps({"kind": "span", **sp.to_dict()}) + "\n")
            n += 1
        if metrics is not None:
            for row in metrics.snapshot():
                fh.write(json.dumps({"kind": "metric", **row}) + "\n")
                n += 1
    return n
