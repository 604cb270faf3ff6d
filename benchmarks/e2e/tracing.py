"""Outside-in tracing for the traced benchmark pass.

Each layer boundary of ``repro`` (a public function or method) is replaced,
for the duration of the traced run only, by a wrapper that records a span:
name, start, end, parent and the unit of work (rep / query wave) it belongs
to.  A span's *self* time is its duration minus the part its child spans
cover, kept with a per-thread stack, so the self times of one thread add up
to the time that thread spent inside any wrapped call.

Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every patched
attribute back and :meth:`Tracer.restored` proves it.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict, deque

_perf = time.perf_counter

#: (module, class or None, attributes, span name).  Functions that other
#: modules import by name (``spgemm``, ``mfbf``, ``mfbr``, ``mfbc``) are
#: patched in each *importing* module, which is where the call resolves them.
#: Modules are resolved with ``importlib`` because ``repro/__init__`` rebinds
#: the name ``repro.spgemm`` to a function.
BOUNDARIES: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.core.engine", None, ("spgemm",), "sparse.spgemm"),
    ("repro.machine.executor", None, ("spgemm",), "sparse.spgemm"),
    ("repro.spgemm.variants", None, ("spgemm",), "sparse.spgemm"),
    ("repro.sparse.spmatrix", "SpMat", ("__init__",), "sparse.spmat_build"),
    ("repro.sparse.spmatrix", "SpMat",
     ("combine", "filter", "map", "zip_filter", "zip_map"), "sparse.elementwise"),
    ("repro.dist.distmat", "DistMat", ("redistribute",), "dist.redistribute"),
    ("repro.dist.distmat", "DistMat", ("distribute",), "dist.distribute"),
    ("repro.dist.engine", "DistributedEngine", ("adjacency",), "dist.distribute"),
    ("repro.dist.distmat", "DistMat", ("gather",), "dist.gather"),
    ("repro.dist.distmat", "DistMat",
     ("transpose", "extract_col_range", "extract_row_range"), "dist.slice"),
    ("repro.dist.distmat", "DistMat",
     ("combine", "filter", "map", "zip_filter", "zip_map"), "dist.elementwise"),
    ("repro.dist.engine", "DistributedEngine", ("spgemm",), "dist.engine_spgemm"),
    ("repro.spgemm.variants", None, ("execute_plan",), "spgemm.execute_plan"),
    ("repro.spgemm.selector", "AutoPolicy", ("select",), "spgemm.select"),
    ("repro.spgemm.selector", "PinnedPolicy", ("select",), "spgemm.select"),
    ("repro.machine.collectives", "Group",
     ("bcast", "reduce", "allreduce", "sparse_reduce", "scatter", "gather",
      "allgather"), "machine.collectives"),
    ("repro.machine.machine", "Machine",
     ("charge_collective", "charge_pointtopoint", "charge_compute",
      "charge_overhead", "charge_spill", "charge_allocation", "allocate",
      "free"), "machine.ledger"),
    ("repro.machine.executor", "LocalExecutor",
     ("run_tasks", "run_spgemm"), "machine.executor"),
    ("repro.core.mfbc", None, ("mfbf",), "core.mfbf"),
    ("repro.core.mfbc", None, ("mfbr",), "core.mfbr"),
    ("repro.serve.service", None, ("mfbc", "mfbc_per_source"), "core.driver"),
    ("repro.serve.service", "BCService", ("submit",), "serve.submit"),
    ("repro.serve.service", "BCService", ("update_graph",), "serve.update_graph"),
    ("repro.graphs.graph", "Graph", ("adjacency",), "graphs.adjacency"),
)


def _count_spgemm(counts, args, result):
    if result.ops is not None:
        counts["sparse.spgemm_ops"] += result.ops


def _count_plan(counts, args, result):
    counts["spgemm.products"] += 1
    counts[f"spgemm.plans_{result.kind}"] += 1


#: extra counts read off a boundary's arguments or result
_COUNTERS = {"sparse.spgemm": _count_spgemm, "spgemm.select": _count_plan}


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list] = []  # [span id, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Spans, self times and counts for one traced run."""

    #: the Chrome trace keeps only the newest spans (a serve stream makes
    #: hundreds of thousands)
    MAX_SPANS = 20_000

    def __init__(self) -> None:
        self.unit = 0  # current rep / query wave, stamped on every span
        self.spans: deque[tuple] = deque(maxlen=self.MAX_SPANS)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` recorded around every call."""
        counter = _COUNTERS.get(name)
        state, spans = self._state, self.spans

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            self._next_id += 1  # racy across threads: ids only label the trace
            frame = [self._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - start
                st.self_s[name] += dur - frame[1]
                st.calls[name] += 1
                if parent is not None:
                    parent[1] += dur
                spans.append(
                    (name, start, end, frame[0],
                     parent[0] if parent is not None else 0, st.tid, self.unit)
                )
            if counter is not None:
                counter(st.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """``(self seconds, calls, extra counts)`` summed over threads."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for st in list(self._states):
            for key, val in list(st.self_s.items()):
                self_s[key] += val
            for key, val in list(st.calls.items()):
                calls[key] += val
            for key, val in list(st.counts.items()):
                counts[key] += val
        return self_s, calls, counts

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        for module, cls, attrs, name in BOUNDARIES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            for attr in attrs:
                original = owner.__dict__[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    patched = type(original)(self.wrap(original.__func__, name))
                else:
                    patched = self.wrap(original, name)
                setattr(owner, attr, patched)
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute ever patched is the original object again."""
        return all(
            owner.__dict__[attr] is original
            for owner, attr, original in self._patched
        )

    # -- output ------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """The newest spans as Chrome ``trace_event`` complete events."""
        spans = list(self.spans)
        t0 = min((s[1] for s in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "unit": unit},
            }
            for name, start, end, span_id, parent, tid, unit in spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
