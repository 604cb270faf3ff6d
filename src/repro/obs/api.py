"""Global observability hooks: zero overhead unless a session is active.

Instrumented code throughout the stack calls this module::

    from repro.obs import api as obs

    with obs.span("spgemm", cat="spgemm") as sp:   # NULL_SPAN when off
        ...
        if obs.enabled():                    # one truthiness check when off
            sp.set(variant=plan.describe())

When no session is active every hook is a no-op: :func:`span` returns the
shared :data:`NULL_SPAN` singleton without allocating, and :func:`count` /
:func:`complete` / :func:`set_attr` return immediately.  Hot paths
additionally guard with :func:`enabled` so they do not even build argument
dicts.

Sessions form a stack: :func:`enable` pushes a (tracer, metrics) pair that
receives all events until :func:`disable` pops it.  :func:`use` is the
context-manager form; an inner ``use`` block captures its own private
stream without touching an outer session.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.metrics import Metrics
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Session",
    "NULL_SPAN",
    "enabled",
    "enable",
    "disable",
    "use",
    "tracer",
    "metrics",
    "span",
    "complete",
    "count",
    "set_attr",
    "set_modeled_clock",
    "timed",
    "Timer",
]


@dataclass
class Session:
    """One active capture: a tracer plus a metrics registry."""

    tracer: Tracer
    metrics: Metrics


class _NullSpan:
    """Shared no-op stand-in for a span when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()

_SESSIONS: list[Session] = []


# -- session management -------------------------------------------------------


def enabled() -> bool:
    """True when a capture session is active (the hot-path guard)."""
    return bool(_SESSIONS)


def enable(
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    modeled_clock: Callable[[], float] | None = None,
) -> Session:
    """Push a capture session; every hook now records into it."""
    session = Session(
        tracer=tracer or Tracer(modeled_clock=modeled_clock),
        metrics=metrics or Metrics(),
    )
    if modeled_clock is not None and session.tracer.modeled_clock is None:
        session.tracer.modeled_clock = modeled_clock
    _SESSIONS.append(session)
    return session


def disable() -> Session | None:
    """Pop the innermost session (no-op when none is active)."""
    return _SESSIONS.pop() if _SESSIONS else None


@contextmanager
def use(
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    modeled_clock: Callable[[], float] | None = None,
) -> Iterator[Session]:
    """Context-manager capture session (private stream while inside)."""
    session = enable(tracer, metrics, modeled_clock)
    try:
        yield session
    finally:
        if not _SESSIONS or _SESSIONS[-1] is not session:
            raise RuntimeError("observability session stack corrupted")
        _SESSIONS.pop()


def tracer() -> Tracer | None:
    """The active session's tracer, or None."""
    return _SESSIONS[-1].tracer if _SESSIONS else None


def metrics() -> Metrics | None:
    """The active session's metrics registry, or None."""
    return _SESSIONS[-1].metrics if _SESSIONS else None


def set_modeled_clock(clock: Callable[[], float]) -> None:
    """Attach the modeled clock (e.g. ``machine.ledger.critical_time``) to
    the active tracer.  Raises when no session is active."""
    if not _SESSIONS:
        raise RuntimeError("no active observability session (call obs.enable())")
    _SESSIONS[-1].tracer.modeled_clock = clock


# -- tracing hooks ------------------------------------------------------------


def span(name: str, cat: str = "", **attrs):
    """Open a span on the active tracer; :data:`NULL_SPAN` when disabled."""
    if not _SESSIONS:
        return NULL_SPAN
    return _SESSIONS[-1].tracer.span(name, cat, **attrs)


def complete(
    name: str,
    cat: str = "",
    *,
    modeled_ts: float | None = None,
    modeled_dur: float | None = None,
    wall_ts: float | None = None,
    wall_dur: float = 0.0,
    args: dict | None = None,
) -> Span | None:
    """Record an already-finished operation on the active tracer."""
    if not _SESSIONS:
        return None
    return _SESSIONS[-1].tracer.complete(
        name,
        cat,
        modeled_ts=modeled_ts,
        modeled_dur=modeled_dur,
        wall_ts=wall_ts,
        wall_dur=wall_dur,
        args=args,
    )


def set_attr(**attrs) -> None:
    """Set attributes on the innermost open span, if any."""
    if not _SESSIONS:
        return
    current = _SESSIONS[-1].tracer.current()
    if current is not None:
        current.set(**attrs)


# -- metric hooks -------------------------------------------------------------


def count(name: str, value: float = 1.0, **labels) -> None:
    if _SESSIONS:
        _SESSIONS[-1].metrics.count(name, value, **labels)


# -- the benchmark timer helper ----------------------------------------------


class Timer:
    """Wall-clock timer: ``.seconds`` after the block exits, with or
    without a session — a drop-in replacement for the benches'
    hand-rolled ``time.perf_counter()`` pairs.  With a session active the
    measurement also lands on its tracer as a ``timer`` span.
    """

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.seconds: float | None = None
        self._t0: float | None = None

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._t0
        if _SESSIONS:
            tr = _SESSIONS[-1].tracer
            tr.complete(
                self.name,
                cat="timer",
                wall_ts=tr.now() - self.seconds,
                wall_dur=self.seconds,
                args=dict(self.labels),
            )
        return False


def timed(name: str, **labels) -> Timer:
    """``with obs.timed("bench.x", variant="2D") as t: ...`` → ``t.seconds``."""
    return Timer(name, labels)
