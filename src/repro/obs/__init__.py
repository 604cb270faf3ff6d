"""repro.obs — structured tracing + metrics for the whole stack.

Self-contained (stdlib-only) observability subsystem:

* :mod:`repro.obs.tracer` — nested spans on two clocks (wall + modeled
  α-β ledger time), Chrome ``trace_event`` / JSONL export;
* :mod:`repro.obs.metrics` — labeled counter series;
* :mod:`repro.obs.api` — the zero-overhead-when-disabled global hooks
  that instrumented code calls (``obs.span``, ``obs.count``, ...);
* :mod:`repro.obs.timeline` — text timeline + ledger reconciliation.

Typical capture::

    from repro import obs

    session = obs.enable()
    obs.set_modeled_clock(machine.ledger.critical_time)
    ...  # run the traced workload
    obs.disable()
    obs.write_chrome_trace(session.tracer, "trace.json")
    machine.ledger.category_words["bcast"]   # the ledger holds the traffic
"""

from repro.obs.api import (
    NULL_SPAN,
    Session,
    Timer,
    complete,
    count,
    disable,
    enable,
    enabled,
    metrics,
    set_attr,
    set_modeled_clock,
    span,
    timed,
    tracer,
    use,
)
from repro.obs.metrics import Metrics
from repro.obs.timeline import reconcile, render_timeline
from repro.obs.tracer import (
    Span,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    # core types
    "Span",
    "Tracer",
    "Metrics",
    "Session",
    "Timer",
    "NULL_SPAN",
    # export
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    # views
    "render_timeline",
    "reconcile",
    # hook API
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
]
