"""Plain-text table rendering for benchmark and trace reports."""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "format_table",
    "trace_attribution",
    "format_trace_report",
    "cache_attribution",
    "overload_attribution",
    "fault_attribution",
    "memory_attribution",
    "REPORTS",
    "format_report",
]


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned fixed-width table (the benches print these)."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(vals):
        return "  ".join(v.rjust(w) for v, w in zip(vals, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def trace_attribution(tracer, ledger) -> list[dict]:
    """Attribute critical-path words and modeled time to span categories.

    One row per collective category (``bcast``, ``reduce``, ``replicate``,
    ``redistribute``, ...) found in the trace's collective spans, carrying
    the summed modeled time, word volume, and event count, plus each
    category's share of the ledger's critical-path modeled time — the §7.4
    breakdown ("where do the words and the time go?").
    """
    by_cat: dict[str, dict] = {}
    for sp in tracer.spans:
        if sp.cat != "collective":
            continue
        row = by_cat.setdefault(
            sp.name, {"category": sp.name, "events": 0, "seconds": 0.0, "words": 0.0}
        )
        row["events"] += 1
        row["seconds"] += sp.modeled_dur or 0.0
        row["words"] += float(sp.args.get("volume_words", 0.0))
    total_time = max(float(ledger.critical_time()), 1e-30)
    rows = sorted(by_cat.values(), key=lambda r: -r["seconds"])
    for row in rows:
        row["time_share"] = row["seconds"] / total_time
    return rows


def cache_attribution(metrics) -> list[dict]:
    """Per-algorithm serve-cache event totals from a service's registry.

    Reads the ``serve.cache.{hit,miss,invalidate}`` counter families a
    :class:`~repro.serve.cache.ScoreCache` counts into ``BCService.metrics``;
    one row per algorithm label plus the derived hit rate.  Empty when no
    cache events were recorded.
    """
    algorithms: set[str] = set()
    for name in ("serve.cache.hit", "serve.cache.miss", "serve.cache.invalidate"):
        for labels in metrics.series(name):
            algorithms.add(dict(labels).get("algorithm", ""))
    rows = []
    for alg in sorted(algorithms):
        hits = metrics.get_count("serve.cache.hit", algorithm=alg)
        misses = metrics.get_count("serve.cache.miss", algorithm=alg)
        invalidated = metrics.get_count("serve.cache.invalidate", algorithm=alg)
        total = hits + misses
        rows.append(
            {
                "algorithm": alg,
                "hits": int(hits),
                "misses": int(misses),
                "invalidated": int(invalidated),
                "hit_rate": hits / total if total else 0.0,
            }
        )
    return rows


#: the labeled overload counter families the serving layer emits
_OVERLOAD_COUNTERS: tuple[tuple[str, str], ...] = (
    ("serve.overload.shed", "reason"),
    ("serve.overload.degraded", "algorithm"),
    ("serve.overload.stale", "algorithm"),
    ("serve.overload.infeasible", "algorithm"),
    ("serve.overload.breaker_fastfail", "algorithm"),
    ("serve.overload.breaker", "state"),
    ("serve.overload.state", "transition"),
    ("serve.overload.dispatcher_restart", ""),
    ("serve.overload.dispatcher_stall", ""),
)


def overload_attribution(metrics) -> list[dict]:
    """Per-label overload event totals from a service's registry.

    Reads the ``serve.overload.*`` counter families the admission
    controller, watermark governor, circuit breaker, and watchdog count
    into ``BCService.metrics`` (see :mod:`repro.serve.overload`); one row
    per (event, label) pair.
    Empty when no overload events were recorded — a service that never
    came under pressure produces an empty table, not a zero-filled one.
    """
    rows = []
    for name, label_key in _OVERLOAD_COUNTERS:
        short = name.removeprefix("serve.overload.")
        for labels in metrics.series(name):
            label = dict(labels).get(label_key, "") if label_key else ""
            count = metrics.get_count(name, **dict(labels))
            if count:
                rows.append({"event": short, "label": label, "count": int(count)})
    return rows


#: action columns of the ``faults`` report, in lifecycle order — injection
#: first, then detection, then every recovery outcome, then the fatal ends;
#: any other action (a relief's ``evicted``) follows these
_FAULT_ACTIONS = (
    "injected",
    "detected",
    "recovered",
    "degraded",
    "resumed",
    "retired",
    "abandoned",
)


def fault_attribution(metrics) -> list[dict]:
    """Per-label-set run event totals from a machine's registry.

    Reads the ``faults.<action>{kind, site[, rung]}`` counters
    :func:`repro.faults.note` counts: one row per label set, with one key
    per action the run recorded (lifecycle order, zero where that label
    set saw none) and a ``rung`` key when any series carries one.  Empty
    when the run recorded no event.
    """
    counts: dict[tuple[str, str, str], dict[str, int]] = {}
    for name in metrics.names():
        if name.startswith("faults."):
            for labels, count in metrics.series(name).items():
                d = dict(labels)
                row = counts.setdefault((d["kind"], d["site"], d.get("rung", "")), {})
                row[name.removeprefix("faults.")] = int(count)
    seen = {a for row in counts.values() for a in row}
    actions = [a for a in _FAULT_ACTIONS if a in seen]
    actions += sorted(seen.difference(_FAULT_ACTIONS))
    with_rung = any(rung for _, _, rung in counts)
    rows = []
    for (kind, site, rung), row in sorted(counts.items()):
        head = {"kind": kind, "site": site, **({"rung": rung} if with_rung else {})}
        rows.append({**head, **{a: row.get(a, 0) for a in actions}})
    return rows


def memory_attribution(metrics) -> list[dict]:
    """Per-op spill traffic totals from a machine's registry.

    Reads the spill store's ``memory.spill.{events,words}{op}`` counters;
    the relief evictions, torn writes and ladder rungs of a pressured run
    are run events, in the ``faults`` report.  Empty when nothing was
    spilled.
    """
    ops = {dict(labels)["op"] for labels in metrics.series("memory.spill.events")}
    return [
        {
            "event": f"spill.{op}",
            "count": int(metrics.get_count("memory.spill.events", op=op)),
            "words": int(metrics.get_count("memory.spill.words", op=op)),
        }
        for op in sorted(ops)
    ]


#: the metric reports: ``repro serve`` (and the serve smoke and soak
#: scripts) print ``cache`` and ``overload`` from ``BCService.metrics`` at
#: shutdown; every command that runs a machine prints ``faults`` and
#: ``memory`` from ``machine.metrics`` (``repro.cli.print_run_reports``):
#: name -> (title, attribution function, headers or rows -> headers,
#: row dict -> cells)
REPORTS: dict[str, tuple] = {
    "cache": (
        "cache events (serve.cache.*)",
        cache_attribution,
        ["algorithm", "hits", "misses", "invalidated", "hit rate"],
        lambda r: [
            r["algorithm"],
            r["hits"],
            r["misses"],
            r["invalidated"],
            f"{100.0 * r['hit_rate']:.1f}%",
        ],
    ),
    "overload": (
        "overload events (serve.overload.*)",
        overload_attribution,
        ["event", "label", "count"],
        lambda r: [r["event"], r["label"], r["count"]],
    ),
    "faults": (
        "run events (faults.*)",
        fault_attribution,
        lambda rows: list(rows[0]),  # one column per action the run recorded
        lambda r: ["-" if v == 0 else v for v in r.values()],
    ),
    "memory": (
        "memory pressure (memory.*)",
        memory_attribution,
        ["event", "count", "words"],
        lambda r: [r["event"], r["count"], r["words"]],
    ),
}


def format_report(name: str, metrics) -> str:
    """Render the :data:`REPORTS` entry ``name`` as an aligned text table.

    Returns the empty string when the registry holds no events of that
    family, so callers can print it unconditionally.
    """
    title, attribution, headers, cells = REPORTS[name]
    rows = attribution(metrics)
    if not rows:
        return ""
    if callable(headers):
        headers = headers(rows)
    return f"{title}:\n" + format_table(headers, [cells(r) for r in rows])


def format_trace_report(tracer, ledger) -> str:
    """Render :func:`trace_attribution` as an aligned text table."""
    rows = trace_attribution(tracer, ledger)
    if not rows:
        return "(no collective spans recorded)"
    table = format_table(
        ["category", "events", "modeled time (s)", "volume (words)", "% of critical"],
        [
            [
                r["category"],
                r["events"],
                r["seconds"],
                r["words"],
                f"{100.0 * r['time_share']:.1f}%",
            ]
            for r in rows
        ],
    )
    comm = sum(r["seconds"] for r in rows)
    total = float(ledger.critical_time())
    footer = (
        f"\ncollective time {comm:.3e}s of {total:.3e}s modeled critical path "
        f"({100.0 * comm / max(total, 1e-30):.1f}%); remainder is local compute "
        "and per-product overhead"
    )
    return table + footer
