"""Plain-text table rendering for benchmark and trace reports."""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "format_table",
    "trace_attribution",
    "format_trace_report",
    "cache_attribution",
    "overload_attribution",
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


def memory_attribution(metrics) -> list[dict]:
    """Per-site memory-pressure event totals from a machine's registry.

    Reads the spill store's ``memory.spill.{events,words}`` traffic and the
    run events :func:`repro.faults.note` counts: torn spill writes
    (``faults.detected{kind="tear"}``), relief evictions
    (``faults.evicted{kind="spill"}``) and the recovery-ladder rungs taken
    (every ``faults.*`` series with a ``rung`` label).  Empty when the run
    never came under memory pressure.
    """
    rows: list[dict] = []
    combos: set[tuple[str, str]] = set()
    for name in ("memory.spill.events", "memory.spill.words"):
        for labels in metrics.series(name):
            d = dict(labels)
            combos.add((d.get("op", ""), d.get("site", "")))
    for op, site in sorted(combos):
        rows.append(
            {
                "event": f"spill.{op}",
                "site": site,
                "count": int(
                    metrics.get_count("memory.spill.events", op=op, site=site)
                ),
                "words": int(
                    metrics.get_count("memory.spill.words", op=op, site=site)
                ),
            }
        )
    for event, name, kind in (
        ("spill.torn", "faults.detected", "tear"),
        ("relief", "faults.evicted", "spill"),
    ):
        for labels, count in sorted(metrics.series(name).items()):
            d = dict(labels)
            if d["kind"] == kind:
                rows.append({"event": event, "site": d["site"], "count": int(count), "words": 0})
    rungs: dict[tuple[str, str], float] = {}
    for name in metrics.names():
        if name.startswith("faults."):
            for labels, count in metrics.series(name).items():
                d = dict(labels)
                if "rung" in d:
                    rungs[d["rung"], d["site"]] = rungs.get((d["rung"], d["site"]), 0) + count
    for (rung, site), count in sorted(rungs.items()):
        rows.append({"event": f"ladder.{rung}", "site": site, "count": int(count), "words": 0})
    return rows


#: the metric reports: ``repro serve`` (and the serve smoke and soak
#: scripts) print ``cache`` and ``overload`` from ``BCService.metrics`` at
#: shutdown; every command that runs a machine prints ``memory`` from
#: ``machine.metrics`` (``repro.cli.print_memory``):
#: name -> (title, attribution function, headers, row dict -> cells)
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
    "memory": (
        "memory pressure (memory.*)",
        memory_attribution,
        ["event", "site", "count", "words"],
        lambda r: [r["event"], r["site"], r["count"], r["words"]],
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
