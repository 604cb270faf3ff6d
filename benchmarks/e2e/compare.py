"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric) the two files share, with both
medians, the relative change, the bound, and a verdict:

* ``improved``     B is better by more than the spread;
* ``within-bound`` B is no worse than A by more than the metric's bound;
* ``regressed``    B is worse by more than the bound;
* ``unresolved``   the spread exceeds the bound, or the workload was flagged
  noisy, so the samples cannot tell — unless B's quartiles all beat A's.

Each file holds one run, so the spread is the run's own: the interquartile
range of its units over their median, divided by sqrt(n) (about the standard
error of a median), the wider of the two files.  Metrics without quartiles of
their own (one sample, or derived from the same units) take ``wall_s``'s.

Exact metrics (the simulated α-β ledger) must agree to a relative 1e-9.
"""

from __future__ import annotations

import json
import math


def _spread(metric: dict, wall: dict) -> float:
    m = metric if "q1" in metric else wall
    return (m["q3"] - m["q1"]) / abs(m["value"]) / math.sqrt(m["n"])


def verdict(a: dict, b: dict, spread: float, noisy: bool) -> tuple[float, str]:
    """``(relative change, positive = worse; verdict)`` for one metric."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    bound = a["bound"]
    if a["exact"]:
        if abs(worse) <= bound:
            return worse, "within-bound"
        return worse, "regressed" if worse > 0 else "improved"
    if spread > bound or (noisy and worse > bound):
        clear_win = "q1" in a and "q1" in b and (
            b["q3"] < a["q1"] if sign > 0 else b["q1"] > a["q3"]
        )
        return worse, "improved" if clear_win else "unresolved"
    if worse > bound:
        return worse, "regressed"
    return worse, "improved" if worse < -spread else "within-bound"


def compare(a: dict, b: dict) -> tuple[list[tuple], int]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)`` and the
    number of regressions."""
    rows, regressed = [], 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            continue
        noisy = wa["noisy"] or wb["noisy"]
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"].get(metric)
            if mb is None:
                continue
            spread = max(
                _spread(ma, wa["end_to_end"]["wall_s"]),
                _spread(mb, wb["end_to_end"]["wall_s"]),
            )
            change, word = verdict(ma, mb, spread, noisy)
            regressed += word == "regressed"
            rows.append((name, metric, ma["value"], mb["value"], change,
                         "exact" if ma["exact"] else f"{ma['bound']:.0%}", word))
    return rows, regressed


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["env"]["seed"] != b["env"]["seed"]:
        raise SystemExit(
            f"seeds differ ({a['env']['seed']} vs {b['env']['seed']}): the inputs, "
            "and so the exact metrics, are only comparable at one seed"
        )
    rows, regressed = compare(a, b)
    line = "{:<18} {:<16} {:>13} {:>13} {:>9}  {:<6} {}"
    print(line.format("workload", "metric", "A", "B", "change", "bound", "verdict"))
    for name, metric, va, vb, change, bound, word in rows:
        print(line.format(
            name, metric, f"{va:.6g}", f"{vb:.6g}", f"{change:+.2%}", bound, word
        ))
    print("\n(change > 0 means B is worse)  failed-op share per workload:")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        shares = [
            f"{w['ops_failed']}/{w['ops_attempted']}" + (" noisy" if w["noisy"] else "")
            for w in (wa, wb)
        ]
        print(f"  {name:<18} A {shares[0]:<14} B {shares[1]}")
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0
