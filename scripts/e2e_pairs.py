#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

Usage::

    python scripts/e2e_pairs.py --parent REV [--pairs N] [--seconds S]
                                [--workload W ...] [--seed N]

Extracts ``git archive`` trees of ``REV`` and ``HEAD`` into a temporary
directory and runs ``benchmarks/e2e/run.py`` (untraced) in each, one
workload at a time, ``N`` pairs per workload, alternating which side runs
first (odd pairs: parent first).  Every run sees the same environment:
a shared ``XDG_CACHE_HOME`` inside the temporary directory (so both sides
load a compiled path kernel built once), ``PYTHONDONTWRITEBYTECODE=1``,
``PYTHONPATH`` and every ``REPRO_*`` variable unset.  Then one fixed-count
``--quick --trace both`` run per side and workload compares what does not
depend on how many units fit in the time budget.

Prints, per workload: for each end-to-end metric of ``BENCHMARK.json`` the
median, quartiles and min-max of both sides, the change against the
parent's median beside the metric's bound, and in how many pairs the
change was lower; every run; and whether ``scores_sha``, ``ops_failed`` and
the exact ledger metrics match on every run of both sides.  Only
``HEAD`` is measured: commit the change first.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the ledger's metrics: deterministic at a fixed seed, compared for equality
EXACT = ("modeled_s", "modeled_comm_s", "crit_words", "crit_msgs", "peak_rank_words")
#: per-layer units that are counts of work, not host time
COUNT_UNITS = ("count", "words", "messages", "sim_s")


def extract(rev: str, dest: Path) -> str:
    """``git archive`` of ``rev`` unpacked into ``dest``; returns the commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def bench_env(cache: Path) -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(PYTHONDONTWRITEBYTECODE="1", XDG_CACHE_HOME=str(cache))
    return env


def run(tree: Path, env: dict, out: Path, *args: str) -> dict:
    """One ``run.py`` invocation in ``tree``; its one workload's report."""
    subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--out", str(out), *args],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    (entry,) = json.loads(out.read_text())["workloads"].values()
    return entry


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def spread(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return (
        f"median {statistics.median(values):.4f} (q1 {q1:.4f}, q3 {q3:.4f}; "
        f"runs {min(values):.4f}-{max(values):.4f})"
    )


def agreement(runs: dict[str, list[dict]], key) -> str:
    """Whether ``key(run)`` is one value on every run of both sides."""
    seen = {side: [key(r) for r in runs[side]] for side in SIDES}
    values = set(seen["parent"] + seen["change"])
    if len(values) == 1:
        return f"{values.pop()} on every run of both sides"
    if len(set(seen["parent"])) > 1:
        return "varies run to run on the parent too (not comparable here)"
    return f"DIFFERS: parent {seen['parent']}, change {seen['change']}"


def sha_agreement(runs: dict[str, list[dict]]) -> str:
    """Whether runs that answered the same number of units hashed the same
    answers: a served workload's ``scores_sha`` hashes every answer, so it
    follows how many waves fit in the time budget."""
    by_count: dict[int, set[str]] = {}
    for r in runs["parent"] + runs["change"]:
        by_count.setdefault(r["ops_attempted"], set()).add(r["scores_sha"][:12])
    shas = set().union(*by_count.values())
    if len(shas) == 1:
        return f"{shas.pop()} on every run of both sides"
    clash = {n: sorted(s) for n, s in by_count.items() if len(s) > 1}
    if clash:
        return f"DIFFERS at equal ops_attempted: {clash}"
    return (
        f"{len(shas)} values, one per ops_attempted on both sides (the hash "
        "follows how many units fit in the time budget)"
    )


def report_pairs(name: str, runs: dict[str, list[dict]], firsts: list[str], bounds) -> bool:
    """Print one workload's pairs; return whether every metric is within bound."""
    print(f"\n  {name}")
    ok = True
    for metric, bound in bounds.items():
        vals = {side: [r["end_to_end"][metric]["value"] for r in runs[side]] for side in SIDES}
        base, new = (statistics.median(vals[side]) for side in SIDES)
        rel = new / base - 1
        within = rel <= bound
        ok &= within
        wins = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        print(
            f"    {metric:<11} parent {spread(vals['parent'])} -> change "
            f"{spread(vals['change'])}: {rel:+.1%} (bound +{bound:.0%}: "
            f"{'within bound' if within else 'WORSE THAN BOUND'}), "
            f"change lower in {wins} of {len(firsts)} pairs"
        )
    head = "    pair  first  " + "".join(f"{m + ' parent':>20}    change" for m in bounds)
    print(head + "   reps parent/change  failed")
    for k, first in enumerate(firsts):
        pair = {side: runs[side][k] for side in SIDES}
        cells = "".join(
            f"{pair['parent']['end_to_end'][m]['value']:>20.4f}"
            f"{pair['change']['end_to_end'][m]['value']:>10.4f}"
            for m in bounds
        )
        reps = "/".join(str(pair[side]["ops_attempted"]) for side in SIDES)
        failed = sum(pair[side]["ops_failed"] for side in SIDES)
        print(f"    {k + 1:>4}  {first:<6} {cells}   {reps:>19}  {failed:>6}")
    print(f"    scores_sha: {sha_agreement(runs)}")
    print(f"    ops_failed: {agreement(runs, lambda r: r['ops_failed'])}")
    for metric in EXACT:
        if metric in runs["parent"][0]["end_to_end"]:
            value = agreement(runs, lambda r: r["end_to_end"][metric]["value"])
            print(f"    {metric}: {value}")
    return ok


def _cell(value) -> str:
    """One side of a compared metric: a hash abbreviated, a number grouped."""
    return value[:12] if isinstance(value, str) else f"{value:,.6g}"


def report_quick(name: str, quick: dict[str, dict]) -> None:
    """Print the fixed-count comparison of one workload: one line when every
    compared value is identical, else a ``metric parent -> change (±%)``
    table of the ones that differ."""
    parent, change = quick["parent"], quick["change"]
    keys = ["scores_sha", "ops_attempted", "ops_failed"]
    differ = [(k, parent[k], change[k]) for k in keys if parent[k] != change[k]]
    for metric in EXACT:
        if metric in parent["end_to_end"]:
            a, b = (q["end_to_end"][metric]["value"] for q in (parent, change))
            if a != b:
                differ.append((metric, a, b))
    counts = [
        m for m, v in parent["per_layer"].items() if v["unit"] in COUNT_UNITS
    ]
    for metric in counts:
        a, b = (q["per_layer"][metric]["value"] for q in (parent, change))
        if a != b:
            differ.append((metric, a, b))
    same = (
        f"scores_sha {parent['scores_sha'][:12]} ops_attempted {parent['ops_attempted']}"
        f" ops_failed {parent['ops_failed']}, exact metrics and {len(counts)} per-layer"
        " counts"
    )
    if not differ:
        print(f"  {name:<17} {same} -- identical")
        return
    print(f"  {name:<17} {same} -- {len(differ)} differ:")
    width = max(len(m) for m, _, _ in differ)
    left = max(len(_cell(a)) for _, a, _ in differ)
    right = max(len(_cell(b)) for _, _, b in differ)
    for metric, a, b in differ:
        rel = f"({b / a - 1:+.1%})" if not isinstance(a, str) and a else ""
        print(f"    {metric:<{width}}  {_cell(a):>{left}} -> {_cell(b):>{right}}  {rel}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="the revision to compare HEAD with")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run.py --seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    common = ["--seed", str(args.seed)]
    timed = [*common, "--trace", "0"]
    if args.seconds is not None:
        timed += ["--seconds", str(args.seconds)]

    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        commits = {
            side: extract(rev, trees[side])
            for side, rev in zip(SIDES, (args.parent, "HEAD"))
        }
        env = bench_env(tmp / "cache")
        print(
            f"end-to-end pairs: parent {commits['parent']} against change "
            f"{commits['change']}, `run.py {' '.join(timed)}`, {args.pairs} pairs per "
            "workload alternating which side runs first (odd pair: parent first); both "
            "sides git-archive trees, PYTHONDONTWRITEBYTECODE=1, PYTHONPATH and REPRO_* "
            f"unset, one shared XDG_CACHE_HOME; {os.cpu_count()} cores"
        )
        ok = True
        quick: dict[str, dict[str, dict]] = {}
        for name in names:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            firsts = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                firsts.append(order[0])
                for side in order:
                    out = tmp / f"{name}-{k}-{side}.json"
                    runs[side].append(
                        run(trees[side], env, out, "--workload", name, *timed)
                    )
            ok &= report_pairs(name, runs, firsts, bounds)
            quick[name] = {
                side: run(
                    trees[side], env, tmp / f"{name}-quick-{side}.json",
                    "--workload", name, *common, "--quick", "--trace", "both",
                )
                for side in SIDES
            }
        print("\n  fixed unit counts (`run.py --quick --trace both`, one run per side):")
        for name in names:
            report_quick(name, quick[name])
        print(
            "\nevery end-to-end median within its bound" if ok
            else "\nSOME END-TO-END MEDIAN IS WORSE THAN ITS BOUND"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
