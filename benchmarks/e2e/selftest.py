"""Self-test of the benchmark harness (not collected by the tier-1 pytest).

    python benchmarks/e2e/selftest.py

Runs the ``--quick`` variant of all six workloads (scale 6-7 graphs, fixed unit
counts) twice, untraced and traced, and checks that

* the output validates against the schema and every name is well formed;
* ``BENCHMARK.json`` agrees with ``metrics.py`` / ``workloads.py`` and stays
  inside the PR driver's limits;
* no operation failed, and after the traced run every wrapped attribute is
  the original object again;
* every exact metric and every deterministic count is identical between the
  two runs, and the tracer's own counts equal the program's;
* traced and untraced runs give identical scores.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from compare import compare  # noqa: E402
from run import SCHEMA  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: per-layer units whose values are made by the program, not by a clock
COUNT_UNITS = ("count", "words", "messages")
#: ... except this one: ``Machine.free`` runs from ``DistMat`` finalizers, so
#: the garbage collector decides which rep a call lands in
GC_TIMED = ("machine.ledger_calls",)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metric(name: str, m: dict, end_to_end: bool) -> None:
    check(bool(NAME.match(name)), f"bad metric name {name!r}")
    check(isinstance(m["value"], (int, float)), f"{name}: value is not a number")
    check(bool(UNIT.match(m["unit"])), f"{name}: bad unit {m['unit']!r}")
    check(m["better"] in ("lower", "higher"), f"{name}: bad direction")
    check(isinstance(m["n"], int) and m["n"] >= 1, f"{name}: bad sample count")
    if end_to_end:
        check(0 < m["bound"] <= 0.25, f"{name}: bound out of range")
        check(isinstance(m["exact"], bool), f"{name}: exact flag missing")


def validate(report: dict) -> None:
    """The schema of a ``run.py --out`` file."""
    check(report["schema"] == SCHEMA, "unknown schema")
    for key in ("seed", "git_commit", "nproc", "cpu_model", "python", "numpy",
                "scipy", "loadavg"):
        check(key in report["env"], f"env lacks {key}")
    specs = {m.name: m for m in M.END_TO_END}
    for name, entry in report["workloads"].items():
        check(bool(NAME.match(name)) and name in WORKLOADS, f"bad workload {name!r}")
        check(entry["ops_attempted"] >= 1, f"{name}: nothing attempted")
        check(len(entry["calib_s"]) == 2 and isinstance(entry["noisy"], bool),
              f"{name}: noise sentinel missing")
        expected = {m.name for m in M.END_TO_END if name in m.workloads}
        check(set(entry["end_to_end"]) == expected,
              f"{name}: end-to-end metrics {sorted(entry['end_to_end'])}")
        for metric, m in entry["end_to_end"].items():
            check_metric(metric, m, end_to_end=True)
            check(m["value"] != 0, f"{name}.{metric} is 0")
            check((m["unit"], m["better"], m["bound"]) == (
                specs[metric].unit, specs[metric].better, specs[metric].bound),
                f"{name}.{metric} disagrees with metrics.py")
        check(set(entry["per_layer"]) == set(M.PER_LAYER),
              f"{name}: per-layer metric set differs from metrics.py")
        for metric, m in entry["per_layer"].items():
            check_metric(metric, m, end_to_end=False)


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    check(set(doc) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(doc["paths"] == [os.path.relpath(HERE, ROOT)], "BENCHMARK.json paths")
    check([(w["name"], w["why"]) for w in doc["workloads"]]
          == [(w.name, w.why) for w in WORKLOADS.values()],
          "BENCHMARK.json workloads differ from workloads.py")
    check(all(len(w["why"]) <= 200 for w in doc["workloads"]), "a why is too long")
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
          == [(m.name, m.unit, m.better, m.bound) for m in M.DRIVER_END_TO_END],
          "BENCHMARK.json end_to_end differs from metrics.py")
    check("setup_s" in [m["name"] for m in doc["end_to_end"]], "setup_s missing")
    check([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
          == [(n, u, b) for n, (u, b, _) in M.PER_LAYER.items()],
          "BENCHMARK.json per_layer differs from metrics.py")
    check(1 <= len(doc["per_layer"]) <= 128, "too many per-layer metrics")
    for m in doc["end_to_end"] + doc["per_layer"]:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])),
              f"BENCHMARK.json: bad name or unit in {m}")


def quick_suite(tag: str) -> dict:
    path = os.path.join(HERE, "out", f"selftest_{tag}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
         "--seconds", "1", "--out", path],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    check_benchmark_json()
    a, b = quick_suite("a"), quick_suite("b")
    for report in (a, b):
        validate(report)
        for name, entry in report["workloads"].items():
            traced = entry["traced"]
            check(entry["ops_failed"] == 0 and traced["ops_failed"] == 0,
                  f"{name}: failed operations")
            check(traced["restored"], f"{name}: a patched attribute was not restored")
            if name in M.BATCH:
                check(entry["scores_sha"] == traced["scores_sha"],
                      f"{name}: traced and untraced scores differ")
                for metric, count in entry["counts"].items():
                    check(entry["per_layer"][metric]["value"] == count,
                          f"{name}.{metric}: tracer and program counts differ")
    for name, ea in a["workloads"].items():
        eb = b["workloads"][name]
        check(ea["scores_sha"] == eb["scores_sha"], f"{name}: scores differ between runs")
        check(ea["ops_attempted"] == eb["ops_attempted"], f"{name}: op counts differ")
        if name not in M.BATCH:
            continue  # serve counts depend on how threads interleave
        check(ea["counts"] == eb["counts"], f"{name}: counts differ between runs")
        for metric, m in ea["per_layer"].items():
            if m["unit"] in COUNT_UNITS and metric not in GC_TIMED:
                check(m["value"] == eb["per_layer"][metric]["value"],
                      f"{name}.{metric} differs between runs")
    for _, metric, _, _, change, bound, word in compare(a, b)[0]:
        if bound == "exact":
            check(word == "within-bound" and change == 0,
                  f"exact metric {metric} differs between runs")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
