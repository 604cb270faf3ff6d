"""End-to-end + layer-by-layer benchmark for MFBC.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME ...] [--seconds S]
                                 [--trace [0|1|both]] [--out FILE] [--quick]
    python benchmarks/e2e/run.py --compare A.json B.json

Generates every input from the seed, runs each workload in a fresh hermetic
subprocess (``worker.py``), checks every answer against the Brandes oracle,
and prints every metric by name with unit, direction, sample count and
regression bound.  ``--trace 0`` (default) is the untraced pass that gives the
end-to-end metrics, ``--trace 1`` the traced pass that gives the per-layer
metrics, ``--trace`` alone (or ``both``) runs the two.  With exactly one
workload the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the PR driver.

See README.md in this directory for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from compare import compare_files  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "mfbc-e2e-bench/1"
#: ambient knobs that must not change what is measured
SCRUBBED_ENV = (
    "REPRO_CHECK", "REPRO_CHECK_DIR", "REPRO_ELASTIC", "REPRO_EXECUTOR",
    "REPRO_FAULTS", "REPRO_KERNEL", "REPRO_MEMORY", "REPRO_SPILL_DIR",
)
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: cold set-ups (fresh subprocesses) whose median is ``setup_s``
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
#: what each pass reports about itself, beside its metrics
HEALTH = ("ops_attempted", "ops_failed", "scores_sha", "calib_s", "noisy")


def default_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(dict.fromkeys(SINGLE_THREAD_ENV, "1"))
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def worker(name: str, args, *extra: str) -> dict:
    """One ``worker.py`` subprocess; its last stdout line is the result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(
        cmd, env=hermetic_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"workload {name}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """The pass(es) asked for of one workload."""
    entry: dict = {"why": WORKLOADS[name].why}
    if args.trace in ("0", "both"):
        setups = [
            worker(name, args, "--setup-only")
            for _ in range(0 if args.quick else SETUP_SAMPLES - 1)
        ]
        res = worker(name, args)
        setups.append(res)
        e2e = res["end_to_end"]
        e2e["setup_s"] = summary_of_setups(setups)
        for spec in M.END_TO_END:
            if spec.name in e2e:
                e2e[spec.name].update(
                    unit=spec.unit, better=spec.better, bound=spec.bound,
                    exact=spec.exact,
                )
        entry.update(
            {k: res[k] for k in (*HEALTH, "graph", "counts", "oracle_s")},
            end_to_end=e2e,
        )
    if args.trace in ("1", "both"):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_file = os.path.join(HERE, "out", f"{name}.trace.json")
        res = worker(name, args, "--trace", "1", "--trace-file", trace_file)
        for metric, (unit, better, _) in M.PER_LAYER.items():
            res["per_layer"][metric].update(unit=unit, better=better)
        entry.update(
            per_layer=res["per_layer"],
            traced={
                **{k: res[k] for k in (*HEALTH, "restored")},
                "trace_file": os.path.relpath(trace_file, ROOT),
            },
        )
        for key in HEALTH:  # a traced-only run has no untraced pass to report
            entry.setdefault(key, res[key])
    return entry


def summary_of_setups(setups: list[dict]) -> dict:
    """``setup_s``: the median of the cold set-ups, each at reference speed."""
    values = [s["setup_s"] for s in setups]
    return {
        "value": statistics.median(values), "n": len(values),
        "raw": statistics.median(s["setup_raw_s"] for s in setups),
        "q1": min(values), "q3": max(values),
    }


def print_workload(name: str, entry: dict) -> None:
    flags = "  NOISY (calibration slice drifted > 15%)" if entry["noisy"] else ""
    print(
        f"\n== {name}: ops attempted {entry['ops_attempted']}, "
        f"failed {entry['ops_failed']}; calibration slice early/late "
        f"{entry['calib_s'][0] * 1e3:.1f}/{entry['calib_s'][1] * 1e3:.1f} ms{flags}"
    )
    row = "  {:<28} {:>14} {:<9} {:<7} {:>6}  {}"
    for section in ("end_to_end", "per_layer"):
        if section not in entry:
            continue
        print(row.format(section, "value", "unit", "better", "n", "bound"))
        for metric, m in entry[section].items():
            bound = (
                "" if "bound" not in m
                else "exact" if m["exact"] else f"{m['bound']:.0%}"
            )
            print(row.format(
                metric, f"{m['value']:.6g}", m["unit"], m["better"], m["n"], bound
            ))


def driver_line(entry: dict, traced: bool) -> str:
    """The PR driver's contract: one JSON object, last line of stdout."""
    if traced:
        section, names = entry["per_layer"], list(M.PER_LAYER)
        correct = entry["traced"]["restored"]
    else:
        section = entry["end_to_end"]
        names = [m.name for m in M.DRIVER_END_TO_END]
        correct = True
    return json.dumps({
        "correct": bool(correct and entry["ops_failed"] == 0),
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": {
            n: {"value": section[n]["value"], "unit": section[n]["unit"]}
            for n in names
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="repeatable; default: all six",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long each pass measures (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both")
    )
    parser.add_argument("--out", help="write every metric to this JSON file")
    parser.add_argument(
        "--quick", action="store_true",
        help="scale 6-7 graphs and fixed unit counts (selftest.py)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.seconds is None:
        args.seconds = default_seconds()

    names = args.workload or list(WORKLOADS)
    report = {
        "schema": SCHEMA,
        "seconds": args.seconds,
        "quick": args.quick,
        "env": environment(args.seed),
        "workloads": {},
    }
    for name in names:
        entry = report["workloads"][name] = run_workload(name, args)
        print_workload(name, entry)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if len(names) == 1:
        print(driver_line(report["workloads"][names[0]], traced=args.trace == "1"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
