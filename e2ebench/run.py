"""End-to-end benchmark of the V-R/R-R cache-hierarchy reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload grid_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` runs one workload untraced and reports every end-to-end
metric of BENCHMARK.json; ``--trace 1`` runs the traced per-layer
ledger (ledger.py) and reports every per-layer metric.  Each simulated
result is checked against pins.json.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the program sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import common

#: Where runs keep their scratch files (a fresh subdirectory per run).
WORK_ROOT = common.ROOT / ".e2ebench_work"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def host_speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop (recorded, never applied)."""
    times = []
    for _ in range(5):
        started = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(perf_counter() - started)
    return statistics.median(times)


def environment_stamp() -> dict:
    """Facts that let drift between sets of runs be attributed."""
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=common.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev or "unknown",
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "host_loop_s": round(host_speed_probe(), 5),
    }


def main(argv: list[str] | None = None) -> int:
    common.use_source_tree()
    args = parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    stamp = environment_stamp()
    work = WORK_ROOT / f"{args.workload}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = common.Tally()
    measured: dict = {}
    try:
        if args.trace:
            import ledger

            measured = ledger.run(work, tally)
        else:
            from workloads import WORKLOADS

            measured = WORKLOADS[args.workload](args, work, tally)
    except Exception:
        traceback.print_exc()
        tally.check(False, "workload raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics = {}
    for item in declared:
        value = measured.get(item["name"])
        if value is None:
            print(f"{item['name']}: not measured")
            continue
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{item['name']} = {value:.6g} {item['unit']}")
    for note in tally.notes:
        print(f"FAILED: {note}")
    print("env " + json.dumps(stamp, sort_keys=True))
    correct = tally.failed == 0 and len(metrics) == len(declared)
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
