"""Self-tests of the benchmark itself (about five minutes on two cores).

Usage (from the repository root)::

    python3 e2ebench/selftest.py

Checks that:

1. a tiny-length run of each workload prints every end-to-end metric
   with its unit and ends with a well-formed, correct result line;
2. the traced run prints every per-layer metric, and its layer spans
   account for its wall time to within ``COVERAGE_TOLERANCE_PCT``;
3. a corrupted pin makes a run exit non-zero with its failed
   operations counted;
4. a directory holding only BENCHMARK.json and the benchmark (no
   program sources) exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import common

#: Wall time the traced run's layer spans may leave unattributed.
COVERAGE_TOLERANCE_PCT = 5.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd=common.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def bench_copy(dest: Path) -> Path:
    """*dest* holding only BENCHMARK.json and a copy of the benchmark."""
    shutil.copytree(
        common.BENCH_DIR,
        dest / common.BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(common.ROOT / "BENCHMARK.json", dest)
    return dest


def result_line(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(lines: list[str], declared: list[dict]) -> dict:
    result = result_line(lines)
    assert result["correct"] and result["failed"] == 0, lines[-15:]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(metrics)
    for item in declared:
        entry = metrics[item["name"]]
        assert entry["unit"] == item["unit"], item
        assert isinstance(entry["value"], (int, float)), item
        assert any(line.startswith(f"{item['name']} = ") and line.endswith(
            f" {item['unit']}") for line in lines), item["name"]
    return metrics


def main() -> int:
    common.use_source_tree()
    from workloads import WORKLOADS

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = common.ROOT / ".e2ebench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1")
            assert code == 0, (workload, lines[-15:])
            check_metrics(lines, spec["end_to_end"])
            print(f"ok: tiny {workload} run prints every end-to-end metric")

        code, lines = bench("--workload", "sweep", "--trace", "1")
        assert code == 0, lines[-15:]
        metrics = check_metrics(lines, spec["per_layer"])
        coverage = metrics["tracing.coverage_pct"]["value"]
        assert coverage >= 100 - COVERAGE_TOLERANCE_PCT, coverage
        print(
            "ok: traced run prints every per-layer metric; "
            f"spans cover {coverage:.2f}%"
        )

        corrupt = bench_copy(work / "corrupt")
        (corrupt / "src").symlink_to(common.SRC, target_is_directory=True)
        pins_path = corrupt / common.BENCH_DIR.name / common.PINS_PATH.name
        pins = json.loads(pins_path.read_text(encoding="utf-8"))
        name = common.case_id(common.serve_cases()[0])
        pins["cases"][name] = "0" * len(pins["cases"][name])
        pins_path.write_text(json.dumps(pins), encoding="utf-8")
        code, lines = bench("--workload", "serve_mix", "--seconds", "1", cwd=corrupt)
        result = result_line(lines)
        assert code != 0 and not result["correct"] and result["failed"] > 0, lines[-5:]
        print(f"ok: a corrupted pin fails the run ({result['failed']} failed)")

        code, lines = bench("--workload", "sweep", cwd=bench_copy(work / "bare"))
        assert code != 0 and not lines, (code, lines)
        print("ok: without program sources the run exits non-zero, printing no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
