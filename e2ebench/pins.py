"""Recompute ``pins.json``: digests of simulated observables.

Usage (from the repository root)::

    python3 e2ebench/pins.py

The digests come from in-process ``simulate()`` calls on the reference
object engine with no result cache, so a pin never depends on the pool,
the disk cache, the server or the SoA engine that the workloads check.
Re-pin only when a change is meant to alter simulated results (see
NOTES.md); takes about a minute.
"""

from __future__ import annotations

import json
import sys

import common


def pin_results(case_list: list[dict]):
    """Yield ``(case, SimulationResult)`` for each case, object engine."""
    from repro.experiments.base import (
        RunOptions,
        clear_caches,
        set_run_options,
        simulate,
    )
    from repro.hierarchy.config import HierarchyKind

    previous = set_run_options(RunOptions(engine="object", cache_dir=None))
    try:
        for case in case_list:
            yield case, simulate(
                case["trace"],
                case["scale"],
                case["l1"],
                case["l2"],
                HierarchyKind(case["kind"]),
            )
        clear_caches()
    finally:
        set_run_options(previous)


def compute_pins() -> dict:
    pins: dict = {"cases": {}}
    for case, result in pin_results(common.grid_cases() + common.serve_cases()):
        pins["cases"][common.case_id(case)] = common.result_digest(result)
    return pins


def main() -> int:
    common.use_source_tree()
    pins = compute_pins()
    common.PINS_PATH.write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(pins['cases'])} case pins to {common.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
