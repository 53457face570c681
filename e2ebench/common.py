"""Helpers shared by the benchmark's workloads, ledger and pin script.

Everything here talks to the program only through its public surface:
the ``repro-experiment`` / ``repro-serve`` entry points run as child
interpreters, and the ``repro`` package imported from ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
PAPER_PATH = BENCH_DIR / "paper.json"

#: Scale of the Table 6 grid and the sweep (the CLI's default scale).
GRID_SCALE = 0.1
#: Scale of the serve_mix configurations: small enough that a miss is
#: well under a second, so a run sees dozens of them.
SERVE_SCALE = 0.01
#: Size pairs the serve_mix configurations use.
SERVE_PAIRS = (("4K", "64K"), ("16K", "256K"))
#: Least samples beyond a reported percentile (so p50 needs 20, p99 1000).
TAIL_SAMPLES = 10


def use_source_tree() -> None:
    """Put ``src/`` first on the import path, or exit 2 when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program sources under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the source tree, no overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def entry_argv(module: str, *args: str) -> list[str]:
    """argv running console-script entry point ``module:main`` from source.

    The ``-c`` launcher mirrors the installed console script exactly and
    avoids runpy's double-import warning that ``-m`` gives for modules
    the package already imports.
    """
    code = f"import sys; from {module} import main; sys.exit(main())"
    return [sys.executable, "-c", code, *args]


def job_case(job) -> dict:
    """A planner ``SimJob`` as a configuration dict."""
    return dict(vars(job), kind=job.kind.value)


def grid_cases() -> list[dict]:
    """The 18 Table 6 configurations (3 traces x 3 size pairs x VR/RR-incl),
    as the CLI's planner lists them."""
    from repro.runner import plan_jobs

    return [job_case(job) for job in plan_jobs(["table6"], GRID_SCALE)]


def serve_cases() -> list[dict]:
    """The 12 serve_mix configurations: every trace x SERVE_PAIRS x VR/RR-incl."""
    from repro.hierarchy.config import HierarchyKind
    from repro.trace.workloads import workload_names

    return [
        {"trace": trace, "scale": SERVE_SCALE, "l1": l1, "l2": l2, "kind": kind.value}
        for trace in workload_names()
        for l1, l2 in SERVE_PAIRS
        for kind in (HierarchyKind.VR, HierarchyKind.RR_INCLUSION)
    ]


def case_id(case: dict) -> str:
    return f"{case['trace']}/{case['l1']}/{case['l2']}/{case['kind']}@{case['scale']:g}"


def digest(body) -> str:
    """Short sha256 of a JSON-able body, keys sorted."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def result_digest(result) -> str:
    """Digest of one ``SimulationResult``, as the server would encode it."""
    from repro.serve.protocol import result_payload

    return digest(result_payload(result))


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def batch_means(values: list[float], size: int) -> list[float]:
    """Means of consecutive batches of *size* values (a short tail is dropped)."""
    return [
        statistics.mean(values[i : i + size])
        for i in range(0, len(values) - size + 1, size)
    ]


def percentile(values: list[float], q: float) -> float | None:
    """The *q*-quantile of *values*, or None when fewer than
    ``TAIL_SAMPLES`` samples lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed, with the first few failure notes.

    Client threads share one tally, so updates take a lock.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, note: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(note)
        return ok
